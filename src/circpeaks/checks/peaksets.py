"""The peaksets suite: the Dyck-prefix bijection, count_valid and the
parity law of extension, against the enumerated faces."""

from __future__ import annotations

from .. import peak_sets
from ..tables import POSET_CAP
from ..verify import _dyck_words, _valid_subsets


def check_dyck_roundtrip(max_n: int) -> tuple[bool, str]:
    top = min(POSET_CAP, max_n + 6)
    for n in range(3, top + 1):
        for s, word in zip(_valid_subsets(n), _dyck_words(n)):
            back = peak_sets.from_dyck(n, word)
            if (back.n, back.elements) != (n, s):
                return False, f"round trip failed at n={n}, S={s}"
    return True, f"from_dyck(to_dyck(s)) = s exhaustively, n <= {top}"


def check_dyck_bijection(max_n: int) -> tuple[bool, str]:
    top = min(POSET_CAP, max_n + 6)
    for n in range(3, top + 1):
        words = {w.letters for w in _dyck_words(n)}
        if words != set(peak_sets.enumerate_left_factors(n - 1)):
            return False, f"images != left factors at n={n}"
    return True, f"bijection onto left factors of length n-1, n <= {top}"


def check_count_valid(max_n: int) -> tuple[bool, str]:
    top = min(POSET_CAP, max_n + 6)
    for n in range(3, top + 1):
        if peak_sets.count_valid(n) != sum(1 for _ in _valid_subsets(n)):
            return False, f"count_valid mismatch at n={n}"
    return True, f"count_valid = exhaustive subset count, n <= {top}"


def check_extension_law(max_n: int) -> tuple[bool, str]:
    top = min(13, max_n + 5)
    for n in range(3, top + 1):
        cap = peak_sets.max_peak_count(n)
        for s in _valid_subsets(n):
            extended = peak_sets.is_valid(n + 1, s + (n + 1,))
            expected = len(s) < cap or n % 2 == 0
            if extended != expected:
                return False, f"extension law failed at n={n}, S={s}"
    return True, f"adjoining n+1 follows the parity law, n <= {top}"


CHECKS = [
    ("dyck-round-trip", check_dyck_roundtrip),
    ("dyck-bijection-onto", check_dyck_bijection),
    ("count-valid-exhaustive", check_count_valid),
    ("extension-parity-law", check_extension_law),
]
