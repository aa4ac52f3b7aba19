"""The peaksets suite: the Dyck-prefix bijection, count_valid and the
parity law of extension, against the enumerated faces."""

from __future__ import annotations

from itertools import zip_longest

from .. import peak_sets
from ..tables import POSET_CAP
from ..verify import _dyck_words, _registry, _valid_subsets


def check_dyck_roundtrip(ns: range) -> tuple[bool, str]:
    for n in ns:
        for s, word in zip(_valid_subsets(n), _dyck_words(n)):
            back = peak_sets.from_dyck(n, word)
            if (back.n, back.elements) != (n, s):
                return False, f"round trip failed at n={n}, S={s}"
    return True, "from_dyck(to_dyck(s)) = s exhaustively"


def check_dyck_bijection(ns: range) -> tuple[bool, str]:
    # Both sides in sorted order, word by word: a duplicate image fails too.
    for n in ns:
        images = sorted(w.letters for w in _dyck_words(n))
        if any(a != b for a, b in zip_longest(images, peak_sets.enumerate_left_factors(n - 1))):
            return False, f"images != left factors at n={n}"
    return True, "bijection onto left factors of length n-1"


def check_count_valid(ns: range) -> tuple[bool, str]:
    for n in ns:
        if peak_sets.count_valid(n) != sum(1 for _ in _valid_subsets(n)):
            return False, f"count_valid mismatch at n={n}"
    return True, "count_valid = exhaustive subset count"


def check_extension_law(ns: range) -> tuple[bool, str]:
    for n in ns:
        cap = peak_sets.max_peak_count(n)
        for s in _valid_subsets(n):
            extended = peak_sets.is_valid(n + 1, s + (n + 1,))
            expected = len(s) < cap or n % 2 == 0
            if extended != expected:
                return False, f"extension law failed at n={n}, S={s}"
    return True, "adjoining n+1 follows the parity law"


CHECKS, RANGES = _registry([
    ("dyck-round-trip", check_dyck_roundtrip, 3, POSET_CAP),
    ("dyck-bijection-onto", check_dyck_bijection, 3, POSET_CAP),
    ("count-valid-exhaustive", check_count_valid, 3, POSET_CAP),
    ("extension-parity-law", check_extension_law, 3, 13),
])
