"""The perm suite: the CP classes of S_n against the validity criterion
and the witness permutations."""

from __future__ import annotations

from itertools import combinations, permutations
from math import factorial

from .. import peak_sets, perm_core
from ..peak_sets import PeakSet
from ..tables import POSET_CAP
from ..verify import PERM_DEFAULT, _cp_class_table, _valid_subsets


def check_partition(max_n: int) -> tuple[bool, str]:
    top = min(PERM_DEFAULT, max_n)
    for n in range(1, top + 1):
        table = _cp_class_table(n)
        if sum(table.values()) != factorial(n):
            return False, f"class sizes do not sum to n! at n={n}"
    return True, f"CP classes partition S_n for n <= {top}"


def check_validity_equivalence(max_n: int) -> tuple[bool, str]:
    top = min(PERM_DEFAULT, max_n)
    for n in range(3, top + 1):
        table = _cp_class_table(n)
        for k in range(0, n + 1):
            for s in combinations(range(1, n + 1), k):
                nonempty = s in table
                if nonempty != peak_sets.is_valid(n, s):
                    return False, f"criterion mismatch at n={n}, S={s}"
    return True, f"is_valid <=> CP class nonempty, all S, n <= {top}"


def check_peak_window(max_n: int) -> tuple[bool, str]:
    top = min(7, max_n)
    for n in range(1, top + 1):
        for vals in permutations(range(1, n + 1)):
            cp = perm_core._peaks(vals)
            if not cp:
                continue
            if n <= 2:
                return False, f"nonempty CP at n={n}"
            if min(cp) < 3 or max(cp) > n:
                return False, f"CP value outside [3,n] for {vals}"
            if vals[0] in cp or vals[-1] in cp:
                return False, f"end position contributed a peak for {vals}"
    return True, f"CP values lie in [3,n], interior positions only, n <= {top}"


def check_witness(max_n: int) -> tuple[bool, str]:
    top = min(POSET_CAP, max_n + 6)
    for n in range(3, top + 1):
        for s in _valid_subsets(n):
            w = peak_sets.witness(n, PeakSet(n, s))
            if perm_core.circular_peak_set(w) != s:
                return False, f"witness failed at n={n}, S={s}"
    return True, f"witness realizes every valid set, n <= {top}"


CHECKS = [
    ("cp-classes-partition", check_partition),
    ("validity-criterion-equivalence", check_validity_equivalence),
    ("cp-value-window", check_peak_window),
    ("witness-realizes-set", check_witness),
]
