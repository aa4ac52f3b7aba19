"""The perm suite: the CP classes of S_n against the validity criterion
and the witness permutations."""

from __future__ import annotations

from itertools import combinations, permutations
from math import factorial

from .. import peak_sets, perm_core
from ..peak_sets import PeakSet
from ..perm_core import PERMUTATION_CAP
from ..tables import POSET_CAP
from ..verify import _cp_class_table, _registry, _valid_subsets


def check_partition(ns: range) -> tuple[bool, str]:
    for n in ns:
        table = _cp_class_table(n)
        if sum(table.values()) != factorial(n):
            return False, f"class sizes do not sum to n! at n={n}"
    return True, "CP classes partition S_n"


def check_validity_equivalence(ns: range) -> tuple[bool, str]:
    for n in ns:
        table = _cp_class_table(n)
        for k in range(0, n + 1):
            for s in combinations(range(1, n + 1), k):
                nonempty = s in table
                if nonempty != peak_sets.is_valid(n, s):
                    return False, f"criterion mismatch at n={n}, S={s}"
    return True, "is_valid <=> CP class nonempty, all S"


def check_peak_window(ns: range) -> tuple[bool, str]:
    for n in ns:
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
    return True, "CP values lie in [3,n], interior positions only"


def check_witness(ns: range) -> tuple[bool, str]:
    for n in ns:
        for s in _valid_subsets(n):
            w = peak_sets.witness(n, PeakSet(n, s))
            if perm_core.circular_peak_set(w) != s:
                return False, f"witness failed at n={n}, S={s}"
    return True, "witness realizes every valid set"


CHECKS, RANGES = _registry([
    ("cp-classes-partition", check_partition, 1, 8, PERMUTATION_CAP),
    ("validity-criterion-equivalence", check_validity_equivalence, 3, 8, PERMUTATION_CAP),
    ("cp-value-window", check_peak_window, 1, 7, PERMUTATION_CAP),
    ("witness-realizes-set", check_witness, 3, POSET_CAP),
])
