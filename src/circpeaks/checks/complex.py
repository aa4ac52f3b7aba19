"""The complex suite: the face counts, recurrences, Moebius function,
Euler characteristic and product structure of P_n against enumeration."""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .. import complex_poset, peak_sets
from ..exact_algebra import ExactPoly
from ..peak_sets import PeakSet
from ..poset_core import _mask, _moebius_from
from ..tables import POSET_CAP
from ..verify import _left_factor_downs, _registry, _valid_subsets


def check_downward_closure(ns: range) -> tuple[bool, str]:
    # A family holding every one-element removal of each of its sets holds
    # every subset of them, by induction on the number of removed elements.
    for n in ns:
        faces = _valid_subsets(n)
        face_set = set(faces)
        for s in faces:
            for t in combinations(s, len(s) - 1) if s else ():
                if t not in face_set:
                    return False, f"subset {t} of face {s} invalid at n={n}"
    return True, "every subset of a face is a face"


def check_vertices_and_dimension(ns: range) -> tuple[bool, str]:
    for n in ns:
        for x in range(1, n + 1):
            if peak_sets.is_valid(n, (x,)) != (3 <= x <= n):
                return False, f"vertex criterion failed at n={n}, x={x}"
        d = peak_sets.max_peak_count(n) - 1
        if not complex_poset.faces(n, d) or complex_poset.faces(n, d + 1):
            return False, f"dimension mismatch at n={n}"
    return True, "vertex set [3,n], dim = floor((n-1)/2)-1"


def check_face_counts(ns: range) -> tuple[bool, str]:
    for n in ns:
        # through dim D, one past the top, where both counts are 0
        row = tuple(complex_poset.face_count(n, i)
                    for i in range(-1, peak_sets.max_peak_count(n) + 1))
        sizes = Counter(len(s) for s in _valid_subsets(n))
        for i, count in enumerate(row, start=-1):
            if count != sizes[i + 1]:
                return False, f"closed form != enumeration at n={n}, dim={i}"
        if complex_poset.face_table(n) != row[:-1]:
            return False, f"face_table != face_count row at n={n}"
    return True, "face_count = |faces| for all dims and 0 past the top"


def check_fvector_recurrence(ns: range) -> tuple[bool, str]:
    for n, row in zip(ns, complex_poset._face_count_walk()):
        if row != complex_poset.face_table(n):
            return False, f"recurrence row != closed form at n={n}"
    return True, "f-vector recurrence = closed form"


def check_fpoly_recurrence(ns: range) -> tuple[bool, str]:
    for n, p in zip(ns, complex_poset._polynomial_walk(ExactPoly((1, 1)))):
        if p != complex_poset.f_polynomial(n):
            return False, f"f-polynomial recurrence mismatch at n={n}"
    return True, "f-polynomial recurrence = closed form"


def check_face_dyck_counts(ns: range) -> tuple[bool, str]:
    for n in ns:
        by_dyck = _left_factor_downs(n - 1)
        sizes = Counter(len(s) for s in _valid_subsets(n))
        for i in range(-1, peak_sets.max_peak_count(n)):
            if sizes[i + 1] != by_dyck[i + 1]:
                return False, f"Dyck count mismatch at n={n}, dim={i}"
    return True, "faces of dim i <-> left factors with i+1 D's"


def check_moebius(ns: range) -> tuple[bool, str]:
    for n in ns:
        faces = [(s, PeakSet(n, s), _mask(s)) for s in _valid_subsets(n)]
        masks = {m for _, _, m in faces}
        for s, lower, s_mask in faces:
            # the recursion's values mu(s, u) are shared by every upper face t
            recursive = _moebius_from(masks, s_mask)
            for t, upper, t_mask in faces:
                if s_mask & t_mask == s_mask:
                    if complex_poset.moebius(n, lower, upper) != recursive(t_mask):
                        return False, f"moebius mismatch at n={n}, {s}<{t}"
    return True, "(-1)^(|T|-|S|) = recursive Moebius on every interval"


def check_euler(ns: range) -> tuple[bool, str]:
    for n, f in zip(ns, complex_poset._face_count_walk()):
        by_recurrence = sum((-1) ** (m + 1) * p for m, p in enumerate(f))
        closed = complex_poset.euler_characteristic_closed_form(n)
        if by_recurrence != closed:
            return False, f"recurrence f-vector gives chi={by_recurrence} != closed form {closed} at n={n}"
        chi = complex_poset.euler_characteristic(n)
        if type(chi) is not int or chi != closed:
            return False, f"euler_characteristic {chi!r} != closed form at n={n}"
        if n % 2 and by_recurrence != 0:
            return False, f"nonzero chi at odd n={n}"
    if complex_poset.euler_characteristic(4) != 1:
        return False, "chi(P_4) != 1"
    if complex_poset.euler_characteristic(6) != -2:
        return False, "chi(P_6) != -2"
    return True, "reduced Euler characteristic matches closed form"


def check_product_structure(ns: range) -> tuple[bool, str]:
    for n in ns:
        if not complex_poset._product_structure(n, _valid_subsets(n), _valid_subsets(n + 1)):
            return False, f"product decomposition failed at n={n}"
    return True, "poset product decomposition holds"


CHECKS, RANGES = _registry([
    ("downward-closure", check_downward_closure, 3, POSET_CAP),
    ("vertices-and-dimension", check_vertices_and_dimension, 3, POSET_CAP),
    ("face-count-closed-form", check_face_counts, 3, POSET_CAP),
    ("fvector-recurrence", check_fvector_recurrence, 3, 40),
    ("fpolynomial-recurrence", check_fpoly_recurrence, 3, 40),
    ("face-dyck-counts", check_face_dyck_counts, 3, POSET_CAP),
    ("moebius-closed-form", check_moebius, 3, 10),
    ("euler-characteristic", check_euler, 3, 40),
    ("product-structure", check_product_structure, 3, 13),
])
