"""Oracle cross-check suites behind the `verify` CLI subcommand.

Every closed form in the library is checked here against an independent
brute-force path (exhaustive permutation scan, subset scan, poset chain
enumeration, monomial enumeration, series cross-multiplication).  One
result line per check; all comparisons are bit-exact.

Within one run_suite call, what several checks share is computed once
and kept in a memo that the call discards when it ends:
- the faces of P_n as ascending tuples (complex_poset.face_tuples);
- the CP class table of each S_n sweep (perm_core.cp_class_table);
- the down-sets of P_n (complex_poset.down_sets), which the chain oracles
  and the product-structure check read;
- each composition sum chain_count_formula(n, i).
A check called outside run_suite computes all of these afresh.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from collections.abc import Callable
from itertools import combinations, permutations
from math import factorial

from . import (
    chains_zeta,
    cli_oracles,
    complex_poset,
    exact_algebra,
    hilbert_algebras,
    hvector,
    peak_sets,
    perm_core,
)
from .exact_algebra import ExactPoly
from .peak_sets import PeakSet
from .tables import POSET_CAP

PERM_DEFAULT = 8
MIN_MAX_N = 3  # the complex starts at n = 3; below it some checks cover no n


CheckResult = namedtuple("CheckResult", "suite name ok detail")


# The run memo of the module docstring; None outside run_suite, so a
# check called on its own computes afresh.
_memo: dict | None = None


def _memoized(key, build):
    if _memo is None:
        return build()
    if key not in _memo:
        _memo[key] = build()
    return _memo[key]


def _valid_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """Every face of P_n as an ascending tuple, in face_tuples order."""
    return _memoized(("valid_subsets", n), lambda: tuple(complex_poset.face_tuples(n)))


def _cp_class_table(n: int) -> dict[tuple[int, ...], int]:
    return _memoized(("cp_class_table", n), lambda: perm_core.cp_class_table(n))


def _down_sets(n: int) -> list[list[int]]:
    """complex_poset.down_sets of the faces of P_n, indexed as _valid_subsets(n)."""
    return _memoized(("down_sets", n), lambda: complex_poset.down_sets(_valid_subsets(n)))


def _chain_count_formula(n: int, i: int) -> int:
    return _memoized(("chain_count_formula", n, i),
                     lambda: chains_zeta.chain_count_formula(n, i))


# ---------------------------------------------------------------------------
# perm suite


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
            if n <= 2 and cp:
                return False, f"nonempty CP at n={n}"
            if any(v < 3 or v > n for v in cp):
                return False, f"CP value outside [3,n] for {vals}"
            ends = {vals[0], vals[-1]} if n else set()
            if set(cp) & ends:
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


# ---------------------------------------------------------------------------
# peak-set suite


def check_dyck_roundtrip(max_n: int) -> tuple[bool, str]:
    top = min(POSET_CAP, max_n + 6)
    for n in range(3, top + 1):
        for s in _valid_subsets(n):
            ps = PeakSet(n, s)
            if peak_sets.from_dyck(n, peak_sets.to_dyck(ps)) != ps:
                return False, f"round trip failed at n={n}, S={s}"
    return True, f"from_dyck(to_dyck(s)) = s exhaustively, n <= {top}"


def check_dyck_bijection(max_n: int) -> tuple[bool, str]:
    top = min(POSET_CAP, max_n + 6)
    for n in range(3, top + 1):
        words = {peak_sets.to_dyck(PeakSet(n, s)).letters for s in _valid_subsets(n)}
        expected = set(peak_sets.enumerate_left_factors(n - 1))
        if words != expected:
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


# ---------------------------------------------------------------------------
# complex suite


def check_downward_closure(max_n: int) -> tuple[bool, str]:
    top = min(POSET_CAP, max_n + 6)
    for n in range(3, top + 1):
        faces = _valid_subsets(n)
        face_set = set(faces)
        for s in faces:
            for k in range(len(s)):
                for t in combinations(s, k):
                    if t not in face_set:
                        return False, f"subset {t} of face {s} invalid at n={n}"
    return True, f"every subset of a face is a face, n <= {top}"


def check_vertices_and_dimension(max_n: int) -> tuple[bool, str]:
    top = min(POSET_CAP, max_n + 6)
    for n in range(3, top + 1):
        for x in range(1, n + 1):
            if peak_sets.is_valid(n, (x,)) != (3 <= x <= n):
                return False, f"vertex criterion failed at n={n}, x={x}"
        d = peak_sets.max_peak_count(n) - 1
        if not complex_poset.faces(n, d) or complex_poset.faces(n, d + 1):
            return False, f"dimension mismatch at n={n}"
    return True, f"vertex set [3,n], dim = floor((n-1)/2)-1, n <= {top}"


def check_face_counts(max_n: int) -> tuple[bool, str]:
    top = min(POSET_CAP, max_n + 6)
    for n in range(3, top + 1):
        row = tuple(complex_poset.face_count(n, i)
                    for i in range(-1, peak_sets.max_peak_count(n)))
        sizes = Counter(len(s) for s in _valid_subsets(n))
        for i, count in enumerate(row, start=-1):
            if count != sizes[i + 1]:
                return False, f"closed form != enumeration at n={n}, dim={i}"
        if complex_poset.face_table(n) != row:
            return False, f"face_table != face_count row at n={n}"
    return True, f"face_count = |faces| for all dims, n <= {top}"


def check_fvector_recurrence(max_n: int) -> tuple[bool, str]:
    for n in range(3, 41):
        if complex_poset.face_counts_by_recurrence(n) != complex_poset.face_table(n):
            return False, f"recurrence row != closed form at n={n}"
    return True, "f-vector recurrence = closed form, n <= 40"


def check_fpoly_recurrence(max_n: int) -> tuple[bool, str]:
    for n in range(3, 41):
        if complex_poset.f_polynomial_by_recurrence(n) != complex_poset.f_polynomial(n):
            return False, f"f-polynomial recurrence mismatch at n={n}"
    return True, "f-polynomial recurrence = closed form, n <= 40"


def check_face_dyck_counts(max_n: int) -> tuple[bool, str]:
    top = min(POSET_CAP, max_n + 6)
    for n in range(3, top + 1):
        factors = peak_sets.enumerate_left_factors(n - 1)
        sizes = Counter(len(s) for s in _valid_subsets(n))
        for i in range(-1, peak_sets.max_peak_count(n)):
            by_dyck = sum(1 for w in factors if w.count("D") == i + 1)
            if sizes[i + 1] != by_dyck:
                return False, f"Dyck count mismatch at n={n}, dim={i}"
    return True, f"faces of dim i <-> left factors with i+1 D's, n <= {top}"


def check_moebius(max_n: int) -> tuple[bool, str]:
    top = min(10, max_n + 2)
    for n in range(3, top + 1):
        faces = [(s, PeakSet(n, s), frozenset(s)) for s in _valid_subsets(n)]
        for s, lower, s_set in faces:
            # the recursion's values mu(s, u) are shared by every upper face t
            recursive = complex_poset._moebius_from(n, s_set)
            for t, upper, t_set in faces:
                if s_set <= t_set:
                    if complex_poset.moebius(n, lower, upper) != recursive(t_set):
                        return False, f"moebius mismatch at n={n}, {s}<{t}"
    return True, f"(-1)^(|T|-|S|) = recursive Moebius on every interval, n <= {top}"


def check_euler(max_n: int) -> tuple[bool, str]:
    for n in range(3, 41):
        f = complex_poset.face_counts_by_recurrence(n)
        by_recurrence = sum((-1) ** (m + 1) * p for m, p in enumerate(f))
        closed = complex_poset.euler_characteristic_closed_form(n)
        if by_recurrence != closed:
            return False, f"recurrence f-vector gives chi={by_recurrence} != closed form {closed} at n={n}"
        if complex_poset.euler_characteristic(n) != closed:
            return False, f"euler_characteristic != closed form at n={n}"
        if n % 2 and by_recurrence != 0:
            return False, f"nonzero chi at odd n={n}"
    if complex_poset.euler_characteristic(4) != 1:
        return False, "chi(P_4) != 1"
    if complex_poset.euler_characteristic(6) != -2:
        return False, "chi(P_6) != -2"
    return True, "reduced Euler characteristic matches closed form, n <= 40"


def check_product_structure(max_n: int) -> tuple[bool, str]:
    top = min(13, max_n + 5)
    for n in range(3, top + 1):
        if not complex_poset._product_structure(n, _valid_subsets(n), _down_sets(n),
                                                _valid_subsets(n + 1), _down_sets(n + 1)):
            return False, f"product decomposition failed at n={n}"
    return True, f"poset product decomposition holds, n <= {top}"


# ---------------------------------------------------------------------------
# chain/zeta suite


def check_zeta_oracle(max_n: int) -> tuple[bool, str]:
    top = min(PERM_DEFAULT, max_n)
    for n in range(3, top + 1):
        counts = chains_zeta._poset_chain_counts(_down_sets(n), 5, strict=False)
        for i in range(2, 7):
            if chains_zeta.zeta(n, i) != counts[i - 1]:
                return False, f"zeta mismatch at n={n}, i={i}"
    return True, f"zeta = multichain oracle, n <= {top}, i <= 6"


def check_zeta_recurrence(max_n: int) -> tuple[bool, str]:
    for n in range(3, 13):
        for i in range(2, 7):
            correction = exact_algebra.exact_quotient(
                exact_algebra.epsilon_odd(n) * 2 * (i - 1) ** ((n + 1) // 2)
                * exact_algebra.binomial(n - 1, (n - 1) // 2),
                n + 1, f"zeta recurrence correction at n={n}, i={i}")
            if chains_zeta.zeta(n + 1, i) != i * chains_zeta.zeta(n, i) - correction:
                return False, f"zeta recurrence failed at n={n}, i={i}"
    return True, "zeta recurrence with parity correction, n <= 12, i <= 6"


def check_chain_formula(max_n: int) -> tuple[bool, str]:
    top = min(12, max_n + 4)
    for n in range(3, top + 1):
        counts = chains_zeta._poset_chain_counts(_down_sets(n), 4, strict=True)
        for i in range(1, 5):
            formula = _chain_count_formula(n, i)
            oracle = counts[i] if i < len(counts) else 0
            if formula != oracle:
                return False, f"chain count mismatch at (n={n}, i={i}): formula {formula}, oracle {oracle}"
    return True, f"multinomial chain formula = strict-chain oracle, n <= {top}, i <= 4"


def check_chain_counts(max_n: int) -> tuple[bool, str]:
    top = min(12, max_n + 4)
    for n in range(3, top + 1):
        counts = chains_zeta.chain_counts(n)
        for i in range(1, peak_sets.max_peak_count(n) + 4):
            fast = counts[i] if i < len(counts) else 0
            formula = _chain_count_formula(n, i)
            if fast != formula:
                return False, f"chain count mismatch at (n={n}, i={i}): inversion {fast}, composition sum {formula}"
    return True, f"binomial-inversion chain counts = composition sum, n <= {top}, i <= D+3"


def check_chain_formula_elements(max_n: int) -> tuple[bool, str]:
    for n in range(3, 21):
        if _chain_count_formula(n, 1) != peak_sets.count_valid(n):
            return False, f"element count mismatch at n={n}"
    return True, "chain formula at i=1 counts the faces, n <= 20"


def check_zeta_from_chains(max_n: int) -> tuple[bool, str]:
    top = min(10, max_n + 2)
    for n in range(3, top + 1):
        for i in range(2, 7):
            recon = sum(
                _chain_count_formula(n, j - 1) *
                exact_algebra.binomial(i - 2, j - 2)
                for j in range(2, peak_sets.max_peak_count(n) + 4)
            )
            if recon != chains_zeta.zeta(n, i):
                return False, f"chain reconstruction of zeta failed at n={n}, i={i}"
    return True, f"chain counts reconstruct zeta, n <= {top}, i <= 6"


def check_fpoly_from_chains(max_n: int) -> tuple[bool, str]:
    top = min(12, max_n + 4)
    for n in range(3, top + 1):
        rebuilt = chains_zeta._f_polynomial_from_counts(n, _chain_count_formula)
        if rebuilt != complex_poset.f_polynomial(n):
            return False, f"chain reconstruction of f-polynomial failed at n={n}"
    return True, f"f-polynomial rebuilt from chain counts, n <= {top}"


def check_zeta_polynomial(max_n: int) -> tuple[bool, str]:
    for n in range(3, 13):
        zp = chains_zeta.zeta_polynomial(n)
        for i in range(2, 7):
            if zp.eval(i) != chains_zeta.zeta(n, i):
                return False, f"zeta polynomial eval mismatch at n={n}, i={i}"
    return True, "zeta polynomial evaluates to zeta, n <= 12, i <= 6"


# ---------------------------------------------------------------------------
# h-vector suite


def check_h_consistency(max_n: int) -> tuple[bool, str]:
    for n in range(3, 41):
        shifted = exact_algebra.poly_shift(complex_poset.f_polynomial(n))
        top = peak_sets.max_peak_count(n)
        closed = tuple(hvector.h_entry(n, i) for i in range(top + 1))
        from_poly = tuple(shifted.coeff(top - i) for i in range(top + 1))
        if closed != from_poly:
            return False, f"closed form != shifted f-polynomial at n={n}"
        if hvector.h_table(n) != closed:
            return False, f"h_table != h_entry row at n={n}"
        if hvector.h_polynomial(n) != shifted:
            return False, f"h_polynomial != shifted f-polynomial at n={n}"
        if hvector.h_recurrence_table(n) != closed:
            return False, f"recurrence != closed form at n={n}"
        if hvector.h_polynomial_by_recurrence(n) != shifted:
            return False, f"polynomial recurrence mismatch at n={n}"
    return True, "h closed form = recurrence = P_n(x-1) coefficients, n <= 40"


def check_h_dyck(max_n: int) -> tuple[bool, str]:
    top = min(16, max_n + 8)
    for n in range(3, top + 1):
        for i in range(0, peak_sets.max_peak_count(n) + 1):
            if hvector.h_entry(n, i) != hvector.h_dyck_oracle(n, i):
                return False, f"Dyck endpoint count mismatch at n={n}, i={i}"
    return True, f"h entries = left-factor endpoint counts, n <= {top}"


def check_h_parity_shift(max_n: int) -> tuple[bool, str]:
    for n in range(4, 21, 2):
        if hvector.h_polynomial(n + 1) != ExactPoly.x() * hvector.h_polynomial(n):
            return False, f"even-n shift failed at n={n}"
    return True, "H_{n+1} = x H_n for even n <= 20"


def check_h_sum(max_n: int) -> tuple[bool, str]:
    for n in range(3, 41):
        if hvector.h_polynomial(n).eval(1) != complex_poset.f_polynomial(n).eval(0):
            return False, f"H_n(1) != P_n(0) at n={n}"
    return True, "H_n(1) = P_n(0) (top face count), n <= 40"


# ---------------------------------------------------------------------------
# generating-series suite


def check_f_series(max_n: int) -> tuple[bool, str]:
    series = complex_poset.f_generating_series(20)
    if not series.coeffs[2].is_zero():
        return False, "nonzero y^2 coefficient"
    for n in range(3, 21):
        if series.coeffs[n] != complex_poset.f_polynomial(n):
            return False, f"series coefficient != f-polynomial at n={n}"
    return True, "corrected P(x,y) matches f-polynomials, 3 <= n <= 20"


def check_h_series(max_n: int) -> tuple[bool, str]:
    series = hvector.h_generating_series(20)
    for n in range(3, 21):
        if series.coeffs[n] != hvector.h_polynomial(n):
            return False, f"series coefficient != h-polynomial at n={n}"
    return True, "corrected H(x,y) matches h-polynomials, 3 <= n <= 20"


def _check_printed_form(which: str, report: dict | None) -> tuple[bool, str]:
    """The cross-multiplied report of the printed form, against what series prints."""
    form = f"printed {which}(x,y) form"
    if report != cli_oracles.PRINTED_FORM_REPORTS[which]:
        return False, (f"series --which {which} prints a pinned {form} report "
                       "that differs from the cross-multiplied one")
    if report is None:
        return True, f"{form} matches (no discrepancy)"
    return True, (
        f"{form} DISCREPANCY documented: first mismatch at "
        f"y^{report['first_mismatch_y_order']}; {report['note']}"
    )


def check_printed_f_form(max_n: int) -> tuple[bool, str]:
    return _check_printed_form("P", complex_poset.printed_f_series_discrepancy())


def check_printed_h_form(max_n: int) -> tuple[bool, str]:
    return _check_printed_form("H", hvector.printed_h_series_discrepancy())


# ---------------------------------------------------------------------------
# Hilbert suite


def check_dim_a_oracle(max_n: int) -> tuple[bool, str]:
    top = min(7, max_n)
    for n in range(3, top + 1):
        for i in range(0, 6):
            if hilbert_algebras.dim_a(n, i) != \
                    hilbert_algebras.standard_monomial_oracle(n, "A", i):
                return False, f"dim_a mismatch at n={n}, degree={i}"
    return True, f"dim_a = monomial oracle, n <= {top}, degree <= 5"


def check_dim_b_oracle(max_n: int) -> tuple[bool, str]:
    top = min(7, max_n)
    for n in range(3, top + 1):
        for i in range(0, peak_sets.max_peak_count(n) + 3):
            if hilbert_algebras.dim_b(n, i) != \
                    hilbert_algebras.standard_monomial_oracle(n, "B", i):
                return False, f"dim_b mismatch at n={n}, degree={i}"
    return True, f"dim_b = squarefree monomial oracle, n <= {top}, all degrees"


def check_hilbert_polynomial(max_n: int) -> tuple[bool, str]:
    for n in range(3, 13):
        p = hilbert_algebras.hilbert_polynomial_a(n)
        for i in range(1, 9):
            if p.eval(i) != hilbert_algebras.dim_a(n, i):
                return False, f"Hilbert polynomial mismatch at n={n}, i={i}"
    return True, "Hilbert polynomial of A matches dims, n <= 12, i <= 8"


def check_numerator_form(max_n: int) -> tuple[bool, str]:
    for n in range(3, 13):
        numerator, e = hilbert_algebras.numerator_a(n)
        if e != (n + 1) // 2:
            return False, f"unexpected exponent at n={n}"
        if any(c.denominator != 1 for c in numerator.coeffs):
            return False, f"non-integer numerator at n={n}"
        # re-expand numerator/(1-x)^e to order 12
        expanded = [
            sum(numerator.coeff(j) *
                exact_algebra.binomial(k - j + e - 1, e - 1)
                for j in range(min(k, numerator.degree) + 1))
            for k in range(13)
        ]
        if expanded != list(hilbert_algebras.hilbert_series_a(n, 12)):
            return False, f"rational form does not reproduce the series at n={n}"
    return True, "numerator/(1-x)^floor((n+1)/2) reproduces the A-series, n <= 12"


def check_hilbert_initial(max_n: int) -> tuple[bool, str]:
    if hilbert_algebras.hilbert_series_a(3, 12) != tuple(i + 1 for i in range(13)):
        return False, "A-series at n=3 is not 1/(1-x)^2"
    if hilbert_algebras.hilbert_series_a(4, 12) != tuple(2 * i + 1 for i in range(13)):
        return False, "A-series at n=4 is not (1+x)/(1-x)^2"
    return True, "initial A-series 1/(1-x)^2 and (1+x)/(1-x)^2 reproduced to order 12"


def check_series_recurrences(max_n: int) -> tuple[bool, str]:
    for n in range(4, 11, 2):
        if not hilbert_algebras.verify_series_recurrence_a(n):
            return False, f"even-n series recurrence failed at n={n}"
    for n in range(3, 10, 2):
        if not hilbert_algebras.verify_series_recurrence_a(n):
            return False, f"odd-n derivative relation failed at n={n}"
    return True, "A-series derivative recurrences hold as truncated identities, n <= 9/10"


def check_numerator_recurrences(max_n: int) -> tuple[bool, str]:
    for n in range(4, 11, 2):
        if not hilbert_algebras.verify_numerator_recurrence_a(n):
            return False, f"even-n numerator recurrence failed at n={n}"
    for n in range(3, 10, 2):
        if not hilbert_algebras.verify_numerator_recurrence_a(n):
            return False, f"odd-n numerator relation failed at n={n}"
    return True, "numerator recurrences hold exactly, n <= 9/10"


def check_series_b(max_n: int) -> tuple[bool, str]:
    for n in range(3, 13):
        s = hilbert_algebras.hilbert_series_b(n)
        if s.degree > peak_sets.max_peak_count(n) + 1:
            return False, f"B-series degree too large at n={n}"
        if s.coeff(1) != peak_sets.count_valid(n):
            return False, f"B-series x^1 coefficient wrong at n={n}"
    return True, "B-series degree bound and face count at x^1, n <= 12"


def check_nonvanishing_criterion(max_n: int) -> tuple[bool, str]:
    rng = random.Random(20240817)
    for n in range(3, 7):
        fs = [frozenset(s) for s in _valid_subsets(n)]
        for _ in range(1000):
            size = rng.randint(1, 4)
            idxs = [rng.randrange(len(fs)) for _ in range(size)]
            comparable = all(
                fs[a] <= fs[b] or fs[b] <= fs[a]
                for a, b in combinations(set(idxs), 2)
            )
            chain = sorted((fs[k] for k in idxs), key=lambda s: (len(s), sorted(s)))
            sortable = all(a <= b for a, b in zip(chain, chain[1:]))
            if comparable != sortable:
                return False, f"nonvanishing criterion failed at n={n}, idxs={idxs}"
    return True, "multichain <=> pairwise-comparable support, 1000 samples per n <= 6"


SUITES: dict[str, list[tuple[str, Callable[[int], tuple[bool, str]]]]] = {
    "perm": [
        ("cp-classes-partition", check_partition),
        ("validity-criterion-equivalence", check_validity_equivalence),
        ("cp-value-window", check_peak_window),
        ("witness-realizes-set", check_witness),
    ],
    "peaksets": [
        ("dyck-round-trip", check_dyck_roundtrip),
        ("dyck-bijection-onto", check_dyck_bijection),
        ("count-valid-exhaustive", check_count_valid),
        ("extension-parity-law", check_extension_law),
    ],
    "complex": [
        ("downward-closure", check_downward_closure),
        ("vertices-and-dimension", check_vertices_and_dimension),
        ("face-count-closed-form", check_face_counts),
        ("fvector-recurrence", check_fvector_recurrence),
        ("fpolynomial-recurrence", check_fpoly_recurrence),
        ("face-dyck-counts", check_face_dyck_counts),
        ("moebius-closed-form", check_moebius),
        ("euler-characteristic", check_euler),
        ("product-structure", check_product_structure),
    ],
    "chains": [
        ("zeta-vs-multichain-oracle", check_zeta_oracle),
        ("zeta-recurrence", check_zeta_recurrence),
        ("chain-formula-vs-oracle", check_chain_formula),
        ("chain-counts-vs-composition-sum", check_chain_counts),
        ("chain-formula-element-count", check_chain_formula_elements),
        ("zeta-from-chain-counts", check_zeta_from_chains),
        ("fpolynomial-from-chains", check_fpoly_from_chains),
        ("zeta-polynomial-eval", check_zeta_polynomial),
    ],
    "hvector": [
        ("h-closed-recurrence-shift", check_h_consistency),
        ("h-dyck-endpoint-oracle", check_h_dyck),
        ("h-even-parity-shift", check_h_parity_shift),
        ("h-sum-identity", check_h_sum),
    ],
    "series": [
        ("f-series-coefficients", check_f_series),
        ("h-series-coefficients", check_h_series),
        ("printed-f-series-form", check_printed_f_form),
        ("printed-h-series-form", check_printed_h_form),
    ],
    "hilbert": [
        ("dim-a-monomial-oracle", check_dim_a_oracle),
        ("dim-b-monomial-oracle", check_dim_b_oracle),
        ("hilbert-polynomial-a", check_hilbert_polynomial),
        ("numerator-rational-form", check_numerator_form),
        ("initial-a-series", check_hilbert_initial),
        ("a-series-recurrences", check_series_recurrences),
        ("numerator-recurrences", check_numerator_recurrences),
        ("b-series-shape", check_series_b),
        ("nonvanishing-criterion", check_nonvanishing_criterion),
    ],
}


def run_suite(suite: str, max_n: int = PERM_DEFAULT) -> list[CheckResult]:
    """Run one named suite (or 'all'); returns one result per check."""
    if max_n < MIN_MAX_N:
        raise ValueError(f"max_n must be >= {MIN_MAX_N} (got {max_n})")
    names = list(SUITES) if suite == "all" else [suite]
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {unknown}; choose from {list(SUITES)} or 'all'")
    global _memo
    _memo = {}
    results = []
    try:
        for s in names:
            for name, fn in SUITES[s]:
                try:
                    ok, detail = fn(max_n)
                except Exception as exc:  # a crash is a failure, not an abort
                    ok, detail = False, f"raised {type(exc).__name__}: {exc}"
                results.append(CheckResult(s, name, ok, detail))
    finally:
        _memo = None
    return results
