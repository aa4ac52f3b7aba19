"""The verify registry: the memo of one run_suite call, the suite lists
that run_suite reads, and one test id per registry check, pinning its
result line at --max-n 8."""

import gc
import io
import random
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

from circpeaks import (
    chains_zeta, cli, cli_oracles, complex_poset, hvector, peak_sets, perm_core, poset_core,
    verify,
)
from circpeaks.checks import chains, perm
from circpeaks.checks import complex as complex_checks
from circpeaks.checks import hilbert as hilbert_checks
from circpeaks.checks import hvector as hvector_checks
from circpeaks.checks import peaksets as peaksets_checks
from circpeaks.checks import series as series_checks
from circpeaks.exact_algebra import ExactPoly
from circpeaks.peak_sets import PeakSet, count_valid

# (suite, name, detail, first, last) of every check of run_suite("all", 8).
# first and last are the ends of the range of n the check covered, so a
# range that shrinks fails here.
EXPECTED_ALL_8 = [
    ("perm", "cp-classes-partition",
     "CP classes partition S_n", 1, 8),
    ("perm", "validity-criterion-equivalence",
     "is_valid <=> CP class nonempty, all S", 3, 8),
    ("perm", "cp-value-window",
     "CP values lie in [3,n], interior positions only", 1, 7),
    ("perm", "witness-realizes-set",
     "witness realizes every valid set", 3, 14),
    ("peaksets", "dyck-round-trip",
     "from_dyck(to_dyck(s)) = s exhaustively", 3, 14),
    ("peaksets", "dyck-bijection-onto",
     "bijection onto left factors of length n-1", 3, 14),
    ("peaksets", "count-valid-exhaustive",
     "count_valid = exhaustive subset count", 3, 14),
    ("peaksets", "extension-parity-law",
     "adjoining n+1 follows the parity law", 3, 13),
    ("complex", "downward-closure",
     "every subset of a face is a face", 3, 14),
    ("complex", "vertices-and-dimension",
     "vertex set [3,n], dim = floor((n-1)/2)-1", 3, 14),
    ("complex", "face-count-closed-form",
     "face_count = |faces| for all dims and 0 past the top", 3, 14),
    ("complex", "fvector-recurrence",
     "f-vector recurrence = closed form", 3, 40),
    ("complex", "fpolynomial-recurrence",
     "f-polynomial recurrence = closed form", 3, 40),
    ("complex", "face-dyck-counts",
     "faces of dim i <-> left factors with i+1 D's", 3, 14),
    ("complex", "moebius-closed-form",
     "(-1)^(|T|-|S|) = recursive Moebius on every interval", 3, 10),
    ("complex", "euler-characteristic",
     "reduced Euler characteristic matches closed form", 3, 40),
    ("complex", "product-structure",
     "poset product decomposition holds", 3, 13),
    ("chains", "zeta-vs-multichain-oracle",
     "zeta = multichain oracle, i <= 6", 3, 8),
    ("chains", "zeta-recurrence",
     "zeta recurrence with parity correction, i <= 6", 3, 12),
    ("chains", "chain-formula-vs-oracle",
     "multinomial chain formula = strict-chain oracle, i <= D+3", 3, 12),
    ("chains", "chain-counts-vs-composition-sum",
     "binomial-inversion chain counts = composition sum, i <= D+3", 3, 16),
    ("chains", "chain-formula-element-count",
     "chain formula at i=1 counts the faces", 3, 20),
    ("chains", "zeta-from-chain-counts",
     "chain counts reconstruct zeta, i <= 6", 3, 10),
    ("chains", "fpolynomial-from-chains",
     "f-polynomial rebuilt from chain counts", 3, 12),
    ("chains", "zeta-polynomial-eval",
     "zeta polynomial evaluates to zeta, i <= 6", 3, 12),
    ("hvector", "h-closed-recurrence-shift",
     "h closed form = recurrence = P_n(x-1) coefficients", 3, 60),
    ("hvector", "h-dyck-endpoint-oracle",
     "h entries = left-factor endpoint counts", 3, 16),
    ("hvector", "h-even-parity-shift",
     "H_{n+1} = x H_n for even n", 4, 20),
    ("hvector", "h-sum-identity",
     "H_n(1) = P_n(0) (top face count)", 3, 40),
    ("series", "f-series-coefficients",
     "corrected P(x,y) matches f-polynomials", 3, 60),
    ("series", "h-series-coefficients",
     "corrected H(x,y) matches h-polynomials", 3, 60),
    ("series", "printed-f-series-form",
     "printed P(x,y) form DISCREPANCY documented: first mismatch at y^4; "
     "printed denominator x-(x+1)y^2 should be x-(x+1)^2 y^2 and the numerator "
     "factor x(x+2)-xC(y^2) should be (x+1)((x+1)-C(y^2)); the shipped series "
     "uses the corrected form, which matches the recurrence-generated "
     "polynomials on the whole tested range",
     None, None),
    ("series", "printed-h-series-form",
     "printed H(x,y) form DISCREPANCY documented: first mismatch at y^4; "
     "inherits the f-series misprint under x -> x-1; the shipped series uses "
     "the corrected form (x-1) - x^2 y^2 denominator",
     None, None),
    ("hilbert", "dim-a-monomial-oracle",
     "dim_a = monomial oracle, degree <= 5", 3, 8),
    ("hilbert", "dim-b-monomial-oracle",
     "dim_b = squarefree monomial oracle, all degrees", 3, 8),
    ("hilbert", "hilbert-polynomial-a",
     "Hilbert polynomial of A matches dims, 0 <= i <= 8", 3, 20),
    ("hilbert", "numerator-rational-form",
     "numerator/(1-x)^floor((n+1)/2) reproduces the A-series", 3, 14),
    ("hilbert", "initial-a-series",
     "initial A-series 1/(1-x)^2 (n=3) and (1+x)/(1-x)^2 (n=4) reproduced to order 12", 3, 4),
    ("hilbert", "a-series-recurrences",
     "A-series derivative recurrences hold as truncated identities", 3, 12),
    ("hilbert", "numerator-recurrences",
     "numerator recurrences hold exactly", 3, 12),
    ("hilbert", "b-series-shape",
     "B-series degree <= D+1, dim_b(n, D+2) = 0 and face count at x^1", 3, 14),
    ("hilbert", "nonvanishing-criterion",
     "multichain <=> pairwise-comparable support, all 1257 multisets of 1-4 faces", 3, 6),
]


def _count_cp_class_tables(monkeypatch):
    calls = []
    real = perm_core.cp_class_table

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(perm_core, "cp_class_table", counted)
    return calls


def _count_left_factor_enumerations(monkeypatch):
    lengths = []
    real = peak_sets.enumerate_left_factors

    def counted(length):
        lengths.append(length)
        return real(length)

    monkeypatch.setattr(peak_sets, "enumerate_left_factors", counted)
    return lengths


@pytest.mark.parametrize("suite, count", [("hvector", 15), ("complex", 12),
                                          ("peaksets", 12), ("all", 27)])
def test_each_left_factor_length_is_enumerated_once_per_run(monkeypatch, suite, count):
    # Both Dyck laws read one D-count histogram per length, 0 <= length <= 14
    # for h-dyck-endpoint-oracle and 2 <= length <= 13 for face-dyck-counts;
    # dyck-bijection-onto enumerates the words of 2 <= length <= 13 itself.
    lengths = _count_left_factor_enumerations(monkeypatch)
    results = verify.run_suite(suite, 8)
    assert all(r.ok for r in results)
    assert len(lengths) == count
    if suite != "all":
        assert len(set(lengths)) == count


def test_witness_check_leaves_no_tuples_in_free_lists(monkeypatch):
    # Permutation once built its values by tuple(map(...)): a 10-slot
    # tuple, resized, which when freed parked on the free list of its new
    # size.  Over these faces that held about 500 KB (Python 3.11), memory
    # that only gc.collect(), which clears the free lists, gave back.
    monkeypatch.setattr(verify, "_memo", {})
    ns = range(3, 15)
    gc.collect()  # start from empty free lists
    tracemalloc.start()
    try:
        for n in ns:
            verify._valid_subsets(n)
        faces = tracemalloc.get_traced_memory()[0]
        assert perm.check_witness(ns)[0]
        left = tracemalloc.get_traced_memory()[0] - faces
    finally:
        tracemalloc.stop()
    assert left < 64 * 1024


def test_perm_suite_sweeps_each_symmetric_group_once(monkeypatch):
    calls = _count_cp_class_tables(monkeypatch)
    results = verify.run_suite("perm", 8)
    assert all(r.ok for r in results)
    assert sorted(calls) == list(range(1, 9))


def test_memo_lives_for_one_run_suite_call(monkeypatch):
    calls = _count_cp_class_tables(monkeypatch)
    verify.run_suite("perm", 8)
    assert verify._memo is None
    verify.run_suite("perm", 8)
    assert sorted(calls) == sorted(2 * list(range(1, 9)))


def test_a_check_that_raises_fails_and_the_run_goes_on(monkeypatch):
    def crashes(ns):
        raise ValueError("no such face")

    checks, ranges = verify._registry([
        ("crashes", crashes, 3, 5), ("after", lambda ns: (True, f"ran over {ns}"))])
    monkeypatch.setattr(verify, "_suite",
                        lambda suite: SimpleNamespace(CHECKS=checks, RANGES=ranges))
    out = io.StringIO()
    assert verify.report("perm", 8, out) == 2
    assert out.getvalue() == ("FAIL  perm/crashes: raised ValueError: no such face [3 <= n <= 5]\n"
                              "PASS  perm/after: ran over None\n"
                              "1/2 checks passed\n")


def test_report_marks_a_range_stopped_at_its_cap(monkeypatch):
    # At --max-n 200 a range reaches top + 192: past the cap 200 of the
    # first check, short of the cap 300 of the second.
    checks, ranges = verify._registry([
        ("capped", lambda ns: (True, "ok"), 3, 14, 200),
        ("uncapped", lambda ns: (True, "ok"), 3, 8, 300)])
    monkeypatch.setattr(verify, "_suite",
                        lambda suite: SimpleNamespace(CHECKS=checks, RANGES=ranges))
    assert [r.cap for r in verify.run_suite("perm", 200)] == [200, None]
    out = io.StringIO()
    assert verify.report("perm", 200, out) == 0
    assert out.getvalue() == ("PASS  perm/capped: ok [3 <= n <= 200, capped]\n"
                              "PASS  perm/uncapped: ok [3 <= n <= 200]\n"
                              "2/2 checks passed\n")


def test_check_outside_run_suite_computes_afresh(monkeypatch):
    calls = _count_cp_class_tables(monkeypatch)
    lengths = _count_left_factor_enumerations(monkeypatch)
    assert perm.check_partition(range(1, 9))[0]
    assert perm.check_partition(range(1, 9))[0]
    assert len(calls) == 16
    # one histogram per (n, i) read, 70 of them over 3 <= n <= 16
    assert hvector_checks.check_h_dyck(range(3, 17))[0]
    assert hvector_checks.check_h_dyck(range(3, 17))[0]
    assert len(lengths) == 2 * 70


def test_h_dyck_check_at_its_cap_stays_within_the_left_factor_cap():
    # At n = 20 the longest walk has n//2 + D - 1 = 18 letters.
    first, top, cap = hvector_checks.RANGES["h-dyck-endpoint-oracle"]
    assert (top, cap) == (16, 20)
    assert cap // 2 + peak_sets.max_peak_count(cap) - 1 <= peak_sets.LEFT_FACTOR_LENGTH_CAP
    assert hvector_checks.check_h_dyck(range(first, cap + 1))[0]


def test_h_dyck_check_catches_a_wrong_h_entry(monkeypatch):
    # h_{16,7} is the Catalan number c_7, the left factors of length 14
    # back at height 0: the last entry of the check's range.
    real = hvector.h_entry
    monkeypatch.setattr(hvector, "h_entry",
                        lambda n, i: real(n, i) + ((n, i) == (16, 7)))
    results = {r.name: r for r in verify.run_suite("hvector", 8)}
    assert not results["h-dyck-endpoint-oracle"].ok
    assert results["h-dyck-endpoint-oracle"].detail == \
        "Dyck endpoint count mismatch at n=16, i=7"


@pytest.mark.parametrize("change", [
    lambda words: words + words[-1:],  # an extra copy, which set equality let pass
    lambda words: words[1:],  # no image of the empty face, the word U^(n-1) that sorts last
], ids=["repeated", "missing-last"])
def test_dyck_bijection_check_catches_a_wrong_image_list(monkeypatch, change):
    # The sorted images are compared word by word with the left factors.
    real = peaksets_checks._dyck_words
    monkeypatch.setattr(peaksets_checks, "_dyck_words",
                        lambda n: change(real(n)) if n == 9 else real(n))
    assert peaksets_checks.check_dyck_bijection(range(3, 15)) == \
        (False, "images != left factors at n=9")


def test_downward_closure_catches_a_rejected_subface(monkeypatch):
    real = poset_core._first_violation_sorted
    monkeypatch.setattr(poset_core, "_first_violation_sorted",
                        lambda elems: (1, 3, 3) if tuple(elems) == (3,) else real(elems))
    ok, detail = complex_checks.check_downward_closure(range(3, 15))
    assert not ok
    assert detail == "subset (3,) of face (3, 5) invalid at n=5"


@pytest.mark.parametrize("n", [9, 14])
def test_downward_closure_catches_a_dropped_face(monkeypatch, n):
    # (3, 5) lies below (3, 5, 7) at n >= 7, so it is not maximal.
    real = poset_core.face_tuples
    monkeypatch.setattr(poset_core, "face_tuples", lambda k, dim=None: [
        f for f in real(k, dim) if not (k == n and f == (3, 5))])
    ok, detail = complex_checks.check_downward_closure(range(3, 15))
    assert not ok
    assert detail == f"subset (3, 5) of face (3, 5, 7) invalid at n={n}"


def test_dyck_round_trip_catches_a_dropped_element(monkeypatch):
    real = peak_sets.from_dyck
    monkeypatch.setattr(peak_sets, "from_dyck",
                        lambda n, w: PeakSet(n, real(n, w).elements[:-1]))
    results = {r.name: r for r in verify.run_suite("peaksets", 8)}
    assert not results["dyck-round-trip"].ok
    assert results["dyck-round-trip"].detail == "round trip failed at n=3, S=(3,)"


def test_euler_check_requires_an_int(monkeypatch):
    # An Euler characteristic that equals the closed form but is not an int
    # breaks the integer contract.
    real = complex_poset.euler_characteristic
    monkeypatch.setattr(complex_poset, "euler_characteristic", lambda n: float(real(n)))
    ok, detail = complex_checks.check_euler(range(3, 41))
    assert not ok
    assert detail == "euler_characteristic 0.0 != closed form at n=3"


def test_nonvanishing_enumeration_holds_every_seeded_draw():
    # The draws of the sampled check that the enumeration replaced.
    rng = random.Random(20240817)
    for n in range(3, 7):
        multisets = set(hilbert_checks._face_multisets(count_valid(n)))
        assert len(multisets) == {3: 14, 4: 34, 5: 209, 6: 1000}[n]
        for _ in range(1000):
            size = rng.randint(1, 4)
            idxs = [rng.randrange(count_valid(n)) for _ in range(size)]
            assert tuple(sorted(idxs)) in multisets


def test_face_count_checks_read_the_run_face_list(monkeypatch):
    monkeypatch.setattr(verify, "_memo", {})
    for n in range(3, 15):
        verify._valid_subsets(n)
    calls = []
    real = poset_core._first_violation_sorted
    monkeypatch.setattr(poset_core, "_first_violation_sorted",
                        lambda elems: calls.append(elems) or real(elems))
    assert complex_checks.check_face_counts(range(3, 15))[0]
    assert complex_checks.check_face_dyck_counts(range(3, 15))[0]
    assert calls == []


def _printed_form_mismatch(a, truth, last=12):
    """(order, lhs, rhs) of the first mismatch of a printed form through y^last."""
    one = ExactPoly.constant(1)
    order, lhs, rhs = series_checks._first_mismatch(a, a * (a - one), a - one, truth, last)
    return order, str(lhs), str(rhs)


def test_pinned_printed_form_reports_are_the_computed_ones():
    # Walked through y^12, past the pinned order, each printed form first
    # fails where its pinned report says, with its coefficients.
    computed = {"P": _printed_form_mismatch(ExactPoly((1, 1)), complex_poset.f_polynomial),
                "H": _printed_form_mismatch(ExactPoly.x(), hvector.h_polynomial)}
    assert computed == {
        which: (report["first_mismatch_y_order"], report["lhs_coefficient"],
                report["rhs_coefficient"])
        for which, report in cli_oracles.PRINTED_FORM_REPORTS.items()}


@pytest.mark.parametrize("k,delta", [(0, 1), (0, -1), (1, 1), (1, -1)])
def test_a_wrong_f_polynomial_changes_the_printed_report(monkeypatch, k, delta):
    # f_polynomial(4) = 2 + x; one coefficient off by one changes the
    # y^4 coefficient of the printed P(x,y), so its check fails.
    real = complex_poset.f_polynomial
    bump = ExactPoly.constant(delta) * ExactPoly((0,) * k + (1,))
    monkeypatch.setattr(complex_poset, "f_polynomial",
                        lambda n: real(n) + bump if n == 4 else real(n))
    pinned = cli_oracles.PRINTED_FORM_REPORTS["P"]
    order, lhs, _ = _printed_form_mismatch(ExactPoly((1, 1)), complex_poset.f_polynomial)
    assert order == 4 and lhs != pinned["lhs_coefficient"]
    results = {r.name: r for r in verify.run_suite("series", 8)}
    assert [name for name, r in results.items() if not r.ok] == [
        "f-series-coefficients", "printed-f-series-form"]


@pytest.mark.parametrize("which,name", [("P", "printed-f-series-form"),
                                        ("H", "printed-h-series-form")])
def test_a_tampered_pinned_report_fails_its_check(monkeypatch, which, name):
    tampered = dict(cli_oracles.PRINTED_FORM_REPORTS[which], first_mismatch_y_order=5)
    monkeypatch.setitem(cli_oracles.PRINTED_FORM_REPORTS, which, tampered)
    results = {r.name: r for r in verify.run_suite("series", 8)}
    assert [r.name for r in results.values() if not r.ok] == [name]
    assert results[name].detail == (
        f"series --which {which} prints a pinned printed {which}(x,y) form report "
        "that differs from the cross-multiplied one")
    assert cli.run(["verify", "--suite", "series"], io.StringIO()) == 2


@pytest.mark.parametrize("module,truth,name,label", [
    (complex_poset, "f_polynomial", "f-series-coefficients", "f"),
    (hvector, "h_polynomial", "h-series-coefficients", "h"),
])
@pytest.mark.parametrize("bad", [3, 57])
def test_a_wrong_polynomial_fails_its_series_check_at_its_n(monkeypatch, module, truth, name,
                                                             label, bad):
    real = getattr(module, truth)
    monkeypatch.setattr(module, truth,
                        lambda n: real(n) + ExactPoly.constant(1) if n == bad else real(n))
    result = {r.name: r for r in verify.run_suite("series", 8)}[name]
    assert (result.ok, result.detail) == (
        False, f"series coefficient != {label}-polynomial at n={bad}")


def test_initial_a_series_names_only_the_n_it_ran():
    result = {r.name: r for r in verify.run_suite("hilbert", 3)}["initial-a-series"]
    assert (result.ok, result.detail, result.first, result.last) == (
        True, "initial A-series 1/(1-x)^2 (n=3) reproduced to order 12", 3, 3)


def _count_poset_enumerations(monkeypatch):
    enumerated = []
    real = poset_core.face_tuples

    def counted(n, dim=None):
        if dim is None:
            enumerated.append(n)
        return real(n, dim)

    monkeypatch.setattr(poset_core, "face_tuples", counted)
    return enumerated


def test_chains_suite_builds_each_face_below_list_once(monkeypatch):
    enumerated = _count_poset_enumerations(monkeypatch)
    results = verify.run_suite("chains", 8)
    assert all(r.ok for r in results)
    # chain-formula-vs-oracle (n <= 12) and zeta-vs-multichain-oracle (n <= 8)
    # share the face list of each n, from which each pass walks the order
    assert sorted(enumerated) == list(range(3, 13))


def test_complex_suite_enumerates_each_poset_once(monkeypatch):
    enumerated = _count_poset_enumerations(monkeypatch)
    results = verify.run_suite("complex", 8)
    assert all(r.ok for r in results)
    # product-structure reads the face lists of P_n and P_{n+1}, n <= 13,
    # which the other checks share
    assert sorted(enumerated) == list(range(3, 15))


@pytest.mark.parametrize("suite, name, top", [("complex", "fpolynomial-recurrence", 40),
                                              ("hvector", "h-closed-recurrence-shift", 60)])
def test_recurrence_checks_walk_the_recurrence_once(monkeypatch, suite, name, top):
    # The polynomial recurrence divides once per odd step, (top - 2) // 2
    # times in one walk from n = 3 to top; a walk restarted at n = 3 for
    # every n divides O(top^2) times.
    divisions = []
    real = ExactPoly.exact_div

    def counted(self, divisor):
        divisions.append(divisor)
        return real(self, divisor)

    monkeypatch.setattr(ExactPoly, "exact_div", counted)
    results = verify.run_suite(suite, 8)
    assert all(r.ok for r in results)
    assert [r.last for r in results if r.name == name] == [top]
    assert len(divisions) <= top


def _count_chain_formulas(monkeypatch):
    calls = []
    real = chains_zeta.chain_count_formula

    def counted(n, i):
        calls.append((n, i))
        return real(n, i)

    monkeypatch.setattr(chains_zeta, "chain_count_formula", counted)
    return calls


def test_chains_suite_evaluates_each_chain_formula_once(monkeypatch):
    calls = _count_chain_formulas(monkeypatch)
    results = verify.run_suite("chains", 8)
    assert all(r.ok for r in results)
    assert set(Counter(calls).values()) == {1}
    # n <= 16 at i <= D+3 (chain-counts-vs-composition-sum), and i = 1 up to n = 20
    assert set(calls) == ({(n, i) for n in range(3, 17)
                           for i in range(1, (n - 1) // 2 + 4)}
                          | {(n, 1) for n in range(3, 21)})


def test_chain_checks_outside_run_suite_compute_afresh(monkeypatch):
    calls = _count_chain_formulas(monkeypatch)
    assert chains.check_chain_formula_elements(range(3, 21))[0]
    assert chains.check_chain_formula_elements(range(3, 21))[0]
    assert Counter(calls) == Counter(2 * [(n, 1) for n in range(3, 21)])


def test_valid_subsets_builds_no_peak_set(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("PeakSet built")

    monkeypatch.setattr(PeakSet, "__init__", refuse)
    monkeypatch.setattr(verify, "_memo", {})
    for n in range(3, 15):
        assert len(verify._valid_subsets(n)) == count_valid(n)


@pytest.mark.parametrize("suite, name, detail, first, last", EXPECTED_ALL_8,
                         ids=[f"{row[0]}/{row[1]}" for row in EXPECTED_ALL_8])
def test_registry_check(registry, suite, name, detail, first, last):
    result = registry[(suite, name)]
    assert result.ok, result.detail
    assert (result.detail, result.first, result.last) == (detail, first, last)


@pytest.mark.parametrize("max_n", [3, 8, 100])
def test_each_check_runs_over_its_declared_range_moved_by_max_n(monkeypatch, max_n):
    # Stand-ins record the range that run_suite hands each check, so no
    # oracle runs, even at --max-n 100.
    handed = {}
    suites = {suite: verify._suite(suite) for suite in verify.SUITE_NAMES}

    def stand_in(key):
        def check(ns):
            handed[key] = ns
            return True, ""

        return check

    monkeypatch.setattr(verify, "_suite", lambda suite: SimpleNamespace(
        CHECKS=[(name, stand_in((suite, name))) for name, _ in suites[suite].CHECKS],
        RANGES=suites[suite].RANGES))
    results = verify.run_suite("all", max_n)
    for r in results:
        if r.name not in suites[r.suite].RANGES:
            assert (r.first, r.last, r.cap, handed[(r.suite, r.name)]) == (None,) * 4
            continue
        first, top, cap = suites[r.suite].RANGES[r.name]
        last = min(max(top + max_n - verify.DEFAULT_MAX_N, first), cap)
        stopped = cap if top + max_n - verify.DEFAULT_MAX_N > cap else None
        assert (r.first, r.last, r.cap) == (first, last, stopped), f"{r.suite}/{r.name}"
        assert handed[(r.suite, r.name)] == range(first, last + 1)
    if max_n == 100:
        reach = {r.name: r.last for r in results}
        assert [reach[name] for name in ("cp-classes-partition", "validity-criterion-equivalence",
                                         "cp-value-window", "zeta-vs-multichain-oracle")] == \
            [perm_core.PERMUTATION_CAP] * 3 + [poset_core.POSET_CAP]
        assert reach["h-dyck-endpoint-oracle"] == 20


def test_covered_by_names_a_check_that_states_no_n_range(covered_by):
    with pytest.raises(AssertionError, match="series/printed-f-series-form declares no n range"):
        covered_by("series", "printed-f-series-form", 3)


def test_registry_lists_every_check():
    listed = [(suite, name) for suite, checks in verify.SUITES.items() for name, _ in checks]
    assert listed == [row[:2] for row in EXPECTED_ALL_8]


def test_run_suite_runs_the_registry_lists_in_place():
    # A tracer wraps checks by assigning into these lists; run_suite must
    # call what they hold.
    checks = verify.SUITES["perm"]
    name, real = checks[1]
    calls = []

    def counted(ns):
        calls.append(ns)
        return real(ns)

    checks[1] = (name, counted)
    try:
        results = verify.run_suite("perm", 8)
    finally:
        checks[1] = (name, real)
    assert calls == [range(3, 9)]
    assert all(r.ok for r in results)
    assert verify.SUITES["perm"] is perm.CHECKS
