"""The verify registry: the memo of one run_suite call, and one test id
per registry check, pinning its result line at --max-n 8."""

import io
from collections import Counter

import pytest

from circpeaks import (
    chains_zeta, cli, cli_oracles, complex_poset, hvector, perm_core, poset_core, verify,
)
from circpeaks.peak_sets import PeakSet, count_valid

# (suite, name, detail) of every check of run_suite("all", 8).  A detail
# states the range a check covered, so a range that shrinks fails here.
EXPECTED_ALL_8 = [
    ("perm", "cp-classes-partition",
     "CP classes partition S_n for n <= 8"),
    ("perm", "validity-criterion-equivalence",
     "is_valid <=> CP class nonempty, all S, n <= 8"),
    ("perm", "cp-value-window",
     "CP values lie in [3,n], interior positions only, n <= 7"),
    ("perm", "witness-realizes-set",
     "witness realizes every valid set, n <= 14"),
    ("peaksets", "dyck-round-trip",
     "from_dyck(to_dyck(s)) = s exhaustively, n <= 14"),
    ("peaksets", "dyck-bijection-onto",
     "bijection onto left factors of length n-1, n <= 14"),
    ("peaksets", "count-valid-exhaustive",
     "count_valid = exhaustive subset count, n <= 14"),
    ("peaksets", "extension-parity-law",
     "adjoining n+1 follows the parity law, n <= 13"),
    ("complex", "downward-closure",
     "every subset of a face is a face, n <= 14"),
    ("complex", "vertices-and-dimension",
     "vertex set [3,n], dim = floor((n-1)/2)-1, n <= 14"),
    ("complex", "face-count-closed-form",
     "face_count = |faces| for all dims, n <= 14"),
    ("complex", "fvector-recurrence",
     "f-vector recurrence = closed form, n <= 40"),
    ("complex", "fpolynomial-recurrence",
     "f-polynomial recurrence = closed form, n <= 40"),
    ("complex", "face-dyck-counts",
     "faces of dim i <-> left factors with i+1 D's, n <= 14"),
    ("complex", "moebius-closed-form",
     "(-1)^(|T|-|S|) = recursive Moebius on every interval, n <= 10"),
    ("complex", "euler-characteristic",
     "reduced Euler characteristic matches closed form, n <= 40"),
    ("complex", "product-structure",
     "poset product decomposition holds, n <= 13"),
    ("chains", "zeta-vs-multichain-oracle",
     "zeta = multichain oracle, n <= 8, i <= 6"),
    ("chains", "zeta-recurrence",
     "zeta recurrence with parity correction, n <= 12, i <= 6"),
    ("chains", "chain-formula-vs-oracle",
     "multinomial chain formula = strict-chain oracle, n <= 12, i <= 4"),
    ("chains", "chain-counts-vs-composition-sum",
     "binomial-inversion chain counts = composition sum, n <= 12, i <= D+3"),
    ("chains", "chain-formula-element-count",
     "chain formula at i=1 counts the faces, n <= 20"),
    ("chains", "zeta-from-chain-counts",
     "chain counts reconstruct zeta, n <= 10, i <= 6"),
    ("chains", "fpolynomial-from-chains",
     "f-polynomial rebuilt from chain counts, n <= 12"),
    ("chains", "zeta-polynomial-eval",
     "zeta polynomial evaluates to zeta, n <= 12, i <= 6"),
    ("hvector", "h-closed-recurrence-shift",
     "h closed form = recurrence = P_n(x-1) coefficients, n <= 40"),
    ("hvector", "h-dyck-endpoint-oracle",
     "h entries = left-factor endpoint counts, n <= 16"),
    ("hvector", "h-even-parity-shift",
     "H_{n+1} = x H_n for even n <= 20"),
    ("hvector", "h-sum-identity",
     "H_n(1) = P_n(0) (top face count), n <= 40"),
    ("series", "f-series-coefficients",
     "corrected P(x,y) matches f-polynomials, 3 <= n <= 20"),
    ("series", "h-series-coefficients",
     "corrected H(x,y) matches h-polynomials, 3 <= n <= 20"),
    ("series", "printed-f-series-form",
     "printed P(x,y) form DISCREPANCY documented: first mismatch at y^4; "
     "printed denominator x-(x+1)y^2 should be x-(x+1)^2 y^2 and the numerator "
     "factor x(x+2)-xC(y^2) should be (x+1)((x+1)-C(y^2)); the shipped series "
     "uses the corrected form, which matches the recurrence-generated "
     "polynomials on the whole tested range"),
    ("series", "printed-h-series-form",
     "printed H(x,y) form DISCREPANCY documented: first mismatch at y^4; "
     "inherits the f-series misprint under x -> x-1; the shipped series uses "
     "the corrected form (x-1) - x^2 y^2 denominator"),
    ("hilbert", "dim-a-monomial-oracle",
     "dim_a = monomial oracle, n <= 7, degree <= 5"),
    ("hilbert", "dim-b-monomial-oracle",
     "dim_b = squarefree monomial oracle, n <= 7, all degrees"),
    ("hilbert", "hilbert-polynomial-a",
     "Hilbert polynomial of A matches dims, n <= 12, i <= 8"),
    ("hilbert", "numerator-rational-form",
     "numerator/(1-x)^floor((n+1)/2) reproduces the A-series, n <= 12"),
    ("hilbert", "initial-a-series",
     "initial A-series 1/(1-x)^2 and (1+x)/(1-x)^2 reproduced to order 12"),
    ("hilbert", "a-series-recurrences",
     "A-series derivative recurrences hold as truncated identities, n <= 9/10"),
    ("hilbert", "numerator-recurrences",
     "numerator recurrences hold exactly, n <= 9/10"),
    ("hilbert", "b-series-shape",
     "B-series degree bound and face count at x^1, n <= 12"),
    ("hilbert", "nonvanishing-criterion",
     "multichain <=> pairwise-comparable support, 1000 samples per n <= 6"),
]


def _count_cp_class_tables(monkeypatch):
    calls = []
    real = perm_core.cp_class_table

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(perm_core, "cp_class_table", counted)
    return calls


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


def test_check_outside_run_suite_computes_afresh(monkeypatch):
    calls = _count_cp_class_tables(monkeypatch)
    assert verify.check_partition(8)[0]
    assert verify.check_partition(8)[0]
    assert len(calls) == 16


def test_downward_closure_catches_a_rejected_subface(monkeypatch):
    real = poset_core._first_violation_sorted
    monkeypatch.setattr(poset_core, "_first_violation_sorted",
                        lambda elems: (1, 3, 3) if tuple(elems) == (3,) else real(elems))
    ok, detail = verify.check_downward_closure(8)
    assert not ok
    assert detail == "subset (3,) of face (3, 5) invalid at n=5"


def test_face_count_checks_read_the_run_face_list(monkeypatch):
    monkeypatch.setattr(verify, "_memo", {})
    for n in range(3, 15):
        verify._valid_subsets(n)
    calls = []
    real = poset_core._first_violation_sorted
    monkeypatch.setattr(poset_core, "_first_violation_sorted",
                        lambda elems: calls.append(elems) or real(elems))
    assert verify.check_face_counts(8)[0]
    assert verify.check_face_dyck_counts(8)[0]
    assert calls == []


def test_pinned_printed_form_reports_are_the_computed_ones():
    assert cli_oracles.PRINTED_FORM_REPORTS == {
        "P": complex_poset.printed_f_series_discrepancy(),
        "H": hvector.printed_h_series_discrepancy(),
    }


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


def _count_down_set_builds(monkeypatch):
    builds = []
    real = complex_poset.down_sets

    def counted(faces):
        builds.append(len(faces))  # |P_n| grows with n, so it names n
        return real(faces)

    monkeypatch.setattr(complex_poset, "down_sets", counted)
    return builds


def test_chains_suite_builds_each_face_below_list_once(monkeypatch):
    builds = _count_down_set_builds(monkeypatch)
    results = verify.run_suite("chains", 8)
    assert all(r.ok for r in results)
    # chain-formula-vs-oracle (n <= 12) and zeta-vs-multichain-oracle (n <= 8)
    # share the down-sets of each n
    assert sorted(builds) == [count_valid(n) for n in range(3, 13)]


def test_complex_suite_enumerates_each_poset_once(monkeypatch):
    builds = _count_down_set_builds(monkeypatch)
    enumerated = []
    real = complex_poset.face_tuples

    def counted(n, dim=None):
        if dim is None:
            enumerated.append(n)
        return real(n, dim)

    monkeypatch.setattr(complex_poset, "face_tuples", counted)
    results = verify.run_suite("complex", 8)
    assert all(r.ok for r in results)
    assert sorted(enumerated) == list(range(3, 15))
    # product-structure reads the down-sets of P_n and P_{n+1}, n <= 13
    assert sorted(builds) == [count_valid(n) for n in range(3, 15)]


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
    # n <= 12 at i <= D+3 (chain-counts-vs-composition-sum), and i = 1 up to n = 20
    assert set(calls) == ({(n, i) for n in range(3, 13)
                           for i in range(1, (n - 1) // 2 + 4)}
                          | {(n, 1) for n in range(3, 21)})


def test_chain_checks_outside_run_suite_compute_afresh(monkeypatch):
    calls = _count_chain_formulas(monkeypatch)
    assert verify.check_chain_formula_elements(8)[0]
    assert verify.check_chain_formula_elements(8)[0]
    assert Counter(calls) == Counter(2 * [(n, 1) for n in range(3, 21)])


def test_valid_subsets_builds_no_peak_set(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("PeakSet built")

    monkeypatch.setattr(PeakSet, "__init__", refuse)
    monkeypatch.setattr(verify, "_memo", {})
    for n in range(3, 15):
        assert len(verify._valid_subsets(n)) == count_valid(n)


@pytest.mark.parametrize("suite, name, detail", EXPECTED_ALL_8,
                         ids=[f"{suite}/{name}" for suite, name, _ in EXPECTED_ALL_8])
def test_registry_check(registry, suite, name, detail):
    result = registry[(suite, name)]
    assert result.ok, result.detail
    assert result.detail == detail


def test_registry_lists_every_check():
    listed = [(suite, name) for suite, checks in verify.SUITES.items() for name, _ in checks]
    assert listed == [(suite, name) for suite, name, _ in EXPECTED_ALL_8]
