"""The verify registry as a whole: the memo of one run_suite call, and
the pinned result line of every check at --max-n 8."""

from collections import Counter

from circpeaks import chains_zeta, complex_poset, perm_core, verify

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
    real = complex_poset.is_valid
    monkeypatch.setattr(complex_poset, "is_valid",
                        lambda n, s: tuple(s) != (3,) and real(n, s))
    ok, detail = verify.check_downward_closure(8)
    assert not ok
    assert detail == "subset (3,) of face (3, 5) invalid at n=5"


def test_face_count_checks_read_the_run_face_list(monkeypatch):
    monkeypatch.setattr(verify, "_memo", {})
    for n in range(3, 15):
        verify._valid_subsets(n)
    calls = []
    real = complex_poset.is_valid
    monkeypatch.setattr(complex_poset, "is_valid",
                        lambda n, s: calls.append(n) or real(n, s))
    assert verify.check_face_counts(8)[0]
    assert verify.check_face_dyck_counts(8)[0]
    assert calls == []


def test_chains_suite_builds_each_face_below_list_once(monkeypatch):
    builds = []
    real = chains_zeta._faces_below

    def counted(n, strict):
        builds.append((n, strict))
        return real(n, strict)

    monkeypatch.setattr(chains_zeta, "_faces_below", counted)
    results = verify.run_suite("chains", 8)
    assert all(r.ok for r in results)
    assert set(Counter(builds).values()) == {1}
    # chain-formula-vs-oracle (strict, n <= 12) and zeta-vs-multichain-oracle (n <= 8)
    assert sorted(builds) == sorted([(n, True) for n in range(3, 13)]
                                    + [(n, False) for n in range(3, 9)])


def test_run_suite_all_pins_every_result_line():
    results = verify.run_suite("all", 8)
    assert [(r.suite, r.name, r.detail) for r in results] == EXPECTED_ALL_8
    assert all(r.ok for r in results)
