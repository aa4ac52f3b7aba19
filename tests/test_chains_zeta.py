import time
import tracemalloc
from fractions import Fraction

import pytest

from circpeaks import chains_zeta, complex_poset, poset_core, tables
from circpeaks.chains_zeta import (
    chain_count_formula,
    chain_counts,
    chain_oracle,
    multichain_oracle,
    zeta,
    zeta_polynomial,
    zeta_values,
)
from circpeaks.complex_poset import face_table
from circpeaks.exact_algebra import (
    ExactPoly,
    NonIntegralError,
    binomial,
    poly_shift,
)
from circpeaks.peak_sets import count_valid, max_peak_count
from circpeaks.perm_core import ResourceLimitError
from circpeaks.poset_core import NotDownwardClosedError, _poset_chain_counts


def test_zeta_examples():
    for i in range(2, 7):
        assert zeta(3, i) == i
    for n in range(3, 10):
        assert zeta(n, 2) == count_valid(n)
    # weakly increasing pairs over the 6 faces of the n=5 poset:
    # 6 reflexive + 9 strict = 15 (= 4 * P_5(1/2))
    assert zeta(5, 3) == 15
    assert multichain_oracle(5, 2) == 15


def test_zeta_domain():
    with pytest.raises(ValueError):
        zeta(5, 1)
    with pytest.raises(ValueError):
        zeta(2, 3)


def test_multichain_oracle_small():
    assert multichain_oracle(3, 0) == 1
    assert multichain_oracle(3, 1) == 2
    assert multichain_oracle(3, 2) == 3


@pytest.mark.parametrize("n", range(3, 9))
def test_zeta_matches_oracle(n, covered_by):
    covered_by("chains", "zeta-vs-multichain-oracle", n)


def test_zeta_rejects_nonintegral_f_polynomial(monkeypatch):
    monkeypatch.setattr(tables, "face_table", lambda n: (1, 1, Fraction(1, 2)))
    with pytest.raises(NonIntegralError, match="zeta"):
        zeta(5, 2)


def test_zeta_recurrence(covered_by):
    covered_by("chains", "zeta-recurrence", 12)


def test_zeta_polynomial_evaluates(covered_by):
    covered_by("chains", "zeta-polynomial-eval", 12)


@pytest.mark.parametrize("n", [*range(3, 61), 400])
def test_zeta_polynomial_matches_fraction_shift(n):
    assert zeta_polynomial(n) == poly_shift(ExactPoly(face_table(n)))


def test_chain_formula_examples():
    assert chain_count_formula(3, 1) == 2
    assert chain_count_formula(3, 2) == 1
    assert chain_count_formula(5, 1) == 6
    assert chain_count_formula(5, 2) == 9
    assert chain_count_formula(5, 3) == 4
    for n in range(3, 13):
        for i in range(1, 5):
            assert type(chain_count_formula(n, i)) is int


def test_chain_oracle_examples():
    assert chain_oracle(3, 1) == 2
    assert chain_oracle(4, 3) == 0
    assert chain_oracle(5, 2) == 9


@pytest.mark.parametrize("n", range(3, 13))
def test_chain_formula_matches_oracle(n, covered_by):
    covered_by("chains", "chain-formula-vs-oracle", n)


def test_chain_formula_rejects_a_sum_not_divisible_by_n(monkeypatch):
    # n=5, i=1 sums over (0,5), (1,4), (2,3) with weights 5, 3, 1: with every
    # multinomial 1 the sum is 9, which 5 does not divide.
    monkeypatch.setattr(chains_zeta, "multinomial", lambda parts: 1)
    with pytest.raises(NonIntegralError, match=r"chain_count_formula\(5, 1\)"):
        chain_count_formula(5, 1)


def test_chain_formula_counts_elements(covered_by):
    covered_by("chains", "chain-formula-element-count", 20)


@pytest.mark.parametrize("n", range(3, 11))
def test_chain_counts_reconstruct_zeta(n, covered_by):
    covered_by("chains", "zeta-from-chain-counts", n)


@pytest.mark.parametrize("n", range(3, 13))
def test_f_polynomial_from_chains(n, covered_by):
    covered_by("chains", "fpolynomial-from-chains", n)


@pytest.mark.parametrize("n", range(3, 17))
def test_chain_counts_match_composition_sum(n, covered_by):
    covered_by("chains", "chain-counts-vs-composition-sum", n)


@pytest.mark.parametrize("n", range(3, 13))
def test_chain_counts_match_oracle(n, covered_by):
    # chain_counts = composition sum = strict-chain oracle, i <= D+3
    covered_by("chains", "chain-counts-vs-composition-sum", n)
    covered_by("chains", "chain-formula-vs-oracle", n)


@pytest.mark.parametrize("n", [200, 1000])
def test_chain_counts_match_binomial_inversion(n):
    # Reference: d_{n,t+1} = sum_k (-1)^(t-k) C(t, k) Z_k with Z_k = zeta(n, k+2),
    # a binomial times Z_k for every (t, k); chain_counts takes the same
    # values as forward differences of the Z row.
    top = max_peak_count(n)
    z = zeta_values(n, range(2, top + 3))
    inverted = (1,) + tuple(
        sum((-1) ** (t - k) * binomial(t, k) * z[k] for k in range(t + 1))
        for t in range(top + 1)
    )
    assert chain_counts(n) == inverted


def test_chain_oracle_stops_when_counts_vanish():
    started = time.perf_counter()
    assert chain_oracle(14, 60) == 0
    assert time.perf_counter() - started < 1.0


def _all_pairs_chain_counts(n, length, strict):
    """_poset_chain_counts by a DP over the order tested on every pair of faces."""
    fs = [frozenset(s) for s in complex_poset.face_tuples(n)]
    below = [[j for j, a in enumerate(fs) if (a < b if strict else a <= b)] for b in fs]
    out, counts = [1], [1] * len(fs)
    for _ in range(length):
        if len(out) > 1:
            counts = [sum(counts[j] for j in js) for js in below]
        out.append(sum(counts))
    return out


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("n", range(3, 13))
def test_faces_below_matches_all_pairs_reference(n, strict):
    # The subset-sum pass against the pairwise order, past the last chain.
    length = max_peak_count(n) + 3
    counts = _poset_chain_counts(complex_poset.face_tuples(n), length, strict)
    reference = _all_pairs_chain_counts(n, length, strict)
    assert counts == reference[:len(counts)]
    assert not any(reference[len(counts):])


@pytest.mark.parametrize("n", [13, 14])
def test_one_pass_chain_counts_at_the_poset_cap(n):
    # No registry check reaches these n.
    faces = complex_poset.face_tuples(n)
    multichains = _poset_chain_counts(faces, 5, strict=False)
    assert multichains == [1] + [zeta(n, length + 1) for length in range(1, 6)]
    chains = _poset_chain_counts(faces, max_peak_count(n) + 10, strict=True)
    assert chains == list(chain_counts(n)) + [0]


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("missing", [(), (5,), (3, 6)])
def test_chain_counts_reject_a_face_list_missing_a_subface(missing, strict):
    faces = [c for c in complex_poset.face_tuples(8) if c != missing]
    with pytest.raises(NotDownwardClosedError, match=r"lacks its subface without"):
        _poset_chain_counts(faces, 0, strict)


def test_chain_oracles_reject_a_face_list_missing_a_subface(monkeypatch):
    real = poset_core.face_tuples
    monkeypatch.setattr(poset_core, "face_tuples", lambda n: [c for c in real(n) if c != (5,)])
    for oracle in (multichain_oracle, chain_oracle):
        with pytest.raises(NotDownwardClosedError, match=r"face \(3, 5\) lacks"):
            oracle(8, 3)


@pytest.mark.parametrize("oracle, bound_kb", [
    (lambda: multichain_oracle(14, 6), 400),
    (lambda: complex_poset._product_structure(
        13, complex_poset.face_tuples(13), complex_poset.face_tuples(14)), 370),
], ids=["multichain_oracle-14-6", "product_structure-13"])
def test_poset_oracles_store_no_down_set_table(oracle, bound_kb):
    # With stored down-set tables these peaked at 604 KB and 1103 KB (Python 3.11).
    # The product check, a set identity on the two face lists, peaks at
    # 246 KB with those lists built inside the traced call.
    oracle()  # warm: the first call also allocates what it imports and caches
    tracemalloc.start()
    try:
        oracle()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_kb * 1024


def test_poset_cap():
    with pytest.raises(ResourceLimitError):
        multichain_oracle(15, 2)
    with pytest.raises(ResourceLimitError):
        chain_oracle(15, 2)
