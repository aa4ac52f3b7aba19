import time
from fractions import Fraction

import pytest

from circpeaks import chains_zeta, complex_poset, tables
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
def test_chain_counts_match_composition_sum(n):
    top = max_peak_count(n)
    counts = chain_counts(n)
    assert len(counts) == top + 2
    assert counts[0] == 1
    for i in range(1, top + 2):
        assert counts[i] == chain_count_formula(n, i)
    for i in range(top + 2, top + 4):
        assert chain_count_formula(n, i) == 0


@pytest.mark.parametrize("n", range(3, 13))
def test_chain_counts_match_oracle(n):
    counts = chain_counts(n)
    for i in range(0, max_peak_count(n) + 4):
        assert (counts[i] if i < len(counts) else 0) == chain_oracle(n, i)


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


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("n", range(3, 13))
def test_faces_below_matches_all_pairs_reference(n, strict):
    fs = [frozenset(s) for s in complex_poset.face_tuples(n)]
    if strict:
        reference = [[j for j, a in enumerate(fs) if a < b] for b in fs]
    else:
        reference = [[j for j, a in enumerate(fs) if a <= b] for b in fs]
    down = complex_poset.down_sets(complex_poset.face_tuples(n))
    assert [d[0] for d in down] == list(range(len(fs)))
    assert [sorted(d[1:] if strict else d) for d in down] == reference


@pytest.mark.parametrize("n", [13, 14])
def test_one_pass_chain_counts_at_the_poset_cap(n):
    # No registry check reaches these n.
    down = complex_poset.down_sets(complex_poset.face_tuples(n))
    multichains = chains_zeta._poset_chain_counts(down, 5, strict=False)
    assert multichains == [1] + [zeta(n, length + 1) for length in range(1, 6)]
    chains = chains_zeta._poset_chain_counts(down, max_peak_count(n) + 10, strict=True)
    assert chains == list(chain_counts(n)) + [0]


def test_poset_cap():
    with pytest.raises(ResourceLimitError):
        multichain_oracle(15, 2)
    with pytest.raises(ResourceLimitError):
        chain_oracle(15, 2)
