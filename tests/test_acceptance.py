"""Acceptance gate: one test per numbered criterion.

Every expected value here is either an independently computed oracle value
or a published constant; nothing is tuned to the implementation.  Timed
criteria use generous wall-clock budgets for commodity hardware.
"""

import io
import json
import time
from itertools import combinations

from circpeaks.chains_zeta import (
    chain_count_formula,
    chain_oracle,
    f_polynomial_from_chains,
    multichain_oracle,
    zeta,
)
from circpeaks.cli import run as cli_run
from circpeaks.complex_poset import (
    euler_characteristic,
    f_generating_series,
    f_polynomial,
    face_count,
    face_counts_by_recurrence,
    face_table,
    faces,
    moebius,
    moebius_recursive_oracle,
    printed_f_series_discrepancy,
)
from circpeaks.exact_algebra import binomial
from circpeaks.hilbert_algebras import (
    dim_a,
    dim_b,
    hilbert_series_a,
    numerator_a,
    standard_monomial_oracle,
    verify_numerator_recurrence_a,
    verify_series_recurrence_a,
)
from circpeaks.hvector import (
    h_entry,
    h_dyck_oracle,
    h_generating_series,
    h_polynomial,
    h_polynomial_by_recurrence,
    h_recurrence_table,
    h_table,
)
from circpeaks.peak_sets import (
    PeakSet,
    count_valid,
    enumerate_left_factors,
    from_dyck,
    is_valid,
    max_peak_count,
    to_dyck,
)
from circpeaks.perm_core import cp_class_table


def valid_subsets(n):
    for k in range(0, max_peak_count(n) + 1):
        for c in combinations(range(3, n + 1), k):
            if is_valid(n, c):
                yield c


def test_criterion_01_example_enumeration():
    started = time.perf_counter()
    out = io.StringIO()
    code = cli_run(["enum-cp", "--n", "5", "--set", "4,5"], out)
    elapsed = time.perf_counter() - started
    assert code == 0
    expected = sorted(
        "14253 14352 24153 34152 24351 34251 "
        "15243 15342 25143 35142 25341 35241".split()
    )
    got = ["".join(map(str, p)) for p in json.loads(out.getvalue())["perms"]]
    assert got == expected
    assert elapsed < 1.0


def test_criterion_02_validity_equivalence():
    started = time.perf_counter()
    for n in range(3, 9):
        realized = {s for s, c in cp_class_table(n).items() if c > 0}
        for k in range(0, n + 1):
            for s in combinations(range(1, n + 1), k):
                assert is_valid(n, s) == (s in realized), (n, s)
    assert time.perf_counter() - started < 60.0


def test_criterion_03_counting_identities():
    for n in range(3, 15):
        assert count_valid(n) == binomial(n - 1, (n - 1) // 2)
        assert count_valid(n) == sum(1 for _ in valid_subsets(n))
        for i in range(-1, max_peak_count(n)):
            assert face_count(n, i) == len(faces(n, i))
    for n in range(3, 41):
        assert face_counts_by_recurrence(n) == face_table(n)


def test_criterion_04_dyck_bijection():
    for n in range(3, 15):
        words = set()
        for s in valid_subsets(n):
            ps = PeakSet(n, s)
            word = to_dyck(ps)
            assert from_dyck(n, word) == ps
            words.add(word.letters)
        assert words == set(enumerate_left_factors(n - 1))


def test_criterion_05_moebius():
    for n in range(3, 11):
        fs = [PeakSet(n, s) for s in valid_subsets(n)]
        for s in fs:
            for t in fs:
                if set(s.elements) <= set(t.elements):
                    closed = moebius(n, s, t)
                    assert closed == (-1) ** (len(t.elements) - len(s.elements))
                    assert closed == moebius_recursive_oracle(n, s, t)


def test_criterion_06_euler_characteristic():
    assert euler_characteristic(4) == 1
    assert euler_characteristic(6) == -2
    for n in range(3, 41):
        chi = euler_characteristic(n)  # internally asserted vs closed form
        assert chi.denominator == 1
        if n % 2:
            assert chi == 0


def test_criterion_07_zeta_and_chains():
    for n in range(3, 9):
        for i in range(2, 7):
            assert zeta(n, i) == multichain_oracle(n, i - 1)
    for n in range(3, 13):
        for i in range(1, 5):
            assert chain_count_formula(n, i) == chain_oracle(n, i)
    for n in range(3, 9):
        for i in range(2, 7):
            recon = sum(
                chain_count_formula(n, j - 1) * binomial(i - 2, j - 2)
                for j in range(2, max_peak_count(n) + 4)
            )
            assert recon == zeta(n, i)
    for n in range(3, 13):
        assert f_polynomial_from_chains(n) == f_polynomial(n)


def test_criterion_08_h_vector():
    for n in range(3, 41):
        assert h_polynomial(n) == h_polynomial_by_recurrence(n)
        hv = h_table(n)
        assert hv == h_recurrence_table(n)
        d = max_peak_count(n)
        poly = h_polynomial(n)
        assert all(poly.coeff(d - i) == hv[i] for i in range(d + 1))
    for n in range(3, 17):
        for i in range(0, max_peak_count(n) + 1):
            assert h_entry(n, i) == h_dyck_oracle(n, i)


def test_criterion_09_generating_functions():
    f_series = f_generating_series(20)
    h_series = h_generating_series(20)
    for n in range(3, 21):
        assert f_series.coeffs[n] == f_polynomial(n)
        assert h_series.coeffs[n] == h_polynomial(n)
    # the printed closed form does not match; the discrepancy must be
    # reported in a documented, machine-readable way
    report = printed_f_series_discrepancy()
    assert report is not None
    assert report["first_mismatch_y_order"] == 4
    assert "corrected" in report["note"]


def test_criterion_10_hilbert():
    for n in range(3, 8):
        for d in range(0, 6):
            assert dim_a(n, d) == standard_monomial_oracle(n, "A", d)
            assert dim_b(n, d) == standard_monomial_oracle(n, "B", d)
    # Hilb of A for n=3 is 1/(1-x)^2, for n=4 is (1+x)/(1-x)^2
    assert hilbert_series_a(3, 12) == tuple(i + 1 for i in range(13))
    assert hilbert_series_a(4, 12) == (1,) + tuple(2 * i + 1 for i in range(1, 13))
    for n in range(3, 13):
        numerator, exponent = numerator_a(n)
        assert exponent == (n + 1) // 2
        assert all(c.denominator == 1 for c in numerator.coeffs)
        order = 10
        series = [0] * (order + 1)
        for k, c in enumerate(numerator.coeffs):
            if k <= order:
                series[k] = c
        for _ in range(exponent):
            for k in range(1, order + 1):
                series[k] += series[k - 1]
        assert tuple(series) == hilbert_series_a(n, order)
    for n in range(3, 13):
        assert verify_series_recurrence_a(n)
        assert verify_numerator_recurrence_a(n)


def test_criterion_11_full_verify_suite():
    started = time.perf_counter()
    out = io.StringIO()
    code = cli_run(["verify", "--suite", "all", "--max-n", "8"], out)
    elapsed = time.perf_counter() - started
    text = out.getvalue()
    assert code == 0, text
    assert "FAIL" not in text
    assert elapsed < 300.0
