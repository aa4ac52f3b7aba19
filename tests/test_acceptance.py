"""Acceptance gate: one test per numbered criterion.

Every expected value here is either an independently computed oracle value
or a published constant; nothing is tuned to the implementation.  Timed
criteria use generous wall-clock budgets for commodity hardware.

An oracle equivalence that a registry check of circpeaks.verify runs is
named through the covered_by fixture (tests/conftest.py), over at least
the n range that this gate requires, rather than run again here.
"""

import io
import json
import time

from circpeaks.cli import run as cli_run
from circpeaks.complex_poset import euler_characteristic
from circpeaks.hilbert_algebras import hilbert_series_a
from circpeaks.peak_sets import count_valid


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


def test_criterion_02_validity_equivalence(covered_by):
    # is_valid(n, S) <=> CP class of S nonempty, every S of [n], n <= 8
    covered_by("perm", "validity-criterion-equivalence", 8)


def test_criterion_03_counting_identities(covered_by):
    # |P_n| = C(n-1, floor((n-1)/2)), the central binomial numbers
    assert count_valid(3) == 2
    assert count_valid(14) == 1716
    covered_by("peaksets", "count-valid-exhaustive", 14)
    covered_by("complex", "face-count-closed-form", 14)
    covered_by("complex", "fvector-recurrence", 40)


def test_criterion_04_dyck_bijection(covered_by):
    covered_by("peaksets", "dyck-round-trip", 14)
    covered_by("peaksets", "dyck-bijection-onto", 14)


def test_criterion_05_moebius(covered_by):
    # mu(S, T) = (-1)^(|T|-|S|) against the recursion on every interval
    covered_by("complex", "moebius-closed-form", 10)


def test_criterion_06_euler_characteristic(covered_by):
    assert euler_characteristic(4) == 1
    assert euler_characteristic(6) == -2
    # chi of P_2k is (-1)^k C_{k-1}: the Catalan number C_19 at n = 40
    chi = euler_characteristic(40)
    assert type(chi) is int
    assert chi == 1767263190
    assert euler_characteristic(39) == 0
    # closed form = recurrence f-vector, zero at odd n, n <= 40
    covered_by("complex", "euler-characteristic", 40)


def test_criterion_07_zeta_and_chains(covered_by):
    covered_by("chains", "zeta-vs-multichain-oracle", 8)
    covered_by("chains", "chain-formula-vs-oracle", 12)
    covered_by("chains", "zeta-from-chain-counts", 8)
    covered_by("chains", "fpolynomial-from-chains", 12)


def test_criterion_08_h_vector(covered_by):
    covered_by("hvector", "h-closed-recurrence-shift", 40)
    covered_by("hvector", "h-dyck-endpoint-oracle", 16)


def test_criterion_09_generating_functions(covered_by, registry):
    covered_by("series", "f-series-coefficients", 20)
    covered_by("series", "h-series-coefficients", 20)
    # the printed closed form does not match; the discrepancy must be
    # reported in a documented, machine-readable way, and the registry
    # check fails unless the coefficient recurrence finds that report
    out = io.StringIO()
    assert cli_run(["series", "--which", "P", "--order", "6"], out) == 0
    report = json.loads(out.getvalue())["printed_form_discrepancy"]
    assert report["first_mismatch_y_order"] == 4
    assert "corrected" in report["note"]
    assert registry[("series", "printed-f-series-form")].ok


def test_criterion_10_hilbert(covered_by):
    covered_by("hilbert", "dim-a-monomial-oracle", 7)
    covered_by("hilbert", "dim-b-monomial-oracle", 7)
    # Hilb of A for n=3 is 1/(1-x)^2, for n=4 is (1+x)/(1-x)^2
    assert hilbert_series_a(3, 12) == tuple(i + 1 for i in range(13))
    assert hilbert_series_a(4, 12) == (1,) + tuple(2 * i + 1 for i in range(1, 13))
    covered_by("hilbert", "numerator-rational-form", 12)
    covered_by("hilbert", "a-series-recurrences", 12)
    covered_by("hilbert", "numerator-recurrences", 12)


def test_criterion_11_full_verify_suite():
    started = time.perf_counter()
    out = io.StringIO()
    code = cli_run(["verify", "--suite", "all", "--max-n", "8"], out)
    elapsed = time.perf_counter() - started
    text = out.getvalue()
    assert code == 0, text
    assert "FAIL" not in text
    assert elapsed < 300.0
