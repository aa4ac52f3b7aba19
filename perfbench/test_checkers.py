"""Small-n tests of the benchmark's output checkers.

Run with ``python3 -m pytest perfbench``.  Expected values are counted by
hand from the face lists below, not taken from the library.  With
D = floor((n-1)/2), the faces are the subsets {i_1 < i_2 < ...} of
[3, n] with i_j >= 2j + 1:

* n = 3: {}, {3}
* n = 4: {}, {3}, {4}
* n = 5: {}, {3}, {4}, {5}, {3,5}, {4,5}
* n = 6: {}, four vertices, and {3,5}, {3,6}, {4,5}, {4,6}, {5,6}
"""

import json
from math import comb

import pytest

import checkers


@pytest.mark.parametrize("n, f", [(3, [1, 1]), (4, [1, 2]), (5, [1, 3, 2]), (6, [1, 4, 5])])
def test_f_vector(n, f):
    assert checkers.f_vector(n) == f
    assert checkers.f_polynomial(n) == f[::-1]


@pytest.mark.parametrize("n, h", [
    # P_5(x) = x^2 + 3x + 2, so H_5(x) = P_5(x-1) = x^2 + x.
    (5, [1, 1, 0]),
    # P_6(x) = x^2 + 4x + 5, so H_6(x) = x^2 + 2x + 2.
    (6, [1, 2, 2]),
])
def test_h_vector(n, h):
    assert checkers.h_vector(n) == h
    assert checkers.h_polynomial(n) == h[::-1]


def test_zeta_counts_multichains():
    # Z(5, 2): single faces; Z(5, 3): pairs x1 <= x2, i.e. 2^|x2| per face x2.
    assert checkers.zeta(5, 2) == 6
    assert checkers.zeta(5, 3) == 1 + 3 * 2 + 2 * 4
    assert checkers.zeta(5, 1) == 1


def test_chain_count_counts_strict_chains():
    # n = 5: 6 faces; x1 < x2 gives 2^|x2| - 1 per face x2; x1 < x2 < x3
    # needs |x3| = 2 and runs {} < {a} < x3, two per edge.
    assert [checkers.chain_count(5, i) for i in range(5)] == [1, 6, 9, 4, 0]


@pytest.mark.parametrize("n", range(3, 60))
def test_euler_matches_closed_form(n):
    # 0 for odd n, 2(-1)^(n/2)/n * C(n-2, (n-2)/2) for even n; exact integers.
    closed = 0 if n % 2 else 2 * (-1) ** (n // 2) * comb(n - 2, (n - 2) // 2) // n
    value = checkers.euler(n)
    assert type(value) is int and value == closed


def test_expand_rational():
    # n = 5: dims 1, 6, 15, 28 = (1 + 3x) / (1 - x)^3.
    assert checkers.expand_rational([1, 3], 3, 4) == [1, 6, 15, 28]
    assert [checkers.zeta(5, t + 1) for t in range(4)] == [1, 6, 15, 28]


def _json(payload) -> str:
    return json.dumps(payload)


def test_check_accepts_right_and_rejects_wrong_json():
    argv = ["fvector", "--n", "5"]
    good = {"n": 5, "f": [1, 3, 2], "f_polynomial": [2, 3, 1]}
    assert checkers.check(argv, 0, _json(good)) is None
    assert checkers.check(argv, 0, _json(dict(good, f=[1, 3, 3])))
    assert checkers.check(argv, 1, _json(good))
    assert checkers.check(argv, 0, "not json")


def test_check_hilbert():
    a = ["hilbert", "--n", "5", "--algebra", "A", "--order", "3"]
    out_a = {"n": 5, "algebra": "A", "dims": [1, 6, 15, 28], "numerator": [1, 3],
             "denominator_exponent": 3, "hilbert_polynomial": [1, 3, 2]}
    assert checkers.check(a, 0, _json(out_a)) is None
    assert checkers.check(a, 0, _json(dict(out_a, numerator=[1, 3, 1])))
    b = ["hilbert", "--n", "5", "--algebra", "B", "--order", "2"]
    out_b = {"n": 5, "algebra": "B", "dims": [1, 6, 9], "series_polynomial": [1, 6, 9, 4]}
    assert checkers.check(b, 0, _json(out_b)) is None
    assert checkers.check(b, 0, _json(dict(out_b, series_polynomial=[1, 6, 9])))


def test_check_oracle_may_be_absent_but_must_agree():
    argv = ["chains", "--n", "5", "--i", "2"]
    base = {"n": 5, "i": 2, "count": 9}
    assert checkers.check(argv, 0, _json(dict(base, oracle=9, match=True))) is None
    assert checkers.check(argv, 0, _json(dict(base, oracle=None, match=None))) is None
    assert checkers.check(argv, 0, _json(dict(base, oracle=8, match=False)))


def test_check_series():
    argv = ["series", "--which", "P", "--order", "5"]
    coeffs = [{"n": 3, "poly": [1, 1]}, {"n": 4, "poly": [2, 1]}, {"n": 5, "poly": [2, 3, 1]}]
    assert checkers.check(argv, 0, _json({"coefficients": coeffs})) is None
    assert checkers.check(argv, 0, _json({"coefficients": coeffs[:2]}))


def test_check_verify():
    argv = ["verify", "--suite", "perm", "--max-n", "8"]
    good = "PASS  perm/a-check: fine\nPASS  perm/b: fine\n2/2 checks passed\n"
    assert checkers.check(argv, 0, good) is None
    assert checkers.check(argv, 0, good.replace("PASS  perm/b", "FAIL  perm/b"))
    assert checkers.check(argv, 0, "2/2 checks passed\n")
    assert checkers.check(argv, 2, good)
