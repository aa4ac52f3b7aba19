"""The integer core: the f-vector, the h-vector and the statistics read off them.

face_table(n) is the f-vector of the circular-peak complex P_n.  The
reduced Euler characteristic, the zeta values, the strict chain counts
(the graded dimensions of algebra B) and the graded dimensions and
rational form of the Hilbert series of algebra A, Hilb_B(x/(1-x)), are
computed here from it; the h-vector h_table(n) comes from its own closed
form, by the ratio recurrence of C(floor(n/2)+i, floor(n/2)).  All of it
is integer arithmetic, with every division exact or an error.  Its values
are ints and tuples of ints: the cli alone shapes them into JSON or CSV
rows, and the ExactPoly views
(f_polynomial, h_polynomial, the Hilbert polynomial) live in the modules
that re-export these names.  This module loads nothing of the package,
no rational arithmetic and no oracle, so a command that prints only
these numbers loads only this module and cli.
complex_poset, chains_zeta, hvector, hilbert_algebras, exact_algebra,
peak_sets and perm_core re-export these names; they and the integer-only
face poset, poset_core, hold every oracle.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import comb, gcd
from operator import index

POSET_CAP = 14


class ResourceLimitError(RuntimeError):
    """An exhaustive enumeration was requested past its configured cap."""


class InexactDivisionError(ArithmeticError):
    """A division that was required to be exact left a remainder."""


class NonIntegralError(ArithmeticError):
    """A value that must be an integer (a count or a dimension) is not."""


class ClosedFormMismatchError(ArithmeticError):
    """A value computed from the f-vector differs from its closed form."""


def as_integer(value, what: str) -> int:
    """``value`` (any number with as_integer_ratio) as an int; NonIntegralError
    names ``what`` if it is not one.  ExactPoly reads a non-int coefficient here."""
    num, den = value.as_integer_ratio()
    if den != 1:
        raise NonIntegralError(f"{what} is not an integer: {value}")
    return num


def exact_quotient(num: int, den: int, what: str) -> int:
    """num / den by integer divmod; NonIntegralError names ``what`` if inexact."""
    q, r = divmod(num, den)
    if r:
        g = gcd(num, den) if den > 0 else -gcd(num, den)  # the reduced p/q, q > 0
        raise NonIntegralError(f"{what} is not an integer: {num // g}/{den // g}")
    return q


def max_peak_count(n: int) -> int:
    """floor((n-1)/2), the largest possible circular-peak set size."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return (n - 1) // 2


# ---------------------------------------------------------------------------
# f-vector, Euler characteristic and h-vector


def face_table(n: int) -> tuple[int, ...]:
    """The f-vector (p_{n,-1}, ..., p_{n,D-1}), from which every closed form is derived.

    Row i is p_{n,i} = (n-2i-2)/(i+1) * C(n-1, i), with the binomial
    carried by the ratio recurrence C(n-1, i) = C(n-1, i-1) * (n-i) / i:
    two small-by-big products and two exact divisions per entry instead
    of a fresh binomial.  complex_poset.face_count(n, i) is its per-entry
    oracle.
    """
    row = [1]  # p_{n,-1}
    c = 1  # C(n-1, i)
    for i in range(max_peak_count(n)):
        if i:
            c = c * (n - i) // i
        row.append(exact_quotient((n - 2 * i - 2) * c, i + 1, f"face_table({n}) entry {i}"))
    return tuple(row)


def euler_characteristic_closed_form(n: int) -> int:
    """0 for odd n and 2(-1)^(n/2)/n * C(n-2, (n-2)/2) for even n."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if n % 2:
        return 0
    return exact_quotient(2 * (-1) ** (n // 2) * comb(n - 2, (n - 2) // 2), n,
                          f"closed-form Euler characteristic of P_{n}")


def euler_characteristic(n: int) -> int:
    """Reduced Euler characteristic: alternating sum of the f-vector.

    ClosedFormMismatchError is raised if it differs from
    euler_characteristic_closed_form(n).
    """
    chi = sum((-1) ** (m + 1) * p for m, p in enumerate(face_table(n)))
    closed = euler_characteristic_closed_form(n)
    if chi != closed:
        raise ClosedFormMismatchError(
            f"Euler characteristic of P_{n}: f-vector sum {chi} != closed form {closed}")
    return chi


def h_table(n: int) -> tuple[int, ...]:
    """(h_{n,0}, ..., h_{n,D}), read off one pass of the ratio recurrence.

    h_{n,i} = (half - i)/(half + i) * C(half + i, half) with half =
    floor(n/2); C(half+i, half) = C(half+i-1, half) * (half+i) / i carries
    the binomial from entry to entry.  hvector.h_entry(n, i) is the
    per-entry oracle.
    """
    half = n // 2
    row = []
    c = 1  # C(half + i, half)
    for i in range(max_peak_count(n) + 1):
        if i:
            c = c * (half + i) // i
        row.append(exact_quotient((half - i) * c, half + i, f"h_table({n}) entry {i}"))
    return tuple(row)


# ---------------------------------------------------------------------------
# multichain and strict chain counts


def zeta_values(n: int, i_values: Iterable[int]) -> tuple[int, ...]:
    """zeta(n, i) for each i in i_values, from one build of the f-vector."""
    return _zeta_values_of(n, face_table(n), i_values)


def _zeta_values_of(n: int, f: tuple[int, ...], i_values: Iterable[int]) -> tuple[int, ...]:
    """zeta(n, i) for each i in i_values, from f, the f-vector of P_n.

    Z(P_n, i) = sum_m p_{n,m-1} (i-1)^m, evaluated by integer Horner over
    the f-vector.  This is the one evaluation of the multichain formula:
    zeta, the dimensions of algebra A and the strict chain counts all
    come through here.
    """
    out = []
    for i in map(index, i_values):
        if i < 2:
            raise ValueError("zeta is defined for i >= 2")
        acc = 0
        for p in reversed(f):
            acc = acc * (i - 1) + p
        out.append(as_integer(acc, f"zeta({n}, {i})"))
    return tuple(out)


def zeta(n: int, i: int) -> int:
    """Number of multichains x_1 <= ... <= x_{i-1}; (i-1)^D P_n(1/(i-1))."""
    return zeta_values(n, (i,))[0]


def _forward_differences(z: tuple[int, ...]) -> tuple[int, ...]:
    """((Delta^0 z)_0, ..., (Delta^(len-1) z)_0), by repeated differencing of z."""
    out = []
    while z:
        out.append(z[0])
        z = [b - a for a, b in zip(z, z[1:])]
    return tuple(out)


def _shift_down(c: tuple[int, ...]) -> list[int]:
    """The ascending coefficients of p(x-1), from those of p, by repeated
    synthetic subtraction; exact_algebra.poly_shift is its oracle."""
    c = list(c)
    for k in range(len(c) - 1):
        for j in range(len(c) - 2, k - 1, -1):
            c[j] -= c[j + 1]
    return c


def chain_counts(n: int) -> tuple[int, ...]:
    """(d_{n,0}, ..., d_{n,D+1}): strict chains of i faces, in O(D^2) subtractions.

    Z_k = sum_m p_{n,m-1} (k+1)^m = zeta(n, k+2) counts the multichains
    of k+1 faces (zeta_values).  A multichain of k+1 faces with t+1
    distinct faces arises from C(k, t) of them, so Z_k = sum_t C(k, t)
    d_{n,t+1}, and binomial inversion gives
    d_{n,t+1} = sum_k (-1)^(t-k) C(t, k) Z_k = (Delta^t Z)_0, the t-th
    forward difference at 0 of the row Z_0..Z_D.  d_{n,i} = 0 for i > D+1.
    """
    return (1,) + _forward_differences(zeta_values(n, range(2, max_peak_count(n) + 3)))


# ---------------------------------------------------------------------------
# Hilbert data of the algebras A (dimensions: multichain counts) and B
# (dimensions: strict chain counts)


def hilbert_series_a(n: int, order: int) -> tuple[int, ...]:
    """Coefficients 0..order of the Hilbert series of algebra A, from one f-vector."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return (1,) + zeta_values(n, range(2, order + 2))


def hilbert_a_integers(n: int, order: int
                       ) -> tuple[tuple[int, ...], tuple[int, ...], int, tuple[int, ...]]:
    """Degrees 0..order of A, its rational form (N, e) and its Hilbert polynomial.

    A is the face ring of the order complex of P_n, so Hilb_A(x) =
    Hilb_B(x/(1-x)) = sum_t d_{n,t} x^t / (1-x)^t (Stanley, Combinatorics
    and Commutative Algebra, ch. II), and N(x) = sum_t d_{n,t} x^t (1-x)^(e-t)
    with e = D + 1: the chain counts read from the top, shifted to x - 1.
    chains/zeta-from-chain-counts and hilbert/numerator-rational-form check
    it.  One Horner pass gives the dimensions and the chain counts, and the
    Hilbert polynomial's coefficients are the f-vector itself.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    f = face_table(n)
    exponent = max_peak_count(n) + 1
    z = _zeta_values_of(n, f, range(2, max(order, exponent) + 2))
    numerator = _shift_down(((1,) + _forward_differences(z[:exponent]))[::-1])[::-1]
    while numerator and numerator[-1] == 0:
        numerator.pop()
    return (1,) + z[:order], tuple(numerator), exponent, f
