"""Exact integer polynomial and truncated power-series arithmetic.

Every coefficient is an int: ExactPoly is a polynomial in Z[x], and a
division either is exact in Z[x] or raises InexactDivisionError.  These
types serve the oracles, the generating-function checks and ExactPoly
return values; production paths compute in integers and no floating
point appears anywhere in the library.  Two value kinds live here:

  ExactPoly   -- dense univariate polynomial over Z, coeffs low-to-high
  PolySeries  -- truncated power series in y whose coefficients are
                 ExactPoly values in x; no library module uses it

Combinatorial number helpers (binomial, Catalan, multinomial) are at the bottom.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import comb, factorial

from .record import Record, set_field
# Re-exported from the integer core, which defines them.
from .tables import (
    ClosedFormMismatchError,
    InexactDivisionError,
    NonIntegralError,
    as_integer,
    exact_quotient,
)


def _normalize(coeffs: Iterable) -> tuple[int, ...]:
    out = [c if type(c) is int else as_integer(c, "an ExactPoly coefficient") for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class ExactPoly(Record):
    """Dense univariate polynomial over Z; coeffs[k] is the x^k coefficient.

    Every coefficient is an int: any other value goes through as_integer,
    so an integral one (True, 2.0) becomes an int and any other raises
    NonIntegralError.  The zero polynomial has an empty coefficient tuple.
    Instances are immutable; arithmetic is exact, and a division that
    leaves Z[x] raises InexactDivisionError.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        set_field(self, "coeffs", _normalize(coeffs))

    @staticmethod
    def constant(c: int) -> "ExactPoly":
        return ExactPoly((c,))

    @staticmethod
    def x() -> "ExactPoly":
        return ExactPoly((0, 1))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return ExactPoly(out)

    def __neg__(self) -> "ExactPoly":
        return ExactPoly(-c for c in self.coeffs)

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        return self + (-other)

    def __mul__(self, other: "ExactPoly") -> "ExactPoly":
        if self.is_zero() or other.is_zero():
            return ExactPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return ExactPoly(out)

    def scale(self, c: int) -> "ExactPoly":
        return ExactPoly(c * a for a in self.coeffs)

    def eval(self, q: int) -> int:
        """Exact Horner evaluation; an int at an int point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def compose_linear(self, a: int, b: int) -> "ExactPoly":
        """Return p(a*x + b), expanded exactly: Horner in Z[x] on one list
        of int coefficients, low to high, updated in place."""
        a, b = (as_integer(c, "an ExactPoly coefficient") for c in (a, b))
        acc: list[int] = []
        for c in reversed(self.coeffs):
            # acc <- acc * (a x + b) + c, from the top degree down
            acc.append(0)
            for k in range(len(acc) - 1, 0, -1):
                acc[k] = a * acc[k - 1] + b * acc[k]
            acc[0] = b * acc[0] + c
        return ExactPoly(acc)

    def divmod(self, divisor: "ExactPoly") -> tuple["ExactPoly", "ExactPoly"]:
        """Division with remainder in Z[x]; returns (quotient, remainder).

        A step whose leading coefficient is not a multiple of the divisor's
        raises InexactDivisionError; with a monic divisor (every x - 1 the
        library divides by) none is."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = divisor.coeffs
        dd = len(dv) - 1
        lead = dv[-1]
        if len(rem) - 1 < dd:
            return ExactPoly(()), ExactPoly(rem)
        quot = [0] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c, r = divmod(rem[k], lead)
            if r:
                raise InexactDivisionError(
                    f"dividing by {dv}: {rem[k]} is not a multiple of {lead}")
            if c != 0:
                quot[k - dd] = c
                for j in range(dd + 1):
                    rem[k - dd + j] -= c * dv[j]
        return ExactPoly(quot), ExactPoly(rem)

    def exact_div(self, divisor: "ExactPoly") -> "ExactPoly":
        """Division that must leave no remainder."""
        q, r = self.divmod(divisor)
        if not r.is_zero():
            raise InexactDivisionError(
                f"nonzero remainder {r.coeffs} dividing by {divisor.coeffs}"
            )
        return q

    def derivative(self) -> "ExactPoly":
        return ExactPoly((k + 1) * c for k, c in enumerate(self.coeffs[1:]))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{k}" if c != 1 else f"x^{k}")
        return " + ".join(parts)


def poly_shift(p: ExactPoly) -> ExactPoly:
    """Return p(x - 1)."""
    return p.compose_linear(1, -1)


class PolySeries:
    """Truncated power series in y with ExactPoly (in x) coefficients.

    coeffs[j] is the coefficient polynomial of y^j; the series carries an
    explicit truncation order (coeffs has order+1 entries).  Division is
    the usual coefficient recursion and requires every per-step polynomial
    division to be exact, otherwise InexactDivisionError is raised.

    No library module uses it: both forms of each generating function are
    checked by their coefficient recurrence.  The class stays only because
    the span tracer of the benchmark (perfbench/spans.py, POLY_METHODS)
    patches it and every method it names by name.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[ExactPoly], order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = list(coeffs[: order + 1])
        cs += [ExactPoly(())] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = cs

    def __add__(self, other: "PolySeries") -> "PolySeries":
        order = min(self.order, other.order)
        return PolySeries(
            [self.coeffs[j] + other.coeffs[j] for j in range(order + 1)], order
        )

    def __sub__(self, other: "PolySeries") -> "PolySeries":
        order = min(self.order, other.order)
        return PolySeries(
            [self.coeffs[j] - other.coeffs[j] for j in range(order + 1)], order
        )

    def __mul__(self, other: "PolySeries") -> "PolySeries":
        order = min(self.order, other.order)
        out = [ExactPoly(()) for _ in range(order + 1)]
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a.is_zero():
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return PolySeries(out, order)

    def divide(self, divisor: "PolySeries") -> "PolySeries":
        """Series division; divisor's y^0 coefficient must divide exactly
        in Z[x] at every recursion step, or InexactDivisionError is raised."""
        order = min(self.order, divisor.order)
        lead = divisor.coeffs[0]
        if lead.is_zero():
            raise InexactDivisionError("division by series with zero y^0 coefficient")
        out: list[ExactPoly] = []
        for j in range(order + 1):
            acc = self.coeffs[j]
            for k in range(1, j + 1):
                acc = acc - divisor.coeffs[k] * out[j - k]
            out.append(acc.exact_div(lead))
        return PolySeries(out, order)

    def substitute_y_squared(self) -> "PolySeries":
        """Return the series with y replaced by y^2, same truncation order."""
        out = [ExactPoly(()) for _ in range(self.order + 1)]
        for j, c in enumerate(self.coeffs):
            if 2 * j <= self.order:
                out[2 * j] = c
        return PolySeries(out, self.order)

    def shift_y(self, k: int) -> "PolySeries":
        """Multiply by y^k."""
        return PolySeries([ExactPoly(())] * k + self.coeffs, self.order)


# ---------------------------------------------------------------------------
# combinatorial numbers


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)


def catalan_number(m: int) -> int:
    """c_m = C(2m, m) / (m + 1)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return comb(2 * m, m) // (m + 1)


def multinomial(parts: Sequence[int]) -> int:
    """(sum parts)! / prod(part!)."""
    if any(p < 0 for p in parts):
        raise ValueError("parts must be nonnegative")
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out

