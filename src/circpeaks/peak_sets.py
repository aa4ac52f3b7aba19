"""Realizable circular-peak sets and the Dyck-path left-factor bijection.

A set S = {i_1 < i_2 < ... < i_k} inside [n] is realizable as a circular
peak set iff i_j >= 2j + 1 for every j.  The map to words over {U, D}
(w_i = D iff i+1 in S) is a bijection onto left factors of Dyck paths of
length n-1.
"""

from __future__ import annotations

from math import comb

from .perm_core import Permutation, ResourceLimitError
from .poset_core import _first_violation_sorted  # the criterion, on ascending tuples
from .record import Record, set_field
from .tables import max_peak_count  # re-exported from the integer core


class InvalidPeakSetError(ValueError):
    """Raised when a peak set violates the realizability criterion.

    Carries the smallest violating one-based index j together with the
    offending element and the bound 2j+1 it fails to reach.
    """

    def __init__(self, n: int, elements, j: int, element: int, bound: int):
        self.n = n
        self.elements = tuple(elements)
        self.j = j
        self.element = element
        self.bound = bound
        super().__init__(
            f"{self.elements} is not a circular peak set for n={n}: "
            f"element #{j} is {element} < {bound}"
        )


class DyckFormatError(ValueError):
    """Raised for a malformed Dyck-prefix word."""


class PeakSet(Record):
    """A candidate face: ascending elements inside an ambient [n].

    May be constructed invalid; is_valid decides realizability.
    """

    __slots__ = ("n", "elements")
    n: int
    elements: tuple[int, ...]

    def __init__(self, n: int, elements=()):
        elems = tuple(sorted(set(map(int, elements))))
        if n < 1:
            raise ValueError("ambient size must be >= 1")
        if elems and (elems[0] < 1 or elems[-1] > n):
            raise ValueError(f"elements {elems} not inside [{n}]")
        set_field(self, "n", n)
        set_field(self, "elements", elems)


class DyckPrefix(Record):
    """A word over {U, D} whose every prefix has #U >= #D."""

    __slots__ = ("letters",)
    letters: str

    def __init__(self, letters: str):
        height = 0
        for ch in letters:
            if ch == "U":
                height += 1
            elif ch == "D":
                height -= 1
            else:
                raise DyckFormatError(f"letter {ch!r} is not U or D")
            if height < 0:
                raise DyckFormatError(f"{letters!r} is not a left factor (dips below 0)")
        set_field(self, "letters", letters)


def is_valid(n: int, s: PeakSet | object) -> bool:
    """True iff i_j >= 2j+1 for every j, i.e. CP_n(s) is nonempty."""
    elems = s.elements if isinstance(s, PeakSet) else sorted(set(s))
    if elems and elems[-1] > n:
        return False
    return _first_violation_sorted(elems) is None


def _require_valid(s: PeakSet) -> None:
    if s.elements and s.elements[-1] > s.n:
        raise InvalidPeakSetError(s.n, s.elements, len(s.elements),
                                  s.elements[-1], s.n + 1)
    v = _first_violation_sorted(s.elements)
    if v is not None:
        raise InvalidPeakSetError(s.n, s.elements, *v)


def witness(n: int, s: PeakSet) -> Permutation:
    """A permutation whose circular peak set is exactly s.

    Interleaves the non-peak values below i_k with the peaks, then appends
    i_k+1, ..., n; the empty set yields the identity.
    """
    if isinstance(s, PeakSet) and s.n != n:
        s = PeakSet(n, s.elements)
    _require_valid(s)
    if not s.elements:
        return Permutation.identity(n)
    peaks = s.elements
    top = peaks[-1]
    members = set(peaks)
    rest = [v for v in range(1, top + 1) if v not in members]
    vals: list[int] = []
    for j, p in enumerate(peaks):
        vals.append(rest[j])
        vals.append(p)
    vals.extend(rest[len(peaks):])
    vals.extend(range(top + 1, n + 1))
    return Permutation(vals)


def to_dyck(s: PeakSet) -> DyckPrefix:
    """The length n-1 word with w_i = D iff i+1 in s."""
    _require_valid(s)
    members = set(s.elements)
    return DyckPrefix("".join("D" if i + 1 in members else "U"
                              for i in range(1, s.n)))


def from_dyck(n: int, w: DyckPrefix | str) -> PeakSet:
    """Inverse of to_dyck; the word must have length n-1."""
    if not isinstance(w, DyckPrefix):
        w = DyckPrefix(w)
    if len(w.letters) != n - 1:
        raise DyckFormatError(f"word length {len(w.letters)} != n-1 = {n - 1}")
    return PeakSet(n, (i + 1 for i, ch in enumerate(w.letters, start=1)
                       if ch == "D"))


def count_valid(n: int) -> int:
    """|P_n| = C(n-1, floor((n-1)/2)), the central binomial number."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return comb(n - 1, (n - 1) // 2)


# ---------------------------------------------------------------------------
# brute-force left-factor helpers (test oracles)

LEFT_FACTOR_LENGTH_CAP = 20


def enumerate_left_factors(length: int) -> list[str]:
    """All left factors of the given length, lexicographic (D < U)."""
    if length > LEFT_FACTOR_LENGTH_CAP:
        raise ResourceLimitError(
            f"left-factor enumeration capped at length {LEFT_FACTOR_LENGTH_CAP}"
        )
    words = [("", 0)]
    for _ in range(length):
        nxt = []
        for w, h in words:
            if h > 0:
                nxt.append((w + "D", h - 1))
            nxt.append((w + "U", h + 1))
        words = nxt
    return [w for w, _ in words]


def count_left_factors_to(length: int, height: int) -> int:
    """Brute-force count of left factors of a given length ending at height."""
    if height < 0 or (length - height) % 2:
        return 0
    return sum(1 for w in enumerate_left_factors(length)
               if w.count("U") - w.count("D") == height)
