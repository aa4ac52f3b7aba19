"""The face poset of P_n on plain tuples and bitmasks: the integer-only oracles.

The faces of P_n are the sets {i_1 < ... < i_k} inside [3, n] with
i_j >= 2j + 1 for every j.  face_tuples enumerates them as ascending
tuples.  P_n is downward closed, so the faces below a face are the
submasks of its bitmask: _faces_below walks them for one face, the
Moebius recursion _moebius_from (complex/moebius-closed-form) sums over
the submasks between two faces, and the chain oracles multichain_oracle
and chain_oracle run one subset-sum pass per length over all faces; no
order table is stored.  Like circpeaks.tables, this module imports
nothing of the package but tables, and no rational arithmetic, so zeta,
chains and faces run their oracles on it alone; peak_sets, complex_poset
and chains_zeta re-export most of its names.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import combinations

from .tables import POSET_CAP, ResourceLimitError, max_peak_count


def _first_violation_sorted(elems) -> tuple[int, int, int] | None:
    """(j, i_j, 2j+1) for the smallest violating index of ascending elems, or None."""
    bound = 3  # 2j + 1 for the j-th element
    for e in elems:
        if e < bound:
            return bound // 2, e, bound
        bound += 2
    return None


def _check_poset_cap(n: int) -> None:
    if n > POSET_CAP:
        raise ResourceLimitError(
            f"exhaustive face/poset enumeration capped at n <= {POSET_CAP} (got n={n})"
        )


def face_tuples(n: int, dim: int | None = None) -> list[tuple[int, ...]]:
    """The faces of one dimension (of every dimension if dim is None) as
    ascending tuples, ordered by dimension, then lexicographically.

    This is the one face enumerator: each candidate combination of [3, n]
    is tested with the validity criterion.  complex_poset.faces wraps its
    tuples in PeakSet; the oracles read the tuples directly.
    """
    top = max_peak_count(n) - 1
    dims = range(-1, top + 1) if dim is None else [dim] if -1 <= dim <= top else []
    out: list[tuple[int, ...]] = []
    for d in dims:
        if d == -1:
            out.append(())
        else:
            _check_poset_cap(n)
            out.extend(c for c in combinations(range(3, n + 1), d + 1)
                       if _first_violation_sorted(c) is None)
    return out


def _mask(elements) -> int:
    """The bitmask of a face: bit x is set iff x is an element."""
    m = 0
    for x in elements:
        m |= 1 << x
    return m


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of mask, mask itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _moebius_from(faces, bottom: int) -> Callable[[int], int]:
    """u -> mu(bottom, u) by the recursion, for face bitmasks u over bottom.

    faces is any container of face bitmasks.  mu(bottom, u) is minus the
    sum of mu(bottom, bottom | s) over the proper submasks s of u ^ bottom
    with bottom | s in faces.  The returned function memoizes the value of
    each face it has evaluated, so the calls for every upper face over one
    bottom share them.  It does not check its argument.
    """
    values = {bottom: 1}  # mu(bottom, u) of each face u evaluated so far

    def mu(upper: int) -> int:
        if upper not in values:
            between = _submasks(upper ^ bottom)
            next(between)  # upper itself
            values[upper] = -sum(mu(bottom | s) for s in between if bottom | s in faces)
        return values[upper]

    return mu


def _faces_below(mask: int, index: dict[int, int]) -> Iterator[int]:
    """index[s] for each submask s of mask in index, a dict {face mask: value}."""
    return (index[s] for s in _submasks(mask) if s in index)


class NotDownwardClosedError(ValueError):
    """Raised for a face list that lacks a subface of one of its faces."""


def _poset_chain_counts(faces, length: int, strict: bool) -> list[int]:
    """Tuples of k faces, each below the next (strictly if strict), for k = 0..length.

    faces is a downward closed face_tuples list.  g[m] counts the tuples of
    the current length ending at face m.  One subset-sum pass (for each bit
    in ascending order, g[m] += g[m ^ bit] for every face m holding it)
    sums g over the faces below each face; a strict sum then subtracts the
    face's own term.  Once every count is zero no longer tuple exists, so
    the list stops after its first zero: a k past its end counts 0.  That
    never happens for multichains, as every face is below itself.
    """
    g = dict.fromkeys(map(_mask, faces), 1)
    for c in faces:
        m = _mask(c)
        for x in c:
            if m ^ 1 << x not in g:
                raise NotDownwardClosedError(f"face {c} lacks its subface without {x}")
    passes = [(1 << b, [m for m in g if m >> b & 1]) for b in range(max(g, default=0).bit_length())]
    out = [1]
    while len(out) <= length and out[-1]:
        if len(out) > 1:
            own = dict(g) if strict else {}
            for bit, holding in passes:
                for m in holding:
                    g[m] += g[m ^ bit]
            for m, count in own.items():
                g[m] -= count
        out.append(sum(g.values()))
    return out


def multichain_oracle(n: int, length: int) -> int:
    """Exhaustive count of weakly increasing length-tuples of faces."""
    if length < 0:
        raise ValueError("length must be >= 0")
    return _poset_chain_counts(face_tuples(n), length, False)[length]


def chain_oracle(n: int, i: int) -> int:
    """Exhaustive count of strictly increasing i-tuples of faces."""
    if i < 0:
        raise ValueError("i must be >= 0")
    counts = _poset_chain_counts(face_tuples(n), i, True)
    return counts[i] if i < len(counts) else 0
