"""The face poset of P_n on plain tuples and bitmasks: the integer-only oracles.

The faces of P_n are the sets {i_1 < ... < i_k} inside [3, n] with
i_j >= 2j + 1 for every j.  face_tuples enumerates them as ascending
tuples; down_sets turns them into bitmasks and lists, for each face, the
faces below it; multichain_oracle and chain_oracle count the weak and
strict chains of the poset by one integer DP over those lists.  Like
circpeaks.tables, this module imports nothing of the package but tables,
and no rational arithmetic, so zeta, chains and faces run their oracles
on it alone.  peak_sets (the validity criterion), complex_poset (the
enumeration and the down-sets) and chains_zeta (the chain oracles)
re-export these names.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations

from .tables import POSET_CAP, ResourceLimitError, max_peak_count


def _first_violation_sorted(elems) -> tuple[int, int, int] | None:
    """(j, i_j, 2j+1) for the smallest violating index of ascending elems, or None."""
    for j, e in enumerate(elems, start=1):
        if e < 2 * j + 1:
            return j, e, 2 * j + 1
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


def down_sets(faces) -> list[list[int]]:
    """For each face of a face_tuples list, the indices of the faces it contains.

    The face's own index comes first, so the faces strictly below it are
    the rest of its list.  They are the submasks of its bitmask that are
    faces, at most 2^D of them with D = floor((n-1)/2); each is looked up
    in the face index.  That is O(m 2^D) lookups for the m faces, instead
    of comparing all m^2 pairs.
    """
    masks = [_mask(c) for c in faces]
    index = {m: j for j, m in enumerate(masks)}
    return [[index[s] for s in _submasks(m) if s in index] for m in masks]


def _poset_chain_counts(down: list[list[int]], length: int, strict: bool) -> list[int]:
    """Tuples of k faces, each below the next (strictly if strict), for k = 0..length.

    down is down_sets of the faces.  counts[j] is the number of tuples of
    the current length ending at face j, summed over the faces below face
    j; a strict sum leaves out js[0], face j itself.  Once every count is
    zero no longer tuple exists, so the list stops after its first zero:
    a k past its end counts 0.  That never happens for multichains, as
    every face is below itself.
    """
    out, counts = [1], [1] * len(down)
    while len(out) <= length and out[-1]:
        if len(out) > 1:
            counts = [sum(counts[j] for j in js) - strict * counts[js[0]] for js in down]
        out.append(sum(counts))
    return out


def multichain_oracle(n: int, length: int) -> int:
    """Exhaustive count of weakly increasing length-tuples of faces."""
    if length < 0:
        raise ValueError("length must be >= 0")
    return _poset_chain_counts(down_sets(face_tuples(n)), length, False)[length]


def chain_oracle(n: int, i: int) -> int:
    """Exhaustive count of strictly increasing i-tuples of faces."""
    if i < 0:
        raise ValueError("i must be >= 0")
    counts = _poset_chain_counts(down_sets(face_tuples(n)), i, True)
    return counts[i] if i < len(counts) else 0
