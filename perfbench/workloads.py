"""Seeded operation lists, one per workload.

A workload is one round of CLI command lines; the benchmark repeats
whole rounds.  The seed jitters sizes and picks the free parameters, and
shuffles the order.  Each size is drawn from a narrow band around a
fixed base, so every seed asks for about the same total work: the
figures of two seeds may then be compared, and a change in them is the
program's, not the draw's.
"""

from __future__ import annotations

import random

SUITES = ("perm", "peaksets", "complex", "chains", "hvector", "series", "hilbert")


def _near(rng: random.Random, base: int, spread: float = 0.05) -> int:
    d = int(base * spread)
    return base + rng.randint(-d, d)


def large_n(rng: random.Random) -> list[list[str]]:
    """Closed forms at n in the hundreds; no oracle, no chain enumeration."""
    ops = []
    for base in (200, 400, 600, 800):
        ops.append(["fvector", "--n", str(_near(rng, base))])
        ops.append(["euler", "--n", str(_near(rng, base))])
        ops.append(["zeta", "--n", str(_near(rng, base)), "--i", str(rng.randint(2, 9))])
    for base in (150, 300, 450, 600):
        ops.append(["hvector", "--n", str(_near(rng, base))])
    for base in (120, 240, 360, 480):
        ops.append(["hilbert", "--n", str(_near(rng, base)), "--algebra", "A",
                    "--order", str(rng.randint(4, 12))])
    return ops


def chains_series(rng: random.Random) -> list[list[str]]:
    """Composition sums, the poset oracle, and PolySeries division."""
    ops = []
    # The composition sum grows ~2x per step in n, so n is fixed; the
    # seed picks an order past the last nonzero dimension, where every
    # order costs the same.
    for n in (12, 14, 16, 18, 20):
        ops.append(["hilbert", "--n", str(n), "--algebra", "B",
                    "--order", str((n - 1) // 2 + 1 + rng.randint(0, 3))])
    # Small i: the cost of one composition sum climbs steeply with i.
    for n in (15, 17, 19, 20, 21):
        ops.append(["chains", "--n", str(n), "--i", str(rng.randint(2, 5))])
    # n <= 14: the CLI also runs its O(|P_n|^2) poset oracle, whose cost
    # grows with i.
    ops.append(["chains", "--n", "12", "--i", str(rng.randint(2, 5))])
    ops.append(["chains", "--n", "14", "--i", str(rng.randint(2, 3))])
    ops.append(["zeta", "--n", "13", "--i", str(rng.randint(3, 4))])
    ops.append(["zeta", "--n", "14", "--i", str(rng.randint(2, 3))])
    for base in (20, 30, 40, 50, 60, 70, 80, 80):
        ops.append(["series", "--which", rng.choice("PH"), "--order", str(_near(rng, base))])
    return ops


def verify_all(rng: random.Random) -> list[list[str]]:
    """Every oracle suite once, at the default --max-n; the seed sets the order."""
    return [["verify", "--suite", s, "--max-n", "8"] for s in SUITES]


WORKLOADS = {"large_n": large_n, "chains_series": chains_series, "verify_all": verify_all}


def build(workload: str, seed: int) -> list[list[str]]:
    """The command lines of one round of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops
