"""Independent output checkers for the circpeaks CLI.

Every expected value is recomputed here from first principles with
``math.comb`` and plain integers.  Nothing in this file imports
``circpeaks``, so a fault in a library formula cannot hide by agreeing
with itself.  The identities used, with D = floor((n-1)/2):

* faces: p_{n,i} = C(n-1, i+1) - C(n-1, i) for i = -1 .. D-1 (ballot numbers);
* h-vector: h_k = sum_{i<=k} (-1)^(k-i) C(D-i, k-i) p_{n,i-1};
* zeta: Z(n, i) = sum_k p_{n,k-1} (i-1)^k;
* strict chains of i faces: sum_m p_{n,m-1} sum_j (-1)^j C(i-1, j) (i-j)^m,
  the number of ways to place the m vertices of the top face on levels
  1..i with every level above the first used (Stanley, EC1 3.12);
* reduced Euler characteristic: sum_i (-1)^i p_{n,i};
* algebra A: dim_i = Z(n, i+1), and numerator / (1-x)^e must re-expand
  to those dimensions; algebra B: dim_i = strict chains of i faces.

``check(argv, status, stdout)`` returns None when the output of one CLI
call is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import re
from itertools import accumulate
from math import comb


def _c(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def top(n: int) -> int:
    """D = floor((n-1)/2), the largest size of a face."""
    return (n - 1) // 2


def f_vector(n: int) -> list[int]:
    """(p_{n,-1}, p_{n,0}, ..., p_{n,D-1}) as ballot-number differences."""
    return [_c(n - 1, i + 1) - _c(n - 1, i) for i in range(-1, top(n))]


def h_vector(n: int) -> list[int]:
    """h_0 .. h_D by the binomial transform of the f-vector."""
    d, f = top(n), f_vector(n)
    return [sum((-1) ** (k - i) * _c(d - i, k - i) * f[i] for i in range(k + 1))
            for k in range(d + 1)]


def f_polynomial(n: int) -> list[int]:
    """Coefficients of P_n(x) = sum_i p_{n,i-1} x^(D-i), low degree first."""
    return f_vector(n)[::-1]


def h_polynomial(n: int) -> list[int]:
    """Coefficients of H_n(x) = P_n(x-1), low degree first."""
    return h_vector(n)[::-1]


def _rank_polynomial(f: list[int], x: int) -> int:
    """sum_k f[k] x^k by Horner's rule."""
    acc = 0
    for p in reversed(f):
        acc = acc * x + p
    return acc


def zeta(n: int, i: int) -> int:
    """Multichains of i-1 faces."""
    return _rank_polynomial(f_vector(n), i - 1)


def chain_count(n: int, i: int) -> int:
    """Strictly increasing chains of i faces (the empty face included)."""
    if i == 0:
        return 1
    return sum(p * sum((-1) ** j * _c(i - 1, j) * (i - j) ** m for j in range(i))
               for m, p in enumerate(f_vector(n)))


def euler(n: int) -> int:
    """Reduced Euler characteristic, the alternating sum of the f-vector."""
    return sum(p if k % 2 else -p for k, p in enumerate(f_vector(n)))


def expand_rational(numerator: list[int], exponent: int, count: int) -> list[int]:
    """First ``count`` coefficients of numerator(x) / (1-x)^exponent.

    Dividing by 1-x takes partial sums, so this is ``exponent`` rounds of
    partial sums over the padded numerator.
    """
    seq = (list(numerator) + [0] * count)[:count]
    for _ in range(exponent):
        seq = list(accumulate(seq))
    return seq


def _options(argv) -> tuple[str, dict[str, str]]:
    """Subcommand and its ``--key value`` options."""
    return argv[0], {argv[k][2:]: argv[k + 1] for k in range(1, len(argv), 2)}


def _expect(label: str, got, want) -> str | None:
    if got == want:
        return None
    return f"{label}: got {_short(got)}, expected {_short(want)}"


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _oracle_agrees(out: dict, value: int) -> str | None:
    """The CLI may or may not run its oracle; if it does, it must agree."""
    if out["oracle"] is None:
        return _expect("match without oracle", out["match"], None)
    return _expect("oracle", out["oracle"], value) or _expect("match", out["match"], True)


def _check_verify(text: str) -> str | None:
    lines = text.splitlines()
    if not lines:
        return "no output"
    checks, summary = lines[:-1], lines[-1]
    bad = [line for line in checks if not re.match(r"PASS  [\w-]+/[\w-]+: ", line)]
    if bad:
        return f"not PASS: {_short(bad[0])}"
    k = len(checks)
    return None if k and summary == f"{k}/{k} checks passed" else f"summary {summary!r}"


def _check_json(command: str, opts: dict, out: dict) -> str | None:
    n = int(opts["n"]) if "n" in opts else None
    if n is not None and out.get("n") != n:
        return _expect("n", out.get("n"), n)
    if command == "fvector":
        return (_expect("f", out["f"], f_vector(n))
                or _expect("f_polynomial", out["f_polynomial"], f_polynomial(n)))
    if command == "hvector":
        return (_expect("h", out["h"], h_vector(n))
                or _expect("h_polynomial", out["h_polynomial"], h_polynomial(n)))
    if command == "euler":
        return _expect("euler", out["euler"], euler(n))
    if command == "zeta":
        value = zeta(n, int(opts["i"]))
        return _expect("zeta", out["zeta"], value) or _oracle_agrees(out, value)
    if command == "chains":
        value = chain_count(n, int(opts["i"]))
        return _expect("count", out["count"], value) or _oracle_agrees(out, value)
    if command == "hilbert":
        return _check_hilbert(n, opts, out)
    if command == "series":
        order = int(opts["order"])
        poly = f_polynomial if opts["which"] == "P" else h_polynomial
        want = [{"n": m, "poly": poly(m)} for m in range(3, order + 1)]
        return _expect("coefficients", out["coefficients"], want)
    return f"no checker for {command!r}"


def _check_hilbert(n: int, opts: dict, out: dict) -> str | None:
    order = int(opts.get("order", 8))
    if opts["algebra"] == "B":
        return (_expect("dims", out["dims"], [chain_count(n, i) for i in range(order + 1)])
                or _expect("series_polynomial", out["series_polynomial"],
                           [chain_count(n, i) for i in range(top(n) + 2)]))
    numerator, exponent = out["numerator"], out["denominator_exponent"]
    # Two coefficients past the numerator's degree: a shorter numerator
    # that happened to match the low dims would disagree there.
    count = max(order + 1, len(numerator) + 2)
    f = f_vector(n)
    dims = [_rank_polynomial(f, t) for t in range(count)]  # zeta(n, t+1)
    return (_expect("dims", out["dims"], dims[: order + 1])
            or _expect("numerator/(1-x)^e", expand_rational(numerator, exponent, count), dims)
            or _expect("hilbert_polynomial", out["hilbert_polynomial"], f_vector(n)))


def check(argv, status: int, stdout: str) -> str | None:
    """None if one CLI call exited 0 with the right output, else why not."""
    if status != 0:
        return f"exit status {status}"
    command, opts = _options(argv)
    if command == "verify":
        return _check_verify(stdout)
    try:
        out = json.loads(stdout)
        return _check_json(command, opts, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
