"""Oracle cross-check suites behind the `verify` CLI subcommand.

Every closed form in the library is checked against an independent
brute-force path (exhaustive permutation scan, subset scan, poset chain
enumeration, monomial enumeration, series cross-multiplication).  One
result line per check; all comparisons are bit-exact.

Each suite is one module of circpeaks.checks, holding its check_*
functions and importing only the library modules it checks.  It declares
them through _registry: CHECKS, the (name, fn) list, and RANGES, the n
range of each check at --max-n DEFAULT_MAX_N and its cap.  run_suite
imports a suite's module on first use, so `verify --suite S` compiles
S's checks alone.  SUITES maps each suite name to its CHECKS list, the
same list objects that run_suite reads; it is resolved on access
(PEP 562) and imports every suite.

Within one run_suite call, what several checks share is computed once
and kept in a memo that the call discards when it ends:
- the faces of P_n as ascending tuples (poset_core.face_tuples), from
  which the poset oracles walk the order (no order table is kept);
- the Dyck word of each face (peak_sets.to_dyck), which the two Dyck
  checks share;
- the D-count histogram of the left factors of each length, which both
  Dyck-path laws (face-dyck-counts, h-dyck-endpoint-oracle) read;
- the CP class table of each S_n sweep (perm_core.cp_class_table);
- each composition sum chain_count_formula(n, i).
A check called outside run_suite computes all of these afresh.  The
helpers below import their builders when called and look each one up on
its module, so a suite that needs none of them loads none.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from importlib import import_module

DEFAULT_MAX_N = 8
MIN_MAX_N = 3  # the complex starts at n = 3; below it some checks cover no n
SUITE_NAMES = ("perm", "peaksets", "complex", "chains", "hvector", "series", "hilbert")


# first and last: the ends of the range of n the check ran over, or None.
CheckResult = namedtuple("CheckResult", "suite name ok detail first last")


def _registry(entries) -> tuple[list, dict]:
    """CHECKS and RANGES of a suite, from one (name, fn[, first, top[, cap]])
    entry per check, in run order: at --max-n DEFAULT_MAX_N the check runs
    over first <= n <= top, and at no --max-n past cap, which defaults to top."""
    checks, ranges = [], {}
    for name, fn, *span in entries:
        checks.append((name, fn))
        if span:
            ranges[name] = (*span, span[1]) if len(span) == 2 else tuple(span)
    return checks, ranges


def _suite(suite: str):
    """The module of one suite, imported on first use."""
    return import_module(f"{__package__}.checks.{suite}")


def __getattr__(name):
    if name == "SUITES":
        return {suite: _suite(suite).CHECKS for suite in SUITE_NAMES}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The run memo of the module docstring; None outside run_suite, so a
# check called on its own computes afresh.
_memo: dict | None = None


def _memoized(key, build):
    if _memo is None:
        return build()
    if key not in _memo:
        _memo[key] = build()
    return _memo[key]


def _valid_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """Every face of P_n as an ascending tuple, in face_tuples order."""
    from . import poset_core

    return _memoized(("valid_subsets", n), lambda: tuple(poset_core.face_tuples(n)))


def _dyck_words(n: int) -> tuple:
    """The to_dyck word of each face of P_n, in face_tuples order."""
    from . import peak_sets

    return _memoized(("dyck_words", n), lambda: tuple(
        peak_sets.to_dyck(peak_sets.PeakSet(n, s)) for s in _valid_subsets(n)))


def _left_factor_downs(length: int) -> Counter:
    """How many left factors of the given length have each number of D's."""
    from . import peak_sets

    return _memoized(("left_factor_downs", length), lambda: Counter(
        w.count("D") for w in peak_sets.enumerate_left_factors(length)))


def _cp_class_table(n: int) -> dict[tuple[int, ...], int]:
    from . import perm_core

    return _memoized(("cp_class_table", n), lambda: perm_core.cp_class_table(n))


def _chain_count_formula(n: int, i: int) -> int:
    from . import chains_zeta

    return _memoized(("chain_count_formula", n, i),
                     lambda: chains_zeta.chain_count_formula(n, i))


def run_suite(suite: str, max_n: int = DEFAULT_MAX_N) -> list[CheckResult]:
    """Run one named suite (or 'all'); returns one result per check."""
    if max_n < MIN_MAX_N:
        raise ValueError(f"max_n must be >= {MIN_MAX_N} (got {max_n})")
    names = list(SUITE_NAMES) if suite == "all" else [suite]
    unknown = [s for s in names if s not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite(s): {unknown}; choose from {list(SUITE_NAMES)} or 'all'")
    global _memo
    _memo = {}
    results = []
    try:
        for s in names:
            module = _suite(s)
            for name, fn in module.CHECKS:
                first = last = ns = None
                if name in module.RANGES:  # last moves with max_n, within [first, cap]
                    first, top, cap = module.RANGES[name]
                    last = max(first, min(top + max_n - DEFAULT_MAX_N, cap))
                    ns = range(first, last + 1)
                try:
                    ok, detail = fn(ns)
                except Exception as exc:  # a crash is a failure, not an abort
                    ok, detail = False, f"raised {type(exc).__name__}: {exc}"
                results.append(CheckResult(s, name, ok, detail, first, last))
    finally:
        _memo = None
    return results


def report(suite: str, max_n: int, out) -> int:
    """Run a suite as the verify subcommand does: one line per check, then
    the tally; returns the exit code, 2 if any check failed."""
    results = run_suite(suite, max_n)
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        span = "" if r.first is None else f" [{r.first} <= n <= {r.last}]"
        out.write(f"{status}  {r.suite}/{r.name}: {r.detail}{span}\n")
        failed += not r.ok
    out.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 2 if failed else 0
