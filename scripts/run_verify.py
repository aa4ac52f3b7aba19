#!/usr/bin/env python3
"""Run the oracle cross-check suites and exit nonzero on any failure.

Usage: python scripts/run_verify.py [--suite all] [--max-n 8]
"""

import argparse
import sys
import time

from circpeaks import verify


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", default="all",
                        help=f"one of {', '.join(verify.SUITES)} or 'all'")
    parser.add_argument("--max-n", type=int, default=8, dest="max_n")
    args = parser.parse_args()

    started = time.perf_counter()
    try:
        results = verify.run_suite(args.suite, args.max_n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    failed = [r for r in results if not r.ok]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {r.suite}/{r.name}: {r.detail}")
    elapsed = time.perf_counter() - started
    print(f"{len(results) - len(failed)}/{len(results)} checks passed "
          f"in {elapsed:.1f}s")
    sys.exit(2 if failed else 0)


if __name__ == "__main__":
    main()
