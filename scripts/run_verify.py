#!/usr/bin/env python3
"""Run the oracle cross-check suites through `circpeaks verify`, with timing.

Usage: python scripts/run_verify.py [--suite all] [--max-n 8]

Prints what `circpeaks verify` prints, then the elapsed time, and exits
with its code: 0 all passed, 1 usage error, 2 a check failed.
"""

import sys
import time

from circpeaks import cli


def main() -> None:
    started = time.perf_counter()
    code = cli.run(["verify", *sys.argv[1:]])
    print(f"elapsed {time.perf_counter() - started:.2f}s")
    sys.exit(code)


if __name__ == "__main__":
    main()
