#!/usr/bin/env python3
"""Print f-vector, h-vector, and Hilbert tables over a range of n.

Every number is read off the integer core, circpeaks.tables, as the
production subcommands read theirs, so the script loads no oracle module.

Usage: python scripts/make_tables.py [--min-n 3] [--max-n 12] [--order 8]
"""

import argparse

from circpeaks.tables import (
    chain_counts,
    euler_characteristic,
    face_table,
    h_table,
    hilbert_a_integers,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--order", type=int, default=8,
                        help="series truncation order for algebra A")
    args = parser.parse_args()

    print(f"{'n':>3}  {'f-vector':<28} {'h-vector':<22} euler")
    for n in range(args.min_n, args.max_n + 1):
        f = face_table(n)
        h = h_table(n)
        chi = euler_characteristic(n)
        print(f"{n:>3}  {str(list(f)):<28} {str(list(h)):<22} {chi}")

    print()
    print(f"{'n':>3}  {'A dims (deg 0..order)':<40} numerator / (1-x)^e")
    for n in range(args.min_n, args.max_n + 1):
        dims, numerator, exponent, _ = hilbert_a_integers(n, args.order)
        print(f"{n:>3}  {str(list(dims)):<40} {list(numerator)} / (1-x)^{exponent}")

    print()
    print(f"{'n':>3}  B series coefficients")
    for n in range(args.min_n, args.max_n + 1):
        print(f"{n:>3}  {list(chain_counts(n))}")


if __name__ == "__main__":
    main()
