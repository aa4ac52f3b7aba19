"""Command-line surface.

Subcommands: stats, enum-cp, witness, dyck, faces, fvector, hvector,
zeta, chains, moebius, euler, hilbert, series, verify.  JSON is the
default output format; the tabular commands (enum-cp, fvector, hvector,
zeta, chains, hilbert) also accept --format csv.  Exit
codes: 0 success, 1 validation/usage error, 2 verification failure.
All numbers are emitted exactly, as integers; each payload is rendered
in full before anything is written, so output is all or nothing.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

# fvector, hvector, euler, zeta, chains and hilbert read their numbers off
# the integer core, whose functions are looked up on the module at call
# time.  Every other module is imported only by the branch that runs it,
# so those commands load no oracle.
from .tables import POSET_CAP, ResourceLimitError
from . import tables


TABULAR = ("enum-cp", "fvector", "hvector", "zeta", "chains", "hilbert")
# series --order 500 takes ~0.5 s and prints ~5 MB; the output grows as order^3.
SERIES_ORDER_CAP = 500
# hilbert --algebra A --n 800 --order 2000 takes ~0.5 s and prints ~3 MB
# (--n 200: ~0.1 s); time and output grow as order * n.
HILBERT_ORDER_CAP = 2000
# zeta's poset oracle costs ~4 ms per multichain length at n = 14 and never
# stops early: zeta --n 14 --i 101 takes ~0.4 s in-process, ~0.5 s as a
# subprocess.  Past this length zeta reports no oracle value, as past
# POSET_CAP.  The strict-chain oracle of chains stops after D + 2 lengths.
ZETA_ORACLE_LENGTH_CAP = 100
# --n caps, one per growth class in n of the README table.  The f-vector
# has D = floor((n-1)/2) entries of O(n) bits, so an O(D) command still
# does O(n^2) bit operations: as subprocesses, fvector --n 16000 takes
# ~4.2 s and prints ~56 MB, hvector ~3.6 s, euler and zeta ~0.2 s.
LINEAR_N_CAP = 16000  # fvector, hvector, euler, zeta
# O(D^2): D+1 (hilbert A: D+6) multichain counts.  chains --n 2000 takes
# ~1.3 s, hilbert --algebra A --n 2000 ~1.8 s (~3.2 s and ~10 MB at
# --order 2000).
QUADRATIC_N_CAP = 2000  # chains, hilbert


class CliError(Exception):
    """User-facing validation error; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise CliError(message)


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise CliError(f"expected comma-separated integers, got {text!r}") from exc


def _emit_json(payload, out) -> None:
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_csv(rows, header, out) -> None:
    import csv  # only the CSV forms load it

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    out.write(buf.getvalue())


def _emit_count(args, key: str, value: int, length: int, out) -> None:
    """A count of zeta or chains, with its poset oracle's value up to POSET_CAP.

    The oracle counts the multichains (zeta, up to ZETA_ORACLE_LENGTH_CAP)
    or strict chains of ``length`` faces; its module is loaded only when it
    runs.
    """
    found = None
    if args.n <= POSET_CAP and (key != "zeta" or length <= ZETA_ORACLE_LENGTH_CAP):
        from .chains_zeta import chain_oracle, multichain_oracle

        found = (multichain_oracle if key == "zeta" else chain_oracle)(args.n, length)
    match = None if found is None else value == found
    if args.format == "csv":
        _emit_csv([[args.n, args.i, value, "" if found is None else found,
                    "" if match is None else match]],
                  ["n", "i", "value", "oracle_value", "match"], out)
    else:
        _emit_json({"n": args.n, "i": args.i, key: value,
                    "oracle": found, "match": match}, out)


def build_parser() -> _Parser:
    parser = _Parser(prog="circpeaks", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def cmd(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if name in TABULAR:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    p = cmd("stats", help="circular peak and descent sets of a permutation")
    p.add_argument("--perm", required=True, help="comma-separated values")

    p = cmd("enum-cp", help="all permutations with a given circular peak set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", default="", help="ascending comma-separated values")

    p = cmd("witness", help="construct one permutation realizing a peak set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", default="")

    p = cmd("dyck", help="peak set <-> Dyck-prefix word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", default="")

    p = cmd("faces", help="faces of the complex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, default=None)

    p = cmd("fvector", help="f-vector and f-polynomial")
    p.add_argument("--n", type=int, required=True)

    p = cmd("hvector", help="h-vector and h-polynomial")
    p.add_argument("--n", type=int, required=True)

    p = cmd("zeta", help="multichain counts (zeta polynomial values)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)

    p = cmd("chains", help="strict chain counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)

    p = cmd("moebius", help="Moebius function over a face interval")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", action="append", default=[],
                   help="give twice: lower then upper face")

    p = cmd("euler", help="reduced Euler characteristic")
    p.add_argument("--n", type=int, required=True)

    p = cmd("hilbert", help="graded dimensions and Hilbert data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--algebra", choices=("A", "B"), required=True)
    p.add_argument("--order", type=int, default=8)

    p = cmd("series", help="generating-function expansion (f or h)")
    p.add_argument("--which", choices=("P", "H"), required=True)
    p.add_argument("--order", type=int, default=12)

    p = cmd("verify", help="run oracle cross-check suites")
    p.add_argument("--suite", default="all",
                   help="one of perm, peaksets, complex, chains, hvector, series, "
                        "hilbert or 'all'")
    p.add_argument("--max-n", type=int, default=8, dest="max_n")

    return parser


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CliError(message)


def _require_n(args, cap: int) -> None:
    """--n is at least 3 and at most the command's cap."""
    _require(args.n >= 3, "--n must be >= 3")
    if args.n > cap:
        raise ResourceLimitError(f"{args.command} --n capped at {cap} (got {args.n})")


def _run(args, out) -> int:
    if args.command == "stats":
        from .perm_core import Permutation, circular_descent_set, circular_peak_set

        sigma = Permutation(_parse_int_list(args.perm))
        payload = {
            "n": sigma.n,
            "perm": list(sigma.values),
            "cp": list(circular_peak_set(sigma)),
            "cdes": list(circular_descent_set(sigma)),
        }
        _emit_json(payload, out)

    elif args.command == "enum-cp":
        from .perm_core import enumerate_cp_class

        _require(args.n >= 1, "--n must be >= 1")
        s = _parse_int_list(args.set)
        perms = enumerate_cp_class(args.n, s)
        if args.format == "csv":
            _emit_csv([[",".join(map(str, p.values))] for p in perms],
                      ["permutation"], out)
        else:
            _emit_json({"n": args.n, "set": sorted(set(s)),
                        "count": len(perms),
                        "perms": [list(p.values) for p in perms]}, out)

    elif args.command == "witness":
        from .peak_sets import PeakSet, witness

        _require(args.n >= 3, "--n must be >= 3")
        s = PeakSet(args.n, _parse_int_list(args.set))
        w = witness(args.n, s)
        _emit_json({"n": args.n, "set": list(s.elements),
                    "witness": list(w.values)}, out)

    elif args.command == "dyck":
        from .peak_sets import PeakSet, from_dyck, to_dyck

        _require(args.n >= 3, "--n must be >= 3")
        s = PeakSet(args.n, _parse_int_list(args.set))
        word = to_dyck(s)
        back = from_dyck(args.n, word)
        _emit_json({"n": args.n, "set": list(s.elements),
                    "word": word.letters,
                    "round_trip": list(back.elements)}, out)

    elif args.command == "faces":
        from .complex_poset import face_tuples

        _require(args.n >= 3, "--n must be >= 3")
        # JSON writes each face tuple as a list
        if args.dim is not None:
            _emit_json({"n": args.n, "dim": args.dim,
                        "faces": face_tuples(args.n, args.dim)}, out)
        else:
            by_dim = {str(d): face_tuples(args.n, d)
                      for d in range(-1, tables.max_peak_count(args.n))}
            _emit_json({"n": args.n, "faces_by_dim": by_dim}, out)

    elif args.command == "fvector":
        _require_n(args, LINEAR_N_CAP)
        f = tables.face_table(args.n)
        if args.format == "csv":
            _emit_csv([(args.n, i - 1, p) for i, p in enumerate(f)],
                      ["n", "dim", "count"], out)
        else:
            _emit_json({"n": args.n, "f": f, "f_polynomial": f[::-1]}, out)

    elif args.command == "hvector":
        _require_n(args, LINEAR_N_CAP)
        h = tables.h_table(args.n)
        if args.format == "csv":
            _emit_csv([(args.n, i, v) for i, v in enumerate(h)], ["n", "i", "h"], out)
        else:
            _emit_json({"n": args.n, "h": h, "h_polynomial": h[::-1]}, out)

    elif args.command == "zeta":
        _require_n(args, LINEAR_N_CAP)
        _require(args.i >= 2, "--i must be >= 2 (zeta counts i-1 element multichains)")
        _emit_count(args, "zeta", tables.zeta(args.n, args.i), args.i - 1, out)

    elif args.command == "chains":
        _require_n(args, QUADRATIC_N_CAP)
        _require(args.i >= 1, "--i must be >= 1")
        top = tables.max_peak_count(args.n)
        value = tables.chain_counts(args.n)[args.i] if args.i <= top + 1 else 0
        _emit_count(args, "count", value, args.i, out)

    elif args.command == "moebius":
        from .complex_poset import moebius
        from .peak_sets import PeakSet

        _require(args.n >= 3, "--n must be >= 3")
        _require(len(args.set) == 2,
                 "give --set twice: lower face then upper face")
        s = PeakSet(args.n, _parse_int_list(args.set[0]))
        t = PeakSet(args.n, _parse_int_list(args.set[1]))
        value = moebius(args.n, s, t)
        _emit_json({"n": args.n, "s": list(s.elements), "t": list(t.elements),
                    "moebius": value}, out)

    elif args.command == "euler":
        _require_n(args, LINEAR_N_CAP)
        _emit_json({"n": args.n,
                    "euler": tables.euler_characteristic(args.n)}, out)

    elif args.command == "hilbert":
        _require_n(args, QUADRATIC_N_CAP)
        _require(args.order >= 0, "--order must be >= 0")
        if args.order > HILBERT_ORDER_CAP:
            raise ResourceLimitError(
                f"hilbert --order capped at {HILBERT_ORDER_CAP} (got {args.order})")
        if args.algebra == "B":
            counts = tables.chain_counts(args.n)  # dims and series share it
            dims = counts[: args.order + 1] + (0,) * (args.order + 1 - len(counts))
        elif args.format == "csv":  # the dims alone, without the numerator's longer run
            dims = tables.hilbert_series_a(args.n, args.order)
        else:  # dims, numerator and polynomial share one f-vector
            dims, numerator, exponent, f = tables.hilbert_a_integers(args.n, args.order)
        if args.format == "csv":
            _emit_csv([(args.n, args.algebra, i, d) for i, d in enumerate(dims)],
                      ["n", "algebra", "degree", "dim"], out)
        else:
            payload = {"n": args.n, "algebra": args.algebra, "dims": dims}
            if args.algebra == "A":
                payload.update(numerator=numerator, denominator_exponent=exponent,
                               hilbert_polynomial=f)
            else:
                payload["series_polynomial"] = counts
            _emit_json(payload, out)

    elif args.command == "series":
        _require(args.order >= 3, "--order must be >= 3")
        if args.order > SERIES_ORDER_CAP:
            raise ResourceLimitError(
                f"series --order capped at {SERIES_ORDER_CAP} (got {args.order})")
        # The y^n coefficient is P_n(x) (H_n(x)): the f- (h-)vector, reversed.
        orders = range(3, args.order + 1)
        if args.which == "P":
            from .complex_poset import printed_f_series_discrepancy

            vectors = [tables.face_table(n) for n in orders]
            report = printed_f_series_discrepancy()
        else:
            from .hvector import printed_h_series_discrepancy

            vectors = [tables.h_table(n) for n in orders]
            report = printed_h_series_discrepancy()
        payload = {
            "which": args.which,
            "order": args.order,
            "coefficients": [{"n": n, "poly": v[::-1]} for n, v in zip(orders, vectors)],
            "printed_form_discrepancy": report,
        }
        _emit_json(payload, out)

    elif args.command == "verify":
        from . import verify  # only this subcommand pays for the oracle suites

        results = verify.run_suite(args.suite, args.max_n)
        failed = 0
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            out.write(f"{status}  {r.suite}/{r.name}: {r.detail}\n")
            failed += not r.ok
        out.write(f"{len(results) - failed}/{len(results)} checks passed\n")
        return 2 if failed else 0

    else:
        raise CliError("missing subcommand (try --help)")

    return 0


def run(argv, out=None) -> int:
    """Parse and execute; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    if hasattr(sys, "set_int_max_str_digits"):  # counts outgrow the 4300-digit default
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        return _run(args, out)
    # InvalidPeakSetError and DyckFormatError are ValueErrors.
    except (CliError, ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
