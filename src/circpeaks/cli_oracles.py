"""The oracle-backed subcommands and the argparse parser of circpeaks.cli.

stats, enum-cp, witness, dyck, faces, moebius, series and verify run an
oracle module or enumerate; ``circpeaks.cli`` imports this module only to
run one of them, or when its hand parser declines a command line and
``build_parser`` must parse it.  Both take the running cli module as an
argument and never import it: under ``python -m circpeaks.cli`` that
module is ``__main__``, and importing ``circpeaks.cli`` would load a
second copy with a second CliError.  argparse is imported only by
``build_parser``, so a well-formed verify or series line never loads it.

Of the package this module imports only ``tables``; each command loads
what it runs.  faces reads the integer-only face poset (``poset_core``),
and series reads ``tables`` and the pinned ``PRINTED_FORM_REPORTS``, so
neither loads rational arithmetic.
"""

from __future__ import annotations

from . import tables

# The help text of the top-level parser; argparse reflows it.
DESCRIPTION = """Command-line surface.

Subcommands: stats, enum-cp, witness, dyck, faces, fvector, hvector,
zeta, chains, moebius, euler, hilbert, series, verify.  JSON is the
default output format; the tabular commands (enum-cp, fvector, hvector,
zeta, chains, hilbert) also accept --format csv.  Exit
codes: 0 success, 1 validation/usage error, 2 verification failure.
All numbers are emitted exactly, as integers; each payload is rendered
in full before anything is written, so output is all or nothing.
"""


# What series prints as its printed_form_discrepancy, for --which P and H:
# complex_poset.printed_f_series_discrepancy() and
# hvector.printed_h_series_discrepancy(), pinned because neither depends
# on --order.  The checks series/printed-{f,h}-series-form of verify fail
# if either computed report differs from its pinned copy.
PRINTED_FORM_REPORTS = {
    "P": {
        "formula": "P(x,y) printed form (cross-multiplied)",
        "first_mismatch_y_order": 4,
        "lhs_coefficient": "x^3 + 2*x^2 + -1",
        "rhs_coefficient": "-1*x",
        "note": "printed denominator x-(x+1)y^2 should be x-(x+1)^2 y^2 and the "
                "numerator factor x(x+2)-xC(y^2) should be (x+1)((x+1)-C(y^2)); "
                "the shipped series uses the corrected form, which matches the "
                "recurrence-generated polynomials on the whole tested range",
    },
    "H": {
        "formula": "H(x,y) printed form (cross-multiplied)",
        "first_mismatch_y_order": 4,
        "lhs_coefficient": "x^3 + -1*x^2 + -1*x",
        "rhs_coefficient": "-1*x + 1",
        "note": "inherits the f-series misprint under x -> x-1; the shipped "
                "series uses the corrected form (x-1) - x^2 y^2 denominator",
    },
}


def build_parser(cli):
    """The argparse parser of ``cli.COMMANDS``; its errors raise ``cli.CliError``."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse defaults to exit code 2
            raise cli.CliError(message)

    parser = Parser(prog="circpeaks", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command")
    for command, (summary, flags) in cli.COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag, kind, default, choices, text in flags:
            if kind is list:
                p.add_argument(flag, action="append", default=list(default), help=text)
            elif default is cli.REQUIRED:
                p.add_argument(flag, type=kind, choices=choices, required=True, help=text)
            else:
                p.add_argument(flag, type=kind, choices=choices, default=default, help=text)
    return parser


def _parse_int_list(text: str, cli) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise cli.CliError(f"expected comma-separated integers, got {text!r}") from exc


def run(args, out, cli) -> int:
    """Execute one oracle-backed subcommand; returns the exit code."""
    if args.command == "stats":
        from .perm_core import Permutation, circular_descent_set, circular_peak_set

        sigma = Permutation(_parse_int_list(args.perm, cli))
        payload = {
            "n": sigma.n,
            "perm": list(sigma.values),
            "cp": list(circular_peak_set(sigma)),
            "cdes": list(circular_descent_set(sigma)),
        }
        cli._emit_json(payload, out)

    elif args.command == "enum-cp":
        from .perm_core import enumerate_cp_class

        cli._require(args.n >= 1, "--n must be >= 1")
        s = _parse_int_list(args.set, cli)
        perms = enumerate_cp_class(args.n, s)
        if args.format == "csv":
            cli._emit_csv([[",".join(map(str, p.values))] for p in perms],
                          ["permutation"], out)
        else:
            cli._emit_json({"n": args.n, "set": sorted(set(s)),
                            "count": len(perms),
                            "perms": [list(p.values) for p in perms]}, out)

    elif args.command == "witness":
        from .peak_sets import PeakSet, witness

        cli._require_n(args, cli.LINEAR_N_CAP)
        s = PeakSet(args.n, _parse_int_list(args.set, cli))
        w = witness(args.n, s)
        cli._emit_json({"n": args.n, "set": list(s.elements),
                        "witness": list(w.values)}, out)

    elif args.command == "dyck":
        from .peak_sets import PeakSet, from_dyck, to_dyck

        cli._require_n(args, cli.LINEAR_N_CAP)
        s = PeakSet(args.n, _parse_int_list(args.set, cli))
        word = to_dyck(s)
        back = from_dyck(args.n, word)
        cli._emit_json({"n": args.n, "set": list(s.elements),
                        "word": word.letters,
                        "round_trip": list(back.elements)}, out)

    elif args.command == "faces":
        from .poset_core import face_tuples

        cli._require(args.n >= 3, "--n must be >= 3")
        # JSON writes each face tuple as a list
        if args.dim is not None:
            cli._emit_json({"n": args.n, "dim": args.dim,
                            "faces": face_tuples(args.n, args.dim)}, out)
        else:
            by_dim = {str(d): face_tuples(args.n, d)
                      for d in range(-1, tables.max_peak_count(args.n))}
            cli._emit_json({"n": args.n, "faces_by_dim": by_dim}, out)

    elif args.command == "moebius":
        from .complex_poset import moebius
        from .peak_sets import PeakSet

        cli._require(args.n >= 3, "--n must be >= 3")
        cli._require(len(args.set) == 2,
                     "give --set twice: lower face then upper face")
        s = PeakSet(args.n, _parse_int_list(args.set[0], cli))
        t = PeakSet(args.n, _parse_int_list(args.set[1], cli))
        value = moebius(args.n, s, t)
        cli._emit_json({"n": args.n, "s": list(s.elements), "t": list(t.elements),
                        "moebius": value}, out)

    elif args.command == "series":
        cli._require(args.order >= 3, "--order must be >= 3")
        if args.order > cli.SERIES_ORDER_CAP:
            raise tables.ResourceLimitError(
                f"series --order capped at {cli.SERIES_ORDER_CAP} (got {args.order})")
        # The y^n coefficient is P_n(x) (H_n(x)): the f- (h-)vector, reversed.
        orders = range(3, args.order + 1)
        table = tables.face_table if args.which == "P" else tables.h_table
        payload = {
            "which": args.which,
            "order": args.order,
            "coefficients": [{"n": n, "poly": table(n)[::-1]} for n in orders],
            "printed_form_discrepancy": PRINTED_FORM_REPORTS[args.which],
        }
        cli._emit_json(payload, out)

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
        raise cli.CliError("missing subcommand (try --help)")

    return 0
