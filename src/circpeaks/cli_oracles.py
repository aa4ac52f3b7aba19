"""The oracle-backed subcommands and the argparse parser of circpeaks.cli.

stats, enum-cp, witness, dyck, faces, moebius and series run an oracle
module or enumerate; ``circpeaks.cli`` imports this module only to run
one of them, or when its hand parser declines a command line and
``build_parser`` must parse it.  verify goes from ``cli`` straight to
``circpeaks.verify``, so a well-formed verify line never loads this
module, and argparse is imported only by ``build_parser``.

Of the package this module imports ``tables`` and ``cli``, whose flag
table, caps and output helpers it shares: each payload is still rendered
in full by ``render``, then written in batches.  Each command loads what
it runs.  faces reads the integer-only face poset (``poset_core``),
and series reads ``tables`` and the pinned ``PRINTED_FORM_REPORTS`` of
``circpeaks.checks``, so neither loads rational arithmetic.
"""

from __future__ import annotations

from . import tables
from .cli import (
    COMMANDS,
    LINEAR_N_CAP,
    REQUIRED,
    SERIES_ORDER_CAP,
    _emit_csv,
    _emit_json,
    _require,
    _require_n,
)
from .checks import PRINTED_FORM_REPORTS  # printed by series, checked by verify

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


def build_parser():
    """The argparse parser of ``COMMANDS``; its errors raise ValueError."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse defaults to exit code 2
            raise ValueError(message)

    parser = Parser(prog="circpeaks", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command")
    for command, (summary, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag, kind, default, choices, text in flags:
            if kind is list:
                p.add_argument(flag, action="append", default=list(default), help=text)
            elif default is REQUIRED:
                p.add_argument(flag, type=kind, choices=choices, required=True, help=text)
            else:
                p.add_argument(flag, type=kind, choices=choices, default=default, help=text)
    return parser


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def run(args, out) -> int:
    """Execute one oracle-backed subcommand; returns the exit code."""
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
            _emit_csv([[",".join(map(str, p.values))] for p in perms], ["permutation"], out)
        else:
            _emit_json({"n": args.n, "set": sorted(set(s)), "count": len(perms),
                        "perms": [list(p.values) for p in perms]}, out)

    elif args.command == "witness":
        from .peak_sets import PeakSet, witness

        _require_n(args, LINEAR_N_CAP)
        s = PeakSet(args.n, _parse_int_list(args.set))
        w = witness(args.n, s)
        _emit_json({"n": args.n, "set": list(s.elements), "witness": list(w.values)}, out)

    elif args.command == "dyck":
        from .peak_sets import PeakSet, from_dyck, to_dyck

        _require_n(args, LINEAR_N_CAP)
        s = PeakSet(args.n, _parse_int_list(args.set))
        word = to_dyck(s)
        back = from_dyck(args.n, word)
        _emit_json({"n": args.n, "set": list(s.elements), "word": word.letters,
                    "round_trip": list(back.elements)}, out)

    elif args.command == "faces":
        from .poset_core import face_tuples

        _require(args.n >= 3, "--n must be >= 3")
        # JSON writes each face tuple as a list
        if args.dim is not None:
            _emit_json({"n": args.n, "dim": args.dim,
                        "faces": face_tuples(args.n, args.dim)}, out)
        else:
            by_dim = {str(d): face_tuples(args.n, d)
                      for d in range(-1, tables.max_peak_count(args.n))}
            _emit_json({"n": args.n, "faces_by_dim": by_dim}, out)

    elif args.command == "moebius":
        from .complex_poset import moebius
        from .peak_sets import PeakSet

        _require(args.n >= 3, "--n must be >= 3")
        _require(len(args.set) == 2, "give --set twice: lower face then upper face")
        s = PeakSet(args.n, _parse_int_list(args.set[0]))
        t = PeakSet(args.n, _parse_int_list(args.set[1]))
        value = moebius(args.n, s, t)
        _emit_json({"n": args.n, "s": list(s.elements), "t": list(t.elements),
                    "moebius": value}, out)

    elif args.command == "series":
        _require(args.order >= 3, "--order must be >= 3")
        if args.order > SERIES_ORDER_CAP:
            raise tables.ResourceLimitError(
                f"series --order capped at {SERIES_ORDER_CAP} (got {args.order})")
        # The y^n coefficient is P_n(x) (H_n(x)): the f- (h-)vector, reversed.
        orders = range(3, args.order + 1)
        table = tables.face_table if args.which == "P" else tables.h_table
        payload = {
            "which": args.which,
            "order": args.order,
            "coefficients": [{"n": n, "poly": table(n)[::-1]} for n in orders],
            "printed_form_discrepancy": PRINTED_FORM_REPORTS[args.which],
        }
        _emit_json(payload, out)

    else:
        raise ValueError("missing subcommand (try --help)")

    return 0
