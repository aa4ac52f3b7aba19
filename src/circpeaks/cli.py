"""Command-line entry point: the flag table, the hand parser and the integer-core commands.

``python -m circpeaks.cli <command> --flag value ...`` (or the
``circpeaks`` script) prints one JSON payload, or CSV rows for the
tabular commands.  Exit codes: 0 success, 1 validation/usage error,
2 verification failure.  All numbers are emitted exactly, as integers;
each payload is rendered in full before anything is written, so output
is all or nothing.

Every process compiles this module, so it holds only what a well-formed
command line of fvector, hvector, euler, zeta, chains or hilbert needs:
``COMMANDS``, which declares each subcommand's flags once; ``parse``, which
reads ``<command> --flag value ...`` by hand; and those six commands,
which read their numbers off the integer core (``tables``).  Any other
spelling, --help, ``--n=5``, an abbreviated, repeated or unknown flag or
a bad value, goes to the argparse parser that ``cli_oracles`` builds from
the same table, which prints the same help and errors.  ``cli_oracles``
also runs the eight oracle-backed commands: stats, enum-cp, witness,
dyck, faces, moebius, series and verify.  It is imported only then, and
argparse only when a command line falls back.
"""

from __future__ import annotations

import io
import json
import sys
from types import SimpleNamespace

# The six commands look the integer core's functions up on the module at
# call time.
from .tables import POSET_CAP, ResourceLimitError
from . import tables


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
# zeta(n, i) = sum_k p_{n,k-1} (i-1)^k has about D * (i-1).bit_length()
# bits, D = floor((n-1)/2), and CPython renders an int in time quadratic
# in its length.  As subprocesses, zeta --n 16000 --i 10**12 (~0.32M bits)
# takes ~0.5 s and --i 2**130 + 1 (~1.05M bits, just under this cap)
# ~2.8 s; past the cap zeta stops before computing.
ZETA_BITS_CAP = 1 << 20
# --n caps, one per growth class in n of the README table.  The f-vector
# has D = floor((n-1)/2) entries of O(n) bits, so an O(D) command still
# does O(n^2) bit operations: as subprocesses, fvector --n 16000 takes
# ~4.2 s and prints ~56 MB, hvector ~3.6 s, euler and zeta ~0.2 s,
# witness and dyck ~0.1 s.
LINEAR_N_CAP = 16000  # fvector, hvector, euler, zeta, witness, dyck
# O(D^2): D+1 (hilbert A: D+6) multichain counts.  chains --n 2000 takes
# ~1.3 s, hilbert --algebra A --n 2000 ~1.8 s (~3.2 s and ~10 MB at
# --order 2000).
QUADRATIC_N_CAP = 2000  # chains, hilbert

# Every subcommand, in help order: (help, flags).  A flag is (name, type,
# default, choices, help); the default REQUIRED makes it required, and the
# type list makes it an append flag.  The attribute is the name without
# its dashes, with "-" read as "_".
REQUIRED = object()
_N = ("--n", int, REQUIRED, None, None)
_I = ("--i", int, REQUIRED, None, None)
_SET = ("--set", str, "", None, None)
_FORMAT = ("--format", str, "json", ("json", "csv"), None)  # the tabular commands
COMMANDS = {
    "stats": ("circular peak and descent sets of a permutation",
              (("--perm", str, REQUIRED, None, "comma-separated values"),)),
    "enum-cp": ("all permutations with a given circular peak set",
                (_FORMAT, _N, ("--set", str, "", None, "ascending comma-separated values"))),
    "witness": ("construct one permutation realizing a peak set", (_N, _SET)),
    "dyck": ("peak set <-> Dyck-prefix word", (_N, _SET)),
    "faces": ("faces of the complex", (_N, ("--dim", int, None, None, None))),
    "fvector": ("f-vector and f-polynomial", (_FORMAT, _N)),
    "hvector": ("h-vector and h-polynomial", (_FORMAT, _N)),
    "zeta": ("multichain counts (zeta polynomial values)", (_FORMAT, _N, _I)),
    "chains": ("strict chain counts", (_FORMAT, _N, _I)),
    "moebius": ("Moebius function over a face interval",
                (_N, ("--set", list, (), None, "give twice: lower then upper face"))),
    "euler": ("reduced Euler characteristic", (_N,)),
    "hilbert": ("graded dimensions and Hilbert data",
                (_FORMAT, _N, ("--algebra", str, REQUIRED, ("A", "B"), None),
                 ("--order", int, 8, None, None))),
    "series": ("generating-function expansion (f or h)",
               (("--which", str, REQUIRED, ("P", "H"), None),
                ("--order", int, 12, None, None))),
    "verify": ("run oracle cross-check suites",
               (("--suite", str, "all", None,
                 "one of perm, peaksets, complex, chains, hvector, series, "
                 "hilbert or 'all'"),
                ("--max-n", int, 8, None, None))),
}


class CliError(Exception):
    """User-facing validation error; exits with code 1."""


def parse(argv):
    """The arguments of ``<command> --flag value ...``, or None for argparse.

    Each flag of the command may appear once, the append flag --set of
    moebius any number of times, and every required flag must.  A value
    that starts with "-" is left to argparse, which reads "-3" as a value
    and "-h" as a flag.  Ints are read with int(), as argparse reads them,
    so whatever this accepts, argparse parses to the same values.
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    flags = {spec[0]: spec for spec in COMMANDS[argv[0]][1]}
    values = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        if flag not in flags or text.startswith("-"):
            return None
        _, kind, _, choices, _ = flags[flag]
        if kind is list:
            values.setdefault(flag, []).append(text)
        elif flag in values or (choices and text not in choices):
            return None
        elif kind is int:
            try:
                values[flag] = int(text)
            except ValueError:
                return None
        else:
            values[flag] = text
    for flag, kind, default, _, _ in flags.values():
        if flag not in values:
            if default is REQUIRED:
                return None
            values[flag] = list(default) if kind is list else default
    return SimpleNamespace(command=argv[0],
                           **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


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
        from .poset_core import chain_oracle, multichain_oracle

        found = (multichain_oracle if key == "zeta" else chain_oracle)(args.n, length)
    match = None if found is None else value == found
    if args.format == "csv":
        _emit_csv([[args.n, args.i, value, "" if found is None else found,
                    "" if match is None else match]],
                  ["n", "i", "value", "oracle_value", "match"], out)
    else:
        _emit_json({"n": args.n, "i": args.i, key: value,
                    "oracle": found, "match": match}, out)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CliError(message)


def _require_n(args, cap: int) -> None:
    """--n is at least 3 and at most the command's cap."""
    _require(args.n >= 3, "--n must be >= 3")
    if args.n > cap:
        raise ResourceLimitError(f"{args.command} --n capped at {cap} (got {args.n})")


def _cli_oracles():
    """The oracle commands and the argparse parser, loaded on first need.

    Under ``python -m`` this module runs as ``__main__``, so it is handed
    over as itself: an import of circpeaks.cli there would load a second
    copy, whose CliError ``run`` would not catch.
    """
    from . import cli_oracles

    return cli_oracles, sys.modules[__name__]


def _run(args, out) -> int:
    if args.command == "fvector":
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
        bits = tables.max_peak_count(args.n) * (args.i - 1).bit_length()
        if bits > ZETA_BITS_CAP:
            raise ResourceLimitError(
                f"zeta --i capped at {ZETA_BITS_CAP} result bits, "
                f"floor((n-1)/2) * bit_length(i-1) (got {bits})")
        _emit_count(args, "zeta", tables.zeta(args.n, args.i), args.i - 1, out)

    elif args.command == "chains":
        _require_n(args, QUADRATIC_N_CAP)
        _require(args.i >= 1, "--i must be >= 1")
        top = tables.max_peak_count(args.n)
        value = tables.chain_counts(args.n)[args.i] if args.i <= top + 1 else 0
        _emit_count(args, "count", value, args.i, out)

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

    else:  # an oracle-backed command, or none
        oracles, cli = _cli_oracles()
        return oracles.run(args, out, cli)

    return 0


def run(argv, out=None) -> int:
    """Parse and execute; returns the process exit code."""
    out = out if out is not None else sys.stdout
    if hasattr(sys, "set_int_max_str_digits"):  # counts outgrow the 4300-digit default
        sys.set_int_max_str_digits(0)
    try:
        args = parse(argv)
        if args is None:
            oracles, cli = _cli_oracles()
            args = oracles.build_parser(cli).parse_args(argv)
        return _run(args, out)
    # InvalidPeakSetError and DyckFormatError are ValueErrors.
    except (CliError, ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
