import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from circpeaks import cli, cli_oracles, complex_poset, tables, verify
from circpeaks.cli import (
    HILBERT_ORDER_CAP,
    LINEAR_N_CAP,
    QUADRATIC_N_CAP,
    SERIES_ORDER_CAP,
    ZETA_BITS_CAP,
    ZETA_ORACLE_LENGTH_CAP,
    run,
)
from circpeaks.complex_poset import f_polynomial, faces
from circpeaks.exact_algebra import PolySeries
from circpeaks.hvector import h_polynomial

ROOT = Path(__file__).resolve().parents[1]


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out)
    return code, out.getvalue()


def invoke_json(*argv):
    code, text = invoke(*argv)
    assert code == 0, text
    return json.loads(text)


def test_stats():
    payload = invoke_json("stats", "--perm", "4,8,3,6,2,5,1,7")
    assert payload == {
        "cdes": [5, 6, 8],
        "cp": [5, 6, 8],
        "n": 8,
        "perm": [4, 8, 3, 6, 2, 5, 1, 7],
    }


def test_enum_cp():
    payload = invoke_json("enum-cp", "--n", "5", "--set", "4,5")
    assert payload["count"] == 12
    assert payload["perms"][0] == [1, 4, 2, 5, 3]
    code, text = invoke("enum-cp", "--n", "5", "--set", "4,5", "--format", "csv")
    assert code == 0
    assert text.splitlines()[0] == "permutation"
    assert '"1,4,2,5,3"' in text


def test_witness_and_dyck():
    payload = invoke_json("witness", "--n", "5", "--set", "4,5")
    assert payload["witness"] == [1, 4, 2, 5, 3]
    payload = invoke_json("dyck", "--n", "5", "--set", "4,5")
    assert payload["word"] == "UUDD"
    assert payload["round_trip"] == [4, 5]


def test_faces():
    payload = invoke_json("faces", "--n", "5", "--dim", "1")
    assert payload["faces"] == [[3, 5], [4, 5]]
    payload = invoke_json("faces", "--n", "5")
    assert payload["faces_by_dim"]["-1"] == [[]]
    assert payload["faces_by_dim"]["0"] == [[3], [4], [5]]


def test_faces_command_lists_the_faces():
    for n in range(3, 15):
        top = tables.max_peak_count(n)  # D; the dimensions are -1..D-1
        for d in range(-3, top + 2):
            assert invoke_json("faces", "--n", str(n), "--dim", str(d)) == {
                "n": n, "dim": d, "faces": [list(f.elements) for f in faces(n, d)]}
        assert invoke_json("faces", "--n", str(n)) == {
            "n": n, "faces_by_dim": {str(d): [list(f.elements) for f in faces(n, d)]
                                     for d in range(-1, top)}}


def test_fvector_and_hvector():
    payload = invoke_json("fvector", "--n", "5")
    assert payload["f"] == [1, 3, 2]
    assert payload["f_polynomial"] == [2, 3, 1]
    payload = invoke_json("hvector", "--n", "6")
    assert payload["h"] == [1, 2, 2]
    assert payload["h_polynomial"] == [2, 2, 1]
    code, text = invoke("fvector", "--n", "5", "--format", "csv")
    assert code == 0
    assert text.splitlines() == ["n,dim,count", "5,-1,1", "5,0,3", "5,1,2"]


def test_zeta_and_chains():
    payload = invoke_json("zeta", "--n", "5", "--i", "3")
    assert payload["zeta"] == 15
    assert payload["oracle"] == 15
    assert payload["match"] is True
    payload = invoke_json("chains", "--n", "5", "--i", "2")
    assert payload["count"] == 9
    assert payload["match"] is True
    code, text = invoke("chains", "--n", "5", "--i", "2", "--format", "csv")
    assert text.splitlines() == ["n,i,value,oracle_value,match", "5,2,9,9,True"]


def test_chains_past_the_longest_chain_is_immediate():
    started = time.perf_counter()
    payload = invoke_json("chains", "--n", "20", "--i", "1200")
    assert time.perf_counter() - started < 1.0
    assert payload["count"] == 0
    assert payload["oracle"] is None


def _ballot_chain_counts(n):
    """Strict chain counts from the ballot-number f-vector, by a chain DP.

    below[s][m] counts strict chains of s subsets of an m-set ending at the
    whole set; every face's interval is Boolean, so d_s = sum_m f_m below[s][m].
    """
    top = (n - 1) // 2
    f = [1] + [(n - 2 * m) * comb(n - 1, m - 1) // m for m in range(1, top + 1)]
    below = [[0] * (top + 1), [1] * (top + 1)]
    for s in range(2, top + 2):
        below.append([sum(comb(m, k) * below[s - 1][k] for k in range(m))
                      for m in range(top + 1)])
    return [1] + [sum(fm * below[s][m] for m, fm in enumerate(f))
                  for s in range(1, top + 2)]


def test_hilbert_b_large_n_matches_ballot_chain_counts():
    expected = _ballot_chain_counts(60)
    payload = invoke_json("hilbert", "--n", "60", "--algebra", "B",
                          "--order", str(len(expected) + 1))
    assert payload["series_polynomial"] == expected
    assert payload["dims"] == expected + [0, 0]


def _ballot_f_vector(n):
    """(p_{n,-1}, ..., p_{n,D-1}) as differences of ballot numbers."""
    return [comb(n - 1, i + 1) - (comb(n - 1, i) if i >= 0 else 0)
            for i in range(-1, (n - 1) // 2)]


def _timed_json(*argv):
    started = time.perf_counter()
    payload = invoke_json(*argv)
    return time.perf_counter() - started, payload


def test_hvector_large_n_matches_binomial_transform():
    n = 2000
    elapsed, payload = _timed_json("hvector", "--n", str(n))
    assert elapsed < 2.0
    # Coefficients of P_n(x - 1), low degree first, by Horner in the
    # integer polynomial ring over P_n's coefficients, highest degree
    # first (that is, the f-vector in order): acc <- acc * (x - 1) + c.
    shifted = []
    for c in _ballot_f_vector(n):
        shifted = [c - shifted[0] if shifted else c] + [
            shifted[j - 1] - (shifted[j] if j < len(shifted) else 0)
            for j in range(1, len(shifted) + 1)]
    assert payload["h_polynomial"] == shifted
    assert payload["h"] == shifted[::-1]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_hilbert_a_builds_one_f_vector(monkeypatch, fmt):
    builds = []

    def counted(n):
        builds.append(n)
        return complex_poset.face_table(n)

    monkeypatch.setattr(tables, "face_table", counted)
    code, _ = invoke("hilbert", "--n", "120", "--algebra", "A", "--order", "9",
                     "--format", fmt)
    assert code == 0
    assert builds == [120]


def test_hilbert_a_large_n_matches_ballot_multichains():
    n = 1000
    f = _ballot_f_vector(n)
    elapsed, payload = _timed_json("hilbert", "--n", str(n), "--algebra", "A")
    assert elapsed < 2.0
    dims = [sum(p * i ** k for k, p in enumerate(f)) for i in range(9)]
    assert payload["dims"] == dims
    assert payload["hilbert_polynomial"] == f
    e = payload["denominator_exponent"]
    assert e == len(f) == (n + 1) // 2
    numerator = payload["numerator"]
    # numerator / (1 - x)^e re-expands to the dimensions ...
    assert [sum(numerator[j] * comb(k - j + e - 1, e - 1) for j in range(k + 1))
            for k in range(9)] == dims
    # ... and its value at 1 is D! times the top face count (Eulerian
    # polynomials sum to m!), which involves every coefficient.
    assert len(numerator) <= e
    assert sum(numerator) == factorial(e - 1) * f[-1]


def test_zeta_past_the_int_digit_limit():
    # CPython >= 3.10.7 refuses to convert ints of more than 4300 digits to
    # text by default; run lifts that limit, which the parsing below needs too.
    n, i = 1000, 10_000_000_000
    code, text = invoke("zeta", "--n", str(n), "--i", str(i))
    assert code == 0
    code, csv_text = invoke("zeta", "--n", str(n), "--i", str(i), "--format", "csv")
    assert code == 0
    expected = sum(p * (i - 1) ** k for k, p in enumerate(_ballot_f_vector(n)))
    assert len(str(expected)) > 4300
    assert json.loads(text)["zeta"] == expected
    assert csv_text.splitlines() == ["n,i,value,oracle_value,match", f"{n},{i},{expected},,"]


class _Unprintable:
    def __str__(self):
        raise ValueError("cannot render")


def test_json_output_is_all_or_nothing(monkeypatch):
    # The Fraction is the last f entry: a streaming encoder would already
    # have written the opening of the payload when it fails.
    monkeypatch.setattr(tables, "face_table", lambda n: (1, 3, Fraction(1, 2)))
    out = io.StringIO()
    with pytest.raises(TypeError, match="Fraction"):
        run(["fvector", "--n", "5"], out)
    assert out.getvalue() == ""


def test_csv_output_is_all_or_nothing(monkeypatch):
    monkeypatch.setattr(tables, "h_table", lambda n: (1, 2, _Unprintable()))
    assert invoke("hvector", "--n", "6", "--format", "csv") == (1, "")


def test_moebius_and_euler():
    payload = invoke_json("moebius", "--n", "5", "--set", "", "--set", "4,5")
    assert payload["moebius"] == 1
    payload = invoke_json("euler", "--n", "6")
    assert payload["euler"] == -2
    code, _ = invoke("moebius", "--n", "5", "--set", "4,5")
    assert code == 1


def test_hilbert():
    payload = invoke_json("hilbert", "--n", "5", "--algebra", "A", "--order", "4")
    assert payload["dims"] == [1, 6, 15, 28, 45]
    assert payload["numerator"] == [1, 3]
    assert payload["denominator_exponent"] == 3
    payload = invoke_json("hilbert", "--n", "5", "--algebra", "B", "--order", "4")
    assert payload["dims"] == [1, 6, 9, 4, 0]
    assert payload["series_polynomial"] == [1, 6, 9, 4]


def test_hilbert_csv_rows(capsys):
    header = "n,algebra,degree,dim"
    for algebra in ("A", "B"):
        code, text = invoke("hilbert", "--n", "5", "--algebra", algebra, "--order", "0",
                            "--format", "csv")
        assert (code, text.splitlines()) == (0, [header, f"5,{algebra},0,1"])
    code, text = invoke("hilbert", "--n", "5", "--algebra", "A", "--order", "4",
                        "--format", "csv")
    assert (code, text.splitlines()) == (
        0, [header, "5,A,0,1", "5,A,1,6", "5,A,2,15", "5,A,3,28", "5,A,4,45"])
    # B's last nonzero dimension is in degree D + 1 = 3; past it the rows are zeros.
    code, text = invoke("hilbert", "--n", "5", "--algebra", "B", "--order", "5",
                        "--format", "csv")
    assert (code, text.splitlines()) == (
        0, [header, "5,B,0,1", "5,B,1,6", "5,B,2,9", "5,B,3,4", "5,B,4,0", "5,B,5,0"])
    assert invoke("hilbert", "--n", "5", "--algebra", "C", "--format", "csv") == (1, "")
    assert "invalid choice: 'C'" in capsys.readouterr().err


def test_series():
    payload = invoke_json("series", "--which", "P", "--order", "6")
    by_n = {row["n"]: row["poly"] for row in payload["coefficients"]}
    assert by_n[5] == [2, 3, 1]
    assert payload["printed_form_discrepancy"]["first_mismatch_y_order"] == 4
    payload = invoke_json("series", "--which", "H", "--order", "6")
    by_n = {row["n"]: row["poly"] for row in payload["coefficients"]}
    assert by_n[5] == [0, 1, 1]


def test_series_reports_printed_form_discrepancy_at_any_order():
    # The first mismatch is at y^4, past a truncation at y^3; the report
    # does not depend on --order, and series prints it as pinned.
    for which in ("P", "H"):
        payload = invoke_json("series", "--which", which, "--order", "3")
        assert [row["n"] for row in payload["coefficients"]] == [3]
        assert payload["printed_form_discrepancy"]["first_mismatch_y_order"] == 4


def test_series_coefficients_match_polynomials_to_order_60():
    for which, poly in (("P", f_polynomial), ("H", h_polynomial)):
        payload = invoke_json("series", "--which", which, "--order", "60")
        rows = payload["coefficients"]
        assert [row["n"] for row in rows] == list(range(3, 61))
        for row in rows:
            assert row["poly"] == [int(c) for c in poly(row["n"]).coeffs], (which, row["n"])


def test_series_does_not_divide_series(monkeypatch):
    def refuse(self, divisor):
        raise AssertionError("series divided a PolySeries")

    monkeypatch.setattr(PolySeries, "divide", refuse)
    for which, poly in (("P", f_polynomial), ("H", h_polynomial)):
        payload = invoke_json("series", "--which", which, "--order", "80")
        rows = payload["coefficients"]
        assert [row["n"] for row in rows] == list(range(3, 81))
        assert rows[-1]["poly"] == [int(c) for c in poly(80).coeffs]
        assert payload["printed_form_discrepancy"]["first_mismatch_y_order"] == 4


def test_series_order_cap(capsys):
    started = time.perf_counter()
    assert invoke("series", "--which", "P", "--order", str(SERIES_ORDER_CAP + 1)) == (1, "")
    assert time.perf_counter() - started < 0.5
    assert f"capped at {SERIES_ORDER_CAP}" in capsys.readouterr().err
    payload = invoke_json("series", "--which", "H", "--order", str(SERIES_ORDER_CAP))
    assert payload["coefficients"][-1]["n"] == SERIES_ORDER_CAP


@pytest.mark.parametrize("algebra", ["A", "B"])
def test_hilbert_order_cap(capsys, algebra):
    started = time.perf_counter()
    for order in (HILBERT_ORDER_CAP + 1, 10 ** 10):
        assert invoke("hilbert", "--n", "5", "--algebra", algebra,
                      "--order", str(order)) == (1, "")
        assert f"error: hilbert --order capped at {HILBERT_ORDER_CAP} (got {order})" \
            in capsys.readouterr().err
    assert time.perf_counter() - started < 0.5
    payload = invoke_json("hilbert", "--n", "5", "--algebra", algebra,
                          "--order", str(HILBERT_ORDER_CAP))
    assert len(payload["dims"]) == HILBERT_ORDER_CAP + 1


@pytest.mark.parametrize("argv,cap", [
    ("fvector", LINEAR_N_CAP), ("hvector", LINEAR_N_CAP), ("euler", LINEAR_N_CAP),
    ("zeta --i 3", LINEAR_N_CAP), ("chains --i 3", QUADRATIC_N_CAP),
    ("hilbert --algebra A", QUADRATIC_N_CAP), ("hilbert --algebra B", QUADRATIC_N_CAP),
    ("hilbert --algebra A --format csv", QUADRATIC_N_CAP),
    ("witness --set 3", LINEAR_N_CAP), ("dyck --set 3", LINEAR_N_CAP),
])
def test_n_cap(capsys, argv, cap):
    command, *rest = argv.split()
    started = time.perf_counter()
    for n in (cap + 1, 10 ** 100):
        assert invoke(command, "--n", str(n), *rest) == (1, "")
        assert f"error: {command} --n capped at {cap} (got {n})" in capsys.readouterr().err
    assert time.perf_counter() - started < 0.5


def test_zeta_i_cap(capsys):
    # floor((n-1)/2) = 4096 at n = 8193, so the value has 4096 * 256 bits
    # at i = 2**255 + 1, the largest i the cap admits.
    assert ZETA_BITS_CAP == 4096 * 256
    started = time.perf_counter()
    for n, i, bits in ((8193, 2 ** 256 + 1, 4096 * 257),
                       (LINEAR_N_CAP, 10 ** 300, 7999 * 997)):
        assert invoke("zeta", "--n", str(n), "--i", str(i)) == (1, "")
        assert (f"error: zeta --i capped at {ZETA_BITS_CAP} result bits, "
                f"floor((n-1)/2) * bit_length(i-1) (got {bits})") in capsys.readouterr().err
    assert time.perf_counter() - started < 0.5


def test_zeta_i_cap_admits_the_cap(monkeypatch):
    monkeypatch.setattr(tables, "zeta", lambda n, i: 0)  # the check alone, not the value
    assert invoke_json("zeta", "--n", "8193", "--i", str(2 ** 255 + 1))["zeta"] == 0


def test_n_caps_admit_the_cap(monkeypatch):
    payload = invoke_json("zeta", "--n", str(LINEAR_N_CAP), "--i", "2")
    assert payload["zeta"] == sum(tables.face_table(LINEAR_N_CAP))
    monkeypatch.setattr(tables, "chain_counts", lambda n: (1, 2))
    payload = invoke_json("hilbert", "--n", str(QUADRATIC_N_CAP), "--algebra", "B",
                          "--order", "2")
    assert payload["dims"] == [1, 2, 0]


def test_zeta_oracle_runs_up_to_its_length_cap_only():
    # zeta --i counts multichains of i - 1 faces
    i = ZETA_ORACLE_LENGTH_CAP + 1
    payload = invoke_json("zeta", "--n", "14", "--i", str(i))
    assert payload["oracle"] == payload["zeta"] and payload["match"] is True
    started = time.perf_counter()
    for i in (ZETA_ORACLE_LENGTH_CAP + 2, 10 ** 6):
        payload = invoke_json("zeta", "--n", "14", "--i", str(i))
        assert payload["zeta"] == tables.zeta(14, i)
        assert payload["oracle"] is None and payload["match"] is None
    code, text = invoke("zeta", "--n", "14", "--i", str(ZETA_ORACLE_LENGTH_CAP + 2),
                        "--format", "csv")
    assert code == 0 and text.splitlines()[1].endswith(",,")
    assert time.perf_counter() - started < 0.5


def test_chains_oracle_stops_once_no_chain_is_left():
    started = time.perf_counter()
    payload = invoke_json("chains", "--n", "14", "--i", str(10 ** 6))
    assert time.perf_counter() - started < 1.0
    assert payload["count"] == 0 and payload["oracle"] == 0 and payload["match"] is True


def test_format_only_on_tabular_commands(capsys):
    code, text = invoke("hvector", "--n", "6", "--format", "csv")
    assert code == 0
    assert text.splitlines() == ["n,i,h", "6,0,1", "6,1,2", "6,2,2"]
    for argv in (["stats", "--perm", "1,2,3"], ["witness", "--n", "5"],
                 ["dyck", "--n", "5"], ["faces", "--n", "5"],
                 ["moebius", "--n", "5", "--set", "", "--set", "4,5"],
                 ["euler", "--n", "3"], ["series", "--which", "P"], ["verify"]):
        code, text = invoke(*argv, "--format", "csv")
        assert (code, text) == (1, ""), argv
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_verify_exit_codes(capsys):
    code, text = invoke("verify", "--suite", "peaksets", "--max-n", "6")
    assert code == 0
    assert "checks passed" in text
    assert "FAIL" not in text
    code, _ = invoke("verify", "--suite", "nonexistent")
    assert code == 1
    err = capsys.readouterr().err
    assert "nonexistent" in err
    for suite in verify.SUITES:
        assert repr(suite) in err, suite


def test_verify_max_n_default_is_the_registry_default():
    # cli repeats the number, so that parsing a command line imports no verify.
    defaults = {option[0]: option[2] for option in cli.COMMANDS["verify"][1]}
    assert defaults["--max-n"] == verify.DEFAULT_MAX_N


def test_verify_help_names_every_suite(capsys):
    # The help text is fixed so that building the parser does not import verify.
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--help"], io.StringIO())
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for suite in verify.SUITES:
        assert suite in text, suite
    assert "'all'" in text


def test_cli_import_loads_no_dataclasses_inspect_or_verify():
    # -S: no site-packages .pth file may import these on the package's behalf.
    probe = ("import sys, circpeaks.cli; "
             "print(' '.join(m for m in ('dataclasses', 'inspect', 'circpeaks.verify') "
             "if m in sys.modules))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


# Modules that the integer core must not pull into a production command.
ORACLE_MODULES = ("fractions", "circpeaks.exact_algebra", "circpeaks.peak_sets",
                  "circpeaks.perm_core", "circpeaks.complex_poset", "circpeaks.chains_zeta",
                  "circpeaks.hvector", "circpeaks.hilbert_algebras", "circpeaks.verify")
# What only a command line that the hand parser declines, or an oracle command, loads.
ARGPARSE_MODULES = ("argparse", "gettext", "locale")


def _loaded_after(argv, modules):
    """The exit code of ``run(argv)`` in a fresh interpreter, then which of ``modules`` it loaded."""
    # -S: no site-packages .pth file may import these on the package's behalf.
    probe = ("import io, sys; from circpeaks import cli; "
             f"code = cli.run({argv.split()!r}, io.StringIO()); "
             f"print(code, *(m for m in {modules!r} if m in sys.modules))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("argv", [
    "fvector --n 40", "euler --n 40", "hvector --n 40", "zeta --n 30 --i 3",
    "chains --n 30 --i 3", "hilbert --n 40 --algebra A", "hilbert --n 40 --algebra B",
    "fvector --n 40 --format csv", "hilbert --n 40 --algebra A --format csv",
])
def test_production_commands_load_only_the_integer_core(argv):
    # Nor the record base class, argparse, the json package or the oracle
    # commands; the JSON forms do not load csv either.
    forbidden = (ORACLE_MODULES + ARGPARSE_MODULES
                 + ("circpeaks.record", "circpeaks.cli_oracles", "json")
                 + (() if "csv" in argv else ("csv",)))
    assert _loaded_after(argv, forbidden) == ["0"]


@pytest.mark.parametrize("argv", ["verify --suite series --max-n 8", "series --which P --order 5"])
def test_well_formed_oracle_commands_load_no_argparse(argv):
    assert _loaded_after(argv, ARGPARSE_MODULES) == ["0"]


# What a poset oracle, faces or series must not load: rational arithmetic
# and the oracle modules that build on it.
RATIONAL_STACK = ("fractions", "decimal", "circpeaks.exact_algebra",
                  "circpeaks.complex_poset", "circpeaks.chains_zeta", "circpeaks.hvector",
                  "circpeaks.peak_sets", "circpeaks.perm_core", "circpeaks.record")


@pytest.mark.parametrize("argv,reads_poset", [
    ("series --which P --order 12", False), ("series --which H --order 12", False),
    ("zeta --n 13 --i 4", True), ("chains --n 14 --i 3", True), ("faces --n 10", True),
])
def test_poset_oracles_and_series_load_no_rational_arithmetic(argv, reads_poset):
    loaded = _loaded_after(argv, RATIONAL_STACK + ("circpeaks.poset_core",))
    assert loaded == ["0"] + ["circpeaks.poset_core"] * reads_poset


SUITE_MODULES = tuple(f"circpeaks.checks.{suite}" for suite in verify.SUITE_NAMES)


@pytest.mark.parametrize("suite", (*verify.SUITE_NAMES, "all"))
def test_verify_suite_loads_only_its_own_checks(suite):
    # No suite loads rational arithmetic, and the suites of the S_n sweeps
    # and subset scans load no polynomial arithmetic either.
    rational = ("fractions", "decimal", "circpeaks.exact_algebra", "circpeaks.complex_poset")
    loaded = _loaded_after(f"verify --suite {suite} --max-n 8", SUITE_MODULES + rational)
    assert loaded[0] == "0"
    assert "fractions" not in loaded and "decimal" not in loaded
    own = SUITE_MODULES if suite == "all" else (f"circpeaks.checks.{suite}",)
    assert [m for m in loaded if m in SUITE_MODULES] == list(own)
    if suite in ("perm", "peaksets"):
        assert loaded == ["0", f"circpeaks.checks.{suite}"]


@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_verify_suite_loads_no_oracle_commands_or_argparse(suite):
    # cli sends verify straight to verify.report: no suite compiles the
    # oracle commands or the argparse parser.
    loaded = _loaded_after(f"verify --suite {suite} --max-n 8",
                           ("circpeaks.cli_oracles",) + ARGPARSE_MODULES)
    assert loaded == ["0"]


def test_poset_oracle_runs_up_to_its_cap_only():
    for command, key in (("zeta", "zeta"), ("chains", "count")):
        payload = invoke_json(command, "--n", "14", "--i", "2")
        assert payload["oracle"] == payload[key] and payload["match"] is True
        payload = invoke_json(command, "--n", "15", "--i", "2")
        assert payload["oracle"] is None and payload["match"] is None


def test_verify_rejects_max_n_below_three(capsys):
    code, text = invoke("verify", "--suite", "perm", "--max-n", "0")
    assert code == 1
    assert "PASS" not in text
    assert "max_n must be >= 3" in capsys.readouterr().err
    proc = subprocess.run(
        [sys.executable, "-m", "circpeaks.cli", "verify", "--suite", "perm", "--max-n", "2"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 1
    assert "max_n must be >= 3" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_usage_errors():
    assert invoke("stats", "--perm", "1,2,2")[0] == 1
    assert invoke("witness", "--n", "6", "--set", "3,4")[0] == 1
    assert invoke("zeta", "--n", "5", "--i", "1")[0] == 1
    assert invoke("enum-cp", "--n", "11")[0] == 1  # resource cap
    assert invoke()[0] == 1
    assert invoke("no-such-command")[0] == 1


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "circpeaks.cli", "euler", "--n", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["euler"] == 0


def _python_m_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "circpeaks.cli", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_reader_that_closes_early(unbuffered):
    # fvector --n 3000 prints ≈1.5 MB, far more than a pipe holds: the
    # writer is still writing when the reader goes.  Unbuffered, a write cut
    # short by the closed pipe must not end in exit 0.
    proc = subprocess.Popen(
        [sys.executable, "-m", "circpeaks.cli", "fvector", "--n", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": unbuffered},
    )
    assert proc.stdout.read(5) == b'{\n  "'
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (1, b"")


def test_errors_of_oracle_commands_under_python_m():
    # Under -m the entry module is __main__, and the oracle commands run in
    # cli_oracles: their errors still reach run and exit 1 with one line.
    proc = _python_m_cli("moebius", "--n", "5", "--set", "4")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: give --set twice: lower face then upper face\n"
    proc = _python_m_cli("enum-cp", "--n", "11")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: exhaustive S_n enumeration capped at n <= 10 (got n=11)\n"


@pytest.mark.parametrize("argv", [
    "series --which P --order 12", "verify --suite series --max-n 8", "fvector --n=5",
])
def test_python_m_imports_no_second_cli(argv):
    # Under -m the running module is __main__; no import of circpeaks.cli,
    # by cli_oracles or by a module that verify loads, may compile cli.py
    # again.  -X importtime lists a module imported by "from .m import
    # name", not by "from . import m": verify's suites show exact_algebra.
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "circpeaks.cli", *argv.split()],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    if argv.startswith("verify"):
        assert "circpeaks.exact_algebra" in imported
        assert "circpeaks.cli_oracles" not in imported
    else:
        assert "circpeaks.cli_oracles" in imported
    assert "circpeaks.cli" not in imported


def _workload_command_lines():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    lines = []
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            lines += [argv for argv in workloads.build(name, seed) if argv not in lines]
    return lines


README_EXAMPLES = [
    ["stats", "--perm", "4,8,3,6,2,5,1,7"], ["enum-cp", "--n", "5", "--set", "4,5"],
    ["witness", "--n", "6", "--set", "3,5"], ["dyck", "--n", "5", "--set", "4,5"],
    ["faces", "--n", "7"], ["faces", "--n", "7", "--dim", "1"],
    ["moebius", "--n", "5", "--set", "", "--set", "4,5"],
    ["series", "--which", "P", "--order", "12"], ["verify", "--suite", "all", "--max-n", "8"],
    ["fvector", "--n", "5", "--format", "csv"], ["hilbert", "--n", "5", "--algebra", "B"],
]


@pytest.mark.parametrize("argv", _workload_command_lines() + README_EXAMPLES, ids=" ".join)
def test_hand_parser_agrees_with_argparse(argv):
    parsed = cli.parse(argv)
    assert parsed is not None
    assert vars(parsed) == vars(cli_oracles.build_parser().parse_args(argv))


def _json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


EULER_HELP = """usage: circpeaks euler [-h] --n N

options:
  -h, --help  show this help message and exit
  --n N
"""
MOEBIUS_HELP = """usage: circpeaks moebius [-h] --n N [--set SET]

options:
  -h, --help  show this help message and exit
  --n N
  --set SET   give twice: lower then upper face
"""
COMMAND_CHOICES = ("'stats', 'enum-cp', 'witness', 'dyck', 'faces', 'fvector', 'hvector', "
                   "'zeta', 'chains', 'moebius', 'euler', 'hilbert', 'series', 'verify'")

# Command lines the hand parser leaves to argparse, with the exit code,
# stdout and stderr of run; for help, the code of its SystemExit.
FALLBACKS = [
    (["euler", "-h"], 0, EULER_HELP, ""),
    (["moebius", "--help"], 0, MOEBIUS_HELP, ""),
    (["euler", "--n=5"], 0, _json({"euler": 0, "n": 5}), ""),
    (["fvector", "--n", "5", "--form", "csv"], 0, "n,dim,count\n5,-1,1\n5,0,3\n5,1,2\n", ""),
    (["hilbert", "--n", "5", "--alg", "A"], 0,
     _json({"algebra": "A", "denominator_exponent": 3,
            "dims": [1, 6, 15, 28, 45, 66, 91, 120, 153], "hilbert_polynomial": [1, 3, 2],
            "n": 5, "numerator": [1, 3]}), ""),
    (["euler", "--n", "5", "--n", "6"], 0, _json({"euler": -2, "n": 6}), ""),
    (["euler", "--n", "-3"], 1, "", "error: --n must be >= 3\n"),
    (["euler", "--n", "x"], 1, "", "error: argument --n: invalid int value: 'x'\n"),
    (["hilbert", "--n", "5", "--algebra", "C"], 1, "",
     "error: argument --algebra: invalid choice: 'C' (choose from 'A', 'B')\n"),
    (["zeta", "--n", "5"], 1, "", "error: the following arguments are required: --i\n"),
    (["euler", "--n", "5", "--format", "csv"], 1, "",
     "error: unrecognized arguments: --format csv\n"),
    (["euler", "--n", "5", "extra"], 1, "", "error: unrecognized arguments: extra\n"),
    (["euler", "--", "--n", "5"], 1, "", "error: the following arguments are required: --n\n"),
    ([], 1, "", "error: missing subcommand (try --help)\n"),
    (["no-such-command"], 1, "",
     f"error: argument command: invalid choice: 'no-such-command' (choose from {COMMAND_CHOICES})\n"),
]


@pytest.mark.parametrize("argv,code,stdout,stderr", FALLBACKS,
                         ids=[" ".join(case[0]) or "(empty)" for case in FALLBACKS])
def test_fallback_command_lines(capsys, monkeypatch, argv, code, stdout, stderr):
    assert cli.parse(argv) is None
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    out = io.StringIO()
    try:
        got = run(argv, out)
    except SystemExit as exc:  # help exits from inside argparse
        got = exc.code
    captured = capsys.readouterr()
    assert (got, out.getvalue() + captured.out, captured.err) == (code, stdout, stderr)
