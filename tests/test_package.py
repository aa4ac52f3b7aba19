"""The package namespace and the integer core.

circpeaks resolves its public names lazily, each from the module that
defines it; the names the integer core took over from other modules are
the same objects under their old homes, and each has one definition.
"""

import ast
import importlib
import inspect
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import circpeaks
from circpeaks import cli, tables, verify

ROOT = Path(__file__).resolve().parents[1]

# Every name the package exported when its __init__ imported each module
# eagerly, under the module it was imported from, less the names deleted since.
EXPORTED = {
    "exact_algebra": (
        "ClosedFormMismatchError", "ExactPoly", "InexactDivisionError", "NonIntegralError",
        "binomial", "catalan_number", "multinomial", "poly_shift"),
    "perm_core": (
        "PERMUTATION_CAP", "Permutation", "ResourceLimitError", "circular_descent_set",
        "circular_peak_set", "cp_class_size", "enumerate_cp_class"),
    "peak_sets": (
        "DyckFormatError", "DyckPrefix", "InvalidPeakSetError", "PeakSet", "count_valid",
        "from_dyck", "is_valid", "max_peak_count", "to_dyck", "witness"),
    "complex_poset": (
        "POSET_CAP", "euler_characteristic", "euler_characteristic_closed_form",
        "f_polynomial", "face_count", "face_counts_by_recurrence", "face_table", "faces",
        "moebius"),
    "chains_zeta": (
        "chain_count_formula", "chain_counts", "chain_oracle", "multichain_oracle",
        "zeta", "zeta_polynomial", "zeta_values"),
    "hvector": (
        "h_entry", "h_polynomial", "h_recurrence_table", "h_table"),
    "hilbert_algebras": (
        "dim_a", "dim_b", "hilbert_polynomial_a", "hilbert_series_a", "hilbert_series_b",
        "numerator_a", "standard_monomial_oracle"),
}
ALL_EXPORTED = sorted((m, name) for m, names in EXPORTED.items() for name in names)

# The names that moved into the integer core, under each module that defined them.
MOVED = {
    "exact_algebra": ("ClosedFormMismatchError", "InexactDivisionError", "NonIntegralError",
                      "as_integer", "exact_quotient"),
    "perm_core": ("ResourceLimitError",),
    "peak_sets": ("max_peak_count",),
    "complex_poset": ("POSET_CAP", "face_table", "euler_characteristic",
                      "euler_characteristic_closed_form"),
    "chains_zeta": ("zeta", "zeta_values", "chain_counts"),
    "hvector": ("h_table",),
    "hilbert_algebras": ("hilbert_series_a",),
}
ALL_MOVED = sorted((m, name) for m, names in MOVED.items() for name in names)


@pytest.mark.parametrize("module,name", ALL_EXPORTED)
def test_every_old_export_resolves_to_its_defining_object(module, name):
    value = getattr(circpeaks, name)
    assert value is getattr(importlib.import_module(f"circpeaks.{module}"), name)
    home = getattr(value, "__module__", None)
    if home is not None:
        assert value is getattr(sys.modules[home], name)
    assert name in dir(circpeaks)
    assert name in circpeaks.__all__


def test_star_import_and_dir_cover_every_old_export():
    namespace = {}
    exec("from circpeaks import *", namespace)
    for _, name in ALL_EXPORTED:
        assert namespace[name] is getattr(circpeaks, name)
    assert {name for _, name in ALL_EXPORTED} <= set(dir(circpeaks))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        circpeaks.no_such_name
    assert not hasattr(circpeaks, "zeta_values_off")
    with pytest.raises(ImportError):
        exec("from circpeaks import no_such_name", {})


def test_submodules_are_attributes_of_the_package():
    for module in EXPORTED:
        assert getattr(circpeaks, module) is importlib.import_module(f"circpeaks.{module}")


def test_importing_the_package_loads_no_module_of_it():
    probe = ("import sys, circpeaks; "
             "print(*sorted(m for m in sys.modules if m.startswith('circpeaks.')))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize("module,name", ALL_MOVED)
def test_moved_names_are_the_integer_core_objects(module, name):
    assert getattr(importlib.import_module(f"circpeaks.{module}"), name) is getattr(tables, name)


@pytest.mark.parametrize("name", sorted({name for _, name in ALL_MOVED}))
def test_each_moved_name_is_defined_once(name):
    pattern = re.compile(rf"^\s*(def|class) {name}\b|^{name} = ", re.M)
    homes = [p.name for p in sorted((ROOT / "src" / "circpeaks").glob("*.py"))
             if pattern.search(p.read_text())]
    assert homes == ["tables.py"]


def test_no_module_but_exact_algebra_names_poly_series():
    # PolySeries has no library user; it stays only for the benchmark's
    # span tracer, and no module may start using it again.
    users = [path.name for path in sorted((ROOT / "src" / "circpeaks").rglob("*.py"))
             if "PolySeries" in path.read_text()]
    assert users == ["exact_algebra.py"]


def test_the_integer_core_imports_no_rational_arithmetic_or_oracle():
    # No module of the package names rational arithmetic at all.
    for path in sorted((ROOT / "src" / "circpeaks").rglob("*.py")):
        text = path.read_text()
        assert "fractions" not in text and "Fraction" not in text, path
    source = (ROOT / "src" / "circpeaks" / "tables.py").read_text()
    loaded = {node.module for node in ast.parse(source).body
              if isinstance(node, ast.ImportFrom)}
    assert loaded == {"__future__", "collections.abc", "math"}
    # Nor does any function import a module when called.
    deferred = {node.module for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom)} - loaded
    assert deferred == set()


# The names that moved into the integer-only face poset, under each module
# that defined them.
POSET_CORE_MOVED = {
    "peak_sets": ("_first_violation_sorted",),
    "complex_poset": ("_check_poset_cap", "_mask", "_moebius_from", "_submasks", "face_tuples"),
    "chains_zeta": ("_poset_chain_counts", "chain_oracle", "multichain_oracle"),
}


# The moved names that their old module no longer imports: nothing reads
# them there.
NOT_RE_EXPORTED = {("complex_poset", "_check_poset_cap"), ("complex_poset", "_mask"),
                   ("complex_poset", "_moebius_from"), ("complex_poset", "_submasks"),
                   ("chains_zeta", "_poset_chain_counts")}


@pytest.mark.parametrize("module,name", sorted((m, name) for m, names in POSET_CORE_MOVED.items()
                                               for name in names))
def test_poset_core_names_are_defined_once_and_re_exported(module, name):
    old_home = importlib.import_module(f"circpeaks.{module}")
    if (module, name) in NOT_RE_EXPORTED:
        assert not hasattr(old_home, name)
    else:
        poset_core = importlib.import_module("circpeaks.poset_core")
        assert getattr(old_home, name) is getattr(poset_core, name)
    pattern = re.compile(rf"^\s*def {name}\b", re.M)
    homes = [p.name for p in sorted((ROOT / "src" / "circpeaks").glob("*.py"))
             if pattern.search(p.read_text())]
    assert homes == ["poset_core.py"]


def test_poset_core_imports_only_the_integer_core():
    source = (ROOT / "src" / "circpeaks" / "poset_core.py").read_text()
    tree = ast.parse(source)
    assert not any(isinstance(node, ast.Import) for node in ast.walk(tree))
    imported = {(node.level, node.module) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert imported == {(0, "__future__"), (0, "collections.abc"), (0, "itertools"),
                        (1, "tables")}


# The public functions that neither the oracle registry nor a command calls,
# each with the reason it stays public.  Any other such function is API
# that only its own tests reach, and goes.
UNREACHED_PUBLIC = {
    "cp_class_size": "the size of one CP class by an S_n scan; ROADMAP item 12 "
                     "makes it the entry point of a polynomial-time insertion DP",
}

# One command line per subcommand, in COMMANDS order.
PROBE_LINES = (
    ["stats", "--perm", "3,1,4,2,5"],
    ["enum-cp", "--n", "5", "--set", "4,5"],
    ["witness", "--n", "7", "--set", "4,6"],
    ["dyck", "--n", "7", "--set", "4,6"],
    ["faces", "--n", "6"],
    ["fvector", "--n", "7"],
    ["hvector", "--n", "7"],
    ["zeta", "--n", "6", "--i", "3"],
    ["chains", "--n", "6", "--i", "2"],
    ["moebius", "--n", "5", "--set", "", "--set", "4,5"],
    ["euler", "--n", "6"],
    ["hilbert", "--n", "6", "--algebra", "A"],
    ["series", "--which", "P", "--order", "6"],
    ["verify", "--suite", "perm", "--max-n", "3"],
)


def test_every_public_function_is_reached_by_the_registry_or_a_command():
    assert [line[0] for line in PROBE_LINES] == list(cli.COMMANDS)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        results = verify.run_suite("all", verify.MIN_MAX_N)
        codes = [cli.run(line, io.StringIO()) for line in PROBE_LINES]
    finally:
        sys.setprofile(None)
    assert [r for r in results if not r.ok] == []
    assert codes == [0] * len(PROBE_LINES)
    unreached = sorted(
        name for name in circpeaks.__all__
        if inspect.isfunction(obj := getattr(circpeaks, name)) and obj.__code__ not in called)
    assert unreached == sorted(UNREACHED_PUBLIC)
