"""Exact combinatorics of circular-peak sets of permutations.

The central object is the collection of subsets of [n] realizable as the
circular peak set of some permutation; ordered by inclusion it is a
simplicial complex on the vertex set [3, n].  The package computes the
statistics, the face/h data, chain and zeta counts, and the Hilbert data
of the two associated monomial-quotient algebras, in exact integer arithmetic
on every production path and cross-checked against brute-force
oracles (see circpeaks.verify and the `circpeaks verify` subcommand).

The public names below are resolved on first use (PEP 562), each from the
module that defines it, so importing the package, or one module of it,
loads nothing else.
"""

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_DEFINED_IN = {
    "exact_algebra": (
        "ExactPoly", "binomial", "catalan_number", "multinomial", "poly_shift",
    ),
    "perm_core": (
        "PERMUTATION_CAP", "Permutation", "circular_descent_set",
        "circular_peak_set", "cp_class_size", "enumerate_cp_class",
    ),
    "peak_sets": (
        "DyckFormatError", "DyckPrefix", "InvalidPeakSetError", "PeakSet",
        "count_valid", "from_dyck", "is_valid", "to_dyck", "witness",
    ),
    "complex_poset": (
        "f_polynomial", "face_count", "face_counts_by_recurrence", "faces",
        "moebius",
    ),
    "chains_zeta": (
        "chain_count_formula", "zeta_polynomial",
    ),
    "hvector": (
        "h_entry", "h_polynomial", "h_recurrence_table",
    ),
    "hilbert_algebras": (
        "dim_a", "dim_b", "hilbert_polynomial_a", "hilbert_series_b",
        "numerator_a", "standard_monomial_oracle",
    ),
    "poset_core": ("chain_oracle", "multichain_oracle"),
    "tables": (
        "POSET_CAP", "ClosedFormMismatchError", "InexactDivisionError",
        "NonIntegralError", "ResourceLimitError", "chain_counts",
        "euler_characteristic", "euler_characteristic_closed_form",
        "face_table", "h_table", "hilbert_series_a", "max_peak_count",
        "zeta", "zeta_values",
    ),
}
_HOME = {name: module for module, names in _DEFINED_IN.items() for name in names}
_SUBMODULES = frozenset(_DEFINED_IN) | {"cli", "record", "verify"}

__all__ = sorted(_HOME)


def __getattr__(name):
    from importlib import import_module

    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME) | _SUBMODULES)
