"""Exact combinatorics of circular-peak sets of permutations.

The central object is the collection of subsets of [n] realizable as the
circular peak set of some permutation; ordered by inclusion it is a
simplicial complex on the vertex set [3, n].  The package computes the
statistics, the face/h data, chain and zeta counts, and the Hilbert data
of the two associated monomial-quotient algebras, in exact integer arithmetic
on every production path and cross-checked against brute-force
oracles (see circpeaks.verify and the `circpeaks verify` subcommand).
"""

from .exact_algebra import (
    ClosedFormMismatchError,
    ExactPoly,
    InexactDivisionError,
    NonIntegralError,
    binomial,
    catalan_number,
    catalan_series,
    multinomial,
    poly_shift,
    poly_shift_inverse,
)
from .perm_core import (
    PERMUTATION_CAP,
    Permutation,
    ResourceLimitError,
    circular_descent_set,
    circular_peak_set,
    cp_class_size,
    enumerate_cp_class,
)
from .peak_sets import (
    DyckFormatError,
    DyckPrefix,
    InvalidPeakSetError,
    PeakSet,
    count_valid,
    from_dyck,
    is_valid,
    max_peak_count,
    to_dyck,
    witness,
)
from .complex_poset import (
    POSET_CAP,
    FaceTable,
    euler_characteristic,
    euler_characteristic_closed_form,
    f_generating_series,
    f_polynomial,
    face_count,
    face_counts_by_recurrence,
    face_table,
    faces,
    moebius,
    moebius_recursive_oracle,
    verify_product_structure,
)
from .chains_zeta import (
    chain_count_formula,
    chain_counts,
    chain_oracle,
    f_polynomial_from_chains,
    multichain_oracle,
    zeta,
    zeta_polynomial,
    zeta_values,
)
from .hvector import (
    HVector,
    h_dyck_oracle,
    h_entry,
    h_generating_series,
    h_polynomial,
    h_recurrence_table,
    h_table,
)
from .hilbert_algebras import (
    GradedDimensions,
    RationalSeriesForm,
    dim_a,
    dim_b,
    hilbert_polynomial_a,
    hilbert_series_a,
    hilbert_series_b,
    numerator_a,
    standard_monomial_oracle,
)

__version__ = "0.1.0"
