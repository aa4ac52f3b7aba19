"""The chains suite: zeta values and chain counts against the poset
chain oracles, and against one another."""

from __future__ import annotations

from .. import chains_zeta, complex_poset, exact_algebra, peak_sets
from ..poset_core import _poset_chain_counts
from ..tables import POSET_CAP
from ..verify import _chain_count_formula, _registry, _valid_subsets


def check_zeta_oracle(ns: range) -> tuple[bool, str]:
    for n in ns:
        counts = _poset_chain_counts(_valid_subsets(n), 5, strict=False)
        for i in range(2, 7):
            if chains_zeta.zeta(n, i) != counts[i - 1]:
                return False, f"zeta mismatch at n={n}, i={i}"
    return True, "zeta = multichain oracle, i <= 6"


def check_zeta_recurrence(ns: range) -> tuple[bool, str]:
    for n in ns:
        for i in range(2, 7):
            correction = exact_algebra.exact_quotient(
                (n % 2) * 2 * (i - 1) ** ((n + 1) // 2)
                * exact_algebra.binomial(n - 1, (n - 1) // 2),
                n + 1, f"zeta recurrence correction at n={n}, i={i}")
            if chains_zeta.zeta(n + 1, i) != i * chains_zeta.zeta(n, i) - correction:
                return False, f"zeta recurrence failed at n={n}, i={i}"
    return True, "zeta recurrence with parity correction, i <= 6"


def check_chain_formula(ns: range) -> tuple[bool, str]:
    for n in ns:
        last = peak_sets.max_peak_count(n) + 3
        counts = _poset_chain_counts(_valid_subsets(n), last, strict=True)
        for i in range(1, last + 1):
            formula = _chain_count_formula(n, i)
            oracle = counts[i] if i < len(counts) else 0
            if formula != oracle:
                return False, f"chain count mismatch at (n={n}, i={i}): formula {formula}, oracle {oracle}"
    return True, "multinomial chain formula = strict-chain oracle, i <= D+3"


def check_chain_counts(ns: range) -> tuple[bool, str]:
    for n in ns:
        counts = chains_zeta.chain_counts(n)
        d = peak_sets.max_peak_count(n)
        if len(counts) != d + 2 or counts[0] != 1:
            return False, f"chain_counts({n}) is not 1 followed by D+1 counts: {counts}"
        for i in range(1, d + 4):
            fast = counts[i] if i < len(counts) else 0
            formula = _chain_count_formula(n, i)
            if fast != formula:
                return False, f"chain count mismatch at (n={n}, i={i}): inversion {fast}, composition sum {formula}"
    return True, "binomial-inversion chain counts = composition sum, i <= D+3"


def check_chain_formula_elements(ns: range) -> tuple[bool, str]:
    for n in ns:
        if _chain_count_formula(n, 1) != peak_sets.count_valid(n):
            return False, f"element count mismatch at n={n}"
    return True, "chain formula at i=1 counts the faces"


def check_zeta_from_chains(ns: range) -> tuple[bool, str]:
    for n in ns:
        for i in range(2, 7):
            recon = sum(
                _chain_count_formula(n, j - 1) *
                exact_algebra.binomial(i - 2, j - 2)
                for j in range(2, peak_sets.max_peak_count(n) + 4)
            )
            if recon != chains_zeta.zeta(n, i):
                return False, f"chain reconstruction of zeta failed at n={n}, i={i}"
    return True, "chain counts reconstruct zeta, i <= 6"


def check_fpoly_from_chains(ns: range) -> tuple[bool, str]:
    for n in ns:
        rebuilt = chains_zeta._f_polynomial_from_counts(n, _chain_count_formula)
        if rebuilt != complex_poset.f_polynomial(n):
            return False, f"chain reconstruction of f-polynomial failed at n={n}"
    return True, "f-polynomial rebuilt from chain counts"


def check_zeta_polynomial(ns: range) -> tuple[bool, str]:
    for n in ns:
        zp = chains_zeta.zeta_polynomial(n)
        for i in range(2, 7):
            if zp.eval(i) != chains_zeta.zeta(n, i):
                return False, f"zeta polynomial eval mismatch at n={n}, i={i}"
    return True, "zeta polynomial evaluates to zeta, i <= 6"


CHECKS, RANGES = _registry([
    ("zeta-vs-multichain-oracle", check_zeta_oracle, 3, 8, POSET_CAP),
    ("zeta-recurrence", check_zeta_recurrence, 3, 12),
    ("chain-formula-vs-oracle", check_chain_formula, 3, 12),
    ("chain-counts-vs-composition-sum", check_chain_counts, 3, 16),
    ("chain-formula-element-count", check_chain_formula_elements, 3, 20),
    ("zeta-from-chain-counts", check_zeta_from_chains, 3, 10),
    ("fpolynomial-from-chains", check_fpoly_from_chains, 3, 12),
    ("zeta-polynomial-eval", check_zeta_polynomial, 3, 12),
])
