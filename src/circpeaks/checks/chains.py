"""The chains suite: zeta values and chain counts against the poset
chain oracles, and against one another."""

from __future__ import annotations

from .. import chains_zeta, complex_poset, exact_algebra, peak_sets
from ..poset_core import _poset_chain_counts
from ..verify import PERM_DEFAULT, _chain_count_formula, _valid_subsets


def check_zeta_oracle(max_n: int) -> tuple[bool, str]:
    top = min(PERM_DEFAULT, max_n)
    for n in range(3, top + 1):
        counts = _poset_chain_counts(_valid_subsets(n), 5, strict=False)
        for i in range(2, 7):
            if chains_zeta.zeta(n, i) != counts[i - 1]:
                return False, f"zeta mismatch at n={n}, i={i}"
    return True, f"zeta = multichain oracle, n <= {top}, i <= 6"


def check_zeta_recurrence(max_n: int) -> tuple[bool, str]:
    for n in range(3, 13):
        for i in range(2, 7):
            correction = exact_algebra.exact_quotient(
                exact_algebra.epsilon_odd(n) * 2 * (i - 1) ** ((n + 1) // 2)
                * exact_algebra.binomial(n - 1, (n - 1) // 2),
                n + 1, f"zeta recurrence correction at n={n}, i={i}")
            if chains_zeta.zeta(n + 1, i) != i * chains_zeta.zeta(n, i) - correction:
                return False, f"zeta recurrence failed at n={n}, i={i}"
    return True, "zeta recurrence with parity correction, n <= 12, i <= 6"


def check_chain_formula(max_n: int) -> tuple[bool, str]:
    top = min(12, max_n + 4)
    for n in range(3, top + 1):
        last = peak_sets.max_peak_count(n) + 3
        counts = _poset_chain_counts(_valid_subsets(n), last, strict=True)
        for i in range(1, last + 1):
            formula = _chain_count_formula(n, i)
            oracle = counts[i] if i < len(counts) else 0
            if formula != oracle:
                return False, f"chain count mismatch at (n={n}, i={i}): formula {formula}, oracle {oracle}"
    return True, f"multinomial chain formula = strict-chain oracle, n <= {top}, i <= D+3"


def check_chain_counts(max_n: int) -> tuple[bool, str]:
    top = min(16, max_n + 8)
    for n in range(3, top + 1):
        counts = chains_zeta.chain_counts(n)
        d = peak_sets.max_peak_count(n)
        if len(counts) != d + 2 or counts[0] != 1:
            return False, f"chain_counts({n}) is not 1 followed by D+1 counts: {counts}"
        for i in range(1, d + 4):
            fast = counts[i] if i < len(counts) else 0
            formula = _chain_count_formula(n, i)
            if fast != formula:
                return False, f"chain count mismatch at (n={n}, i={i}): inversion {fast}, composition sum {formula}"
    return True, f"binomial-inversion chain counts = composition sum, n <= {top}, i <= D+3"


def check_chain_formula_elements(max_n: int) -> tuple[bool, str]:
    for n in range(3, 21):
        if _chain_count_formula(n, 1) != peak_sets.count_valid(n):
            return False, f"element count mismatch at n={n}"
    return True, "chain formula at i=1 counts the faces, n <= 20"


def check_zeta_from_chains(max_n: int) -> tuple[bool, str]:
    top = min(10, max_n + 2)
    for n in range(3, top + 1):
        for i in range(2, 7):
            recon = sum(
                _chain_count_formula(n, j - 1) *
                exact_algebra.binomial(i - 2, j - 2)
                for j in range(2, peak_sets.max_peak_count(n) + 4)
            )
            if recon != chains_zeta.zeta(n, i):
                return False, f"chain reconstruction of zeta failed at n={n}, i={i}"
    return True, f"chain counts reconstruct zeta, n <= {top}, i <= 6"


def check_fpoly_from_chains(max_n: int) -> tuple[bool, str]:
    top = min(12, max_n + 4)
    for n in range(3, top + 1):
        rebuilt = chains_zeta._f_polynomial_from_counts(n, _chain_count_formula)
        if rebuilt != complex_poset.f_polynomial(n):
            return False, f"chain reconstruction of f-polynomial failed at n={n}"
    return True, f"f-polynomial rebuilt from chain counts, n <= {top}"


def check_zeta_polynomial(max_n: int) -> tuple[bool, str]:
    for n in range(3, 13):
        zp = chains_zeta.zeta_polynomial(n)
        for i in range(2, 7):
            if zp.eval(i) != chains_zeta.zeta(n, i):
                return False, f"zeta polynomial eval mismatch at n={n}, i={i}"
    return True, "zeta polynomial evaluates to zeta, n <= 12, i <= 6"


CHECKS = [
    ("zeta-vs-multichain-oracle", check_zeta_oracle),
    ("zeta-recurrence", check_zeta_recurrence),
    ("chain-formula-vs-oracle", check_chain_formula),
    ("chain-counts-vs-composition-sum", check_chain_counts),
    ("chain-formula-element-count", check_chain_formula_elements),
    ("zeta-from-chain-counts", check_zeta_from_chains),
    ("fpolynomial-from-chains", check_fpoly_from_chains),
    ("zeta-polynomial-eval", check_zeta_polynomial),
]
