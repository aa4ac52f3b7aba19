"""One run of the oracle registry per test session.

The CHECKS lists of the suite modules of circpeaks.checks, which
verify.SUITES maps by suite name, are the one place where each oracle
loop is written.
tests/test_verify.py gives every registry check its own test id; a unit
test whose assertion a registry check makes over a range at least as wide
names that check through ``covered_by`` instead of repeating its loop.
"""

import pytest

from circpeaks import verify


@pytest.fixture(scope="session")
def registry():
    """The result of every check of run_suite("all", 8), keyed by (suite, name)."""
    return {(r.suite, r.name): r for r in verify.run_suite("all", 8)}


@pytest.fixture
def covered_by(registry):
    """Assert that registry check suite/name passed and that its range of n holds n."""

    def check(suite, name, n):
        result = registry[(suite, name)]
        assert result.ok, f"{suite}/{name}: {result.detail}"
        assert result.last is not None, f"{suite}/{name} declares no n range"
        assert result.first <= n <= result.last, \
            f"{suite}/{name} covers {result.first} <= n <= {result.last}, not n = {n}"

    return check
