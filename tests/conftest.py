"""One run of the oracle registry per test session.

The CHECKS lists of the suite modules of circpeaks.checks, which
verify.SUITES maps by suite name, are the one place where each oracle
loop is written.
tests/test_verify.py gives every registry check its own test id; a unit
test whose assertion a registry check makes over a range at least as wide
names that check through ``covered_by`` instead of repeating its loop.
"""

import re

import pytest

from circpeaks import verify


@pytest.fixture(scope="session")
def registry():
    """The result of every check of run_suite("all", 8), keyed by (suite, name)."""
    return {(r.suite, r.name): r for r in verify.run_suite("all", 8)}


@pytest.fixture
def covered_by(registry):
    """Assert that registry check suite/name passed and that its range reaches n."""

    def check(suite, name, n):
        result = registry[(suite, name)]
        assert result.ok, f"{suite}/{name}: {result.detail}"
        stated = re.search(r"n <= (\d+)", result.detail)
        assert stated, f"{suite}/{name} states no n <= K range: {result.detail!r}"
        top = int(stated.group(1))
        assert n <= top, f"{suite}/{name} covers n <= {top}, not n = {n}"

    return check
