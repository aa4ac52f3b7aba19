"""The oracle suites of circpeaks.verify, one module per suite.

Each module holds its suite's check_* functions and CHECKS, the ordered
list of (name, fn) pairs that run_suite runs, and imports only the
library modules that its checks test.  A check takes max_n and returns
(ok, detail); detail states the range covered, or the first
counterexample.
"""
