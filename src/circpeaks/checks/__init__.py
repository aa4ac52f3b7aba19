"""The oracle suites of circpeaks.verify, one module per suite.

Each module holds its suite's check_* functions, imports only the
library modules that its checks test, and declares its checks through
verify._registry.  A check takes the range of n that run_suite hands it
(None for a check with no declared range) and returns (ok, detail);
detail says what held, or names the first counterexample.

This package module also pins what the series command prints, so that
the command and the series suite read one copy and neither loads the
other's modules.
"""

# What series prints as its printed_form_discrepancy, for --which P and H,
# pinned because neither depends on --order: the first y-order at which
# the cross-multiplied printed form fails, with both coefficients.  This
# is the one copy of each formula and note.  The checks
# series/printed-{f,h}-series-form of verify fail unless the coefficient
# recurrence of checks/series.py first fails at that order with those
# coefficients.
PRINTED_FORM_REPORTS = {
    "P": {
        "formula": "P(x,y) printed form (cross-multiplied)",
        "first_mismatch_y_order": 4,
        "lhs_coefficient": "x^3 + 2*x^2 + -1",
        "rhs_coefficient": "-1*x",
        "note": "printed denominator x-(x+1)y^2 should be x-(x+1)^2 y^2 and the "
                "numerator factor x(x+2)-xC(y^2) should be (x+1)((x+1)-C(y^2)); "
                "the shipped series uses the corrected form, which matches the "
                "recurrence-generated polynomials on the whole tested range",
    },
    "H": {
        "formula": "H(x,y) printed form (cross-multiplied)",
        "first_mismatch_y_order": 4,
        "lhs_coefficient": "x^3 + -1*x^2 + -1*x",
        "rhs_coefficient": "-1*x + 1",
        "note": "inherits the f-series misprint under x -> x-1; the shipped "
                "series uses the corrected form (x-1) - x^2 y^2 denominator",
    },
}
