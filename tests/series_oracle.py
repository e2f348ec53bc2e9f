"""The multiplicative inverse of a truncated series, kept as a test oracle.

No library route inverts a series: h and e come from the product form of
H(u) and the lambda-ring negation, and the S-fraction from the three-term
recurrence.  The tests check those routes against inverses built here, and
test_poly_sympy checks this inverse against sympy.
"""

from __future__ import annotations

from narayana_lab.poly import PolyQQ
from narayana_lab.series import TruncSeries


def series_inverse(s: TruncSeries) -> TruncSeries:
    """1/s to the order of s; its constant term must be a Laurent unit, else ArithmeticError."""
    c = s.coefficients()
    c0 = c[0]
    if c0.is_zero or not c0.is_monomial():
        raise ArithmeticError(f"constant term {c0} is not invertible")
    inv0 = c0 ** -1
    out = [inv0]
    for n in range(1, s.order + 1):
        acc = PolyQQ.zero()
        for k in range(1, n + 1):
            if not c[k].is_zero:
                acc = acc + c[k] * out[n - k]
        out.append(-(inv0 * acc))
    return TruncSeries(out, order=s.order)
