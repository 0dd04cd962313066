"""The one evaluation policy for the canonical solution of u^(n) = x u.

The paper's head+lump quadrature (:func:`genairy.quadrature.v_pm`) is
not a method here; it is the independent cross-check of ``verify`` and
of the tests.
"""

from __future__ import annotations

import math

from . import asymptotics, contour, series
from .common import ConvergenceError, DomainError, EvalResult

__all__ = ["METHODS", "solution"]

METHODS = ("auto", "series", "quad", "asympt")


def solution(n: int, x: float, *, method: str = "auto", tol: float = 1e-8) -> EvalResult:
    """The canonical solution of u^(n) = x u at x, by ``method``:

    series   the Taylor series; refuses when it cannot meet tol
    quad     the saddle-point contour quadrature (:mod:`genairy.contour`)
    asympt   the large-|x| form for the side of x; tol is not applied
    auto     the series value when its estimate is below tol/2, else the
             contour quadrature

    DomainError: odd n, non-finite x, unknown method, or x = 0 for
    asympt.  ConvergenceError: the method cannot meet tol, or the
    asymptotic value is not finite.
    """
    if method not in METHODS:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if method == "series":
        return series.eval_series(series.taylor_model(n), x, tol=tol)
    if method == "asympt":
        m = asymptotics.m_for_order(n)
        if x > 0.0:
            return asymptotics.asympt_pos(m, x)
        if x < 0.0:
            return asymptotics.asympt_neg(m, x)
        raise DomainError("asymptotic forms need x != 0")
    if method == "auto":
        # series while its tail and cancellation stay inside tol
        try:
            res = series.eval_series(series.taylor_model(n), x, tol=tol)
            if res.error_estimate < 0.5 * tol:
                return res
        except ConvergenceError:
            pass
    return contour.v_contour(n, series.sign_for(n), x, tol)
