"""Large-|x| asymptotic forms for the solution of u^(2m) = x u.

The order parameter here is m, with n = 2m the equation order; m = 1
reduces both formulas to the classical leading-order Airy behavior
(exponential decay on one side, a single damped sine on the other).

For m >= 2 the oscillatory-side sum contains terms whose exponential
factors grow with |x|, which cannot match a bounded solution at fixed
leading order; comparisons there are reported, never asserted, and the
CLI labels them report-only.  The m = 1 case is the anchored, tested
regime.

Error estimates are heuristics (next-order-correction guesses), not
bounds.  Where the phase scale, the value or the estimate is not finite
the forms raise ConvergenceError.
"""

from __future__ import annotations

import math

from .common import ConvergenceError, DomainError, EvalResult, check_even_order

__all__ = ["m_for_order", "growth_exponent", "asympt_pos", "asympt_neg"]


def _check_m(m) -> int:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise DomainError(f"m must be a positive integer, got {m!r}")
    return m


def m_for_order(n: int) -> int:
    """Half the (even) equation order: u^(n) = x u corresponds to m = n/2."""
    return check_even_order(n) // 2


def growth_exponent(m: int, x: float) -> float:
    """alpha = (2m/(2m+1)) |x|^((2m+1)/(2m)), the phase/decay scale.

    Raises ConvergenceError where alpha is not finite.
    """
    m = _check_m(m)
    alpha = 2 * m / (2 * m + 1) * _pow(abs(x), (2 * m + 1) / (2 * m))
    if not math.isfinite(alpha):
        raise ConvergenceError(f"asymptotic phase scale is not finite at x={x!r} (m={m})")
    return alpha


def _exp(a: float) -> float:
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def _pow(a: float, p: float) -> float:
    try:
        return a**p
    except OverflowError:
        return math.inf


def _result(m: int, x: float, value: float, estimate: float) -> EvalResult:
    if not (math.isfinite(value) and math.isfinite(estimate)):
        raise ConvergenceError(
            f"asymptotic form (m={m}) or its estimate is not finite at x={x!r}"
        )
    return EvalResult(value=value, error_estimate=estimate, method="asymptotic")


def asympt_pos(m: int, x: float) -> EvalResult:
    """Decaying-side form, x > 0:

        exp(-alpha) / (sqrt(pi) sqrt(4m) x^((2m-1)/(4m))).
    """
    m = _check_m(m)
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"decaying-side form needs x > 0, got {x!r}")
    alpha = growth_exponent(m, x)
    value = _exp(-alpha) / (math.sqrt(math.pi) * math.sqrt(4.0 * m) * x ** ((2 * m - 1) / (4 * m)))
    # heuristic: the first neglected correction is O(x^-(2m+1)/(2m)) relative
    return _result(m, x, value, abs(value) * _pow(x, -(2 * m + 1) / (2 * m)))


def asympt_neg(m: int, x: float) -> EvalResult:
    """Oscillatory-side form, x < 0:

        (1 / (sqrt(pi) sqrt(m) (-x)^((2m-1)/(4m))))
          * sum_{k=0}^{m-1} exp(alpha cos((1+2k)pi/(2m)))
                          * sin(alpha sin((1+2k)pi/(2m)) + (1+2k)pi/(4m)).

    For m = 1 this is the damped sine sin(alpha + pi/4) / (sqrt(pi)
    (-x)^(1/4)); for m >= 2 some summands grow exponentially (see module
    docstring) and the result is for inspection only.
    """
    m = _check_m(m)
    x = float(x)
    if not x < 0.0:
        raise DomainError(f"oscillatory-side form needs x < 0, got {x!r}")
    alpha = growth_exponent(m, x)
    pref = 1.0 / (math.sqrt(math.pi) * math.sqrt(float(m)) * (-x) ** ((2 * m - 1) / (4 * m)))
    total = 0.0
    envelope = 0.0
    for k in range(m):
        if 1 + 2 * k == m:
            # theta = pi/2 exactly; math.cos(pi/2) is 6.1e-17, not 0
            cos_t, sin_t = 0.0, 1.0
        else:
            theta = (1 + 2 * k) * math.pi / (2 * m)
            cos_t, sin_t = math.cos(theta), math.sin(theta)
        grow = _exp(alpha * cos_t)
        total += grow * math.sin(alpha * sin_t + (1 + 2 * k) * math.pi / (4 * m))
        envelope += grow
    # the phase carries a few roundings of alpha: the 2m/(2m+1) factor,
    # the power, the products and the pi/(4m) offset
    phase_err = 4.0 * math.ulp(alpha)
    if phase_err >= 1.0:
        raise ConvergenceError(
            f"asymptotic phase has no correct digits at x={x!r} (m={m}, alpha={alpha:g})"
        )
    # heuristic: one inverse power of the phase scale off the envelope
    return _result(m, x, pref * total, pref * envelope * (1.0 / max(alpha, 1.0) + phase_err))
