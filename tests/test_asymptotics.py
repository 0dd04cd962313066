import math

import mpmath as mp
import numpy as np
import pytest

from genairy import (
    ConvergenceError,
    DomainError,
    asympt_neg,
    asympt_pos,
    eval_series,
    growth_exponent,
    m_for_order,
    sign_for,
    taylor_model,
    v_pm,
)

POS_GRID = (6.0, 8.0, 10.0, 12.0)
NEG_GRID = (-4.0, -6.0, -8.0, -10.0)

# mpmath.airyai at 25 digits
AI_AT_6 = 9.947694360252889570239e-6


def _v_pm_reference(n, x):
    # series while cancellation is below 1e-3 relative, else quadrature
    try:
        res = eval_series(taylor_model(n), x)
        if res.error_estimate <= 1e-3 * abs(res.value):
            return res.value
    except ConvergenceError:
        pass
    return v_pm(n, sign_for(n), x).value


def test_m_for_order():
    assert m_for_order(2) == 1
    assert m_for_order(8) == 4
    for bad in (3, 1, 0, 2.0):
        with pytest.raises(DomainError):
            m_for_order(bad)


def test_growth_exponent_m1():
    assert growth_exponent(1, 4.0) == pytest.approx((2.0 / 3.0) * 8.0)


def test_pos_reduces_to_classical_form():
    x = 7.3
    expected = math.exp(-(2.0 / 3.0) * x**1.5) / (2.0 * math.sqrt(math.pi) * x**0.25)
    assert asympt_pos(1, x).value == pytest.approx(expected, rel=1e-15)


def test_neg_reduces_to_classical_form():
    x = -9.1
    alpha = (2.0 / 3.0) * 9.1**1.5
    expected = math.sin(alpha + math.pi / 4.0) / (math.sqrt(math.pi) * 9.1**0.25)
    assert asympt_neg(1, x).value == pytest.approx(expected, rel=1e-15)


def test_pos_side_anchor_m1():
    a = asympt_pos(1, 6.0).value
    assert abs(a - AI_AT_6) / AI_AT_6 <= 0.01


def test_pos_side_deviation_decreases_m1():
    devs = []
    for x in POS_GRID:
        ref = _v_pm_reference(2, x)
        devs.append(abs(asympt_pos(1, x).value - ref) / abs(ref))
    assert devs[0] <= 0.01
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_neg_side_amplitude_m1():
    refs = [_v_pm_reference(2, x) for x in NEG_GRID]
    scale = max(abs(r) for r in refs)
    for x, r in zip(NEG_GRID, refs):
        assert abs(asympt_neg(1, x).value - r) <= 0.05 * scale


def test_error_estimates_are_heuristic_but_positive():
    for x in (5.0, 30.0):
        res = asympt_pos(1, x)
        assert res.error_estimate > 0.0
        assert res.method == "asymptotic"
    res = asympt_neg(1, -5.0)
    assert res.error_estimate > 0.0


def test_higher_m_evaluates_but_is_not_asserted():
    # m >= 2 forms are report-only; they must compute deterministically
    a1 = asympt_neg(2, -6.0).value
    a2 = asympt_neg(2, -6.0).value
    assert a1 == a2
    assert math.isfinite(a1)
    assert math.isfinite(asympt_pos(2, 8.0).value)


def test_wrong_side_rejected():
    with pytest.raises(DomainError):
        asympt_pos(1, -1.0)
    with pytest.raises(DomainError):
        asympt_pos(1, 0.0)
    with pytest.raises(DomainError):
        asympt_neg(1, 2.0)
    with pytest.raises(DomainError):
        asympt_neg(0, -2.0)


@pytest.mark.parametrize("x", [1e308, -1e308, -1e200, 1e-300, math.inf, -math.inf])
def test_overflow_is_refused(x):
    form = asympt_pos if x > 0.0 else asympt_neg
    with pytest.raises(ConvergenceError):
        form(1, x)


def test_finite_where_representable():
    res = asympt_pos(1, 1e200)  # underflows to an exact 0
    assert (res.value, res.error_estimate) == (0.0, 0.0)
    assert math.isfinite(asympt_neg(1, -1e-300).value)


def _neg_form_mp(m, x):
    """The oscillatory-side form of asympt_neg at 60 digits, at exact x."""
    with mp.workdps(60):
        ax = -mp.mpf(x)
        alpha = mp.mpf(2 * m) / (2 * m + 1) * ax ** (mp.mpf(2 * m + 1) / (2 * m))
        pref = 1 / (mp.sqrt(mp.pi) * mp.sqrt(m) * ax ** (mp.mpf(2 * m - 1) / (4 * m)))
        total = 0
        for k in range(m):
            theta = (1 + 2 * k) * mp.pi / (2 * m)
            total += mp.exp(alpha * mp.cos(theta)) * mp.sin(
                alpha * mp.sin(theta) + (1 + 2 * k) * mp.pi / (4 * m)
            )
        return pref * total


@pytest.mark.parametrize("x", [-1e6, -1e8, -1e10])
def test_neg_form_within_estimate_at_large_x(x):
    # the phase alpha + pi/4 keeps a few ulp(alpha) of rounding
    res = asympt_neg(1, x)
    with mp.workdps(60):
        assert abs(mp.mpf(res.value) - _neg_form_mp(1, x)) <= res.error_estimate


def test_neg_phase_without_digits_is_refused():
    with pytest.raises(ConvergenceError, match="no correct digits"):
        asympt_neg(1, -1e12)
