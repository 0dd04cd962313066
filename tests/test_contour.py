import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special

from genairy import ConvergenceError, DomainError, moment_integral, sign_for, v_contour, v_pm

GRID = [float(x) for x in np.linspace(-25.0, 25.0, 51)]


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_error_within_estimate_within_tol(oracle, n, tol):
    sigma = sign_for(n)
    for x in GRID:
        res = v_contour(n, sigma, x, tol)
        assert oracle(n, x, res.value) <= res.error_estimate <= tol, (n, x)
        if n == 2:
            # the recurrence oracle itself agrees with scipy's Ai
            assert oracle(2, x, float(scipy.special.airy(x)[0])) <= 1e-13, x


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_origin_is_the_moment_closed_form(n):
    res = v_contour(n, sign_for(n), 0.0, 1e-10)
    m = n + 1
    with mp.workdps(40):
        exact = float(mp.power(m, mp.mpf(1) / m - 1) * mp.gamma(mp.mpf(1) / m)
                      * mp.cos(mp.pi / (2 * m)) / mp.pi)
    assert abs(res.value - exact) <= res.error_estimate
    # the library's closed form carries its gamma's 1e-14 relative error
    closed = moment_integral(n, 0) / math.pi
    assert abs(res.value - closed) <= res.error_estimate + 1e-14 * closed


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_agrees_with_head_and_lump_route(oracle, n):
    # the head+lump estimate is known to be optimistic at some of these
    # points; where the two routes disagree beyond the sum of their
    # estimates, the oracle must side with the contour
    sigma = sign_for(n)
    for x in np.linspace(-5.0, 5.0, 21):
        x = float(x)
        c = v_contour(n, sigma, x, 1e-10)
        p = v_pm(n, sigma, x)
        if abs(c.value - p.value) > c.error_estimate + p.error_estimate:
            assert oracle(n, x, c.value) <= c.error_estimate, (n, x)
            assert oracle(n, x, p.value) > p.error_estimate, (n, x)


@pytest.mark.parametrize("x", [1e308, -1e308, 1e30, -1e30, 1e4, -1e4, 5e-324])
@pytest.mark.parametrize("n", [2, 4])
def test_huge_x_is_honest_or_refused(n, x):
    sigma = sign_for(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = v_contour(n, sigma, x, 1e-8)
        except ConvergenceError:
            # only the oscillatory side, where the real segment is too long
            assert sigma * x < 0.0
            return
    assert math.isfinite(res.value)
    assert res.error_estimate <= 1e-8
    if sigma * x > 1e3:
        # the decaying side: v is far below 1e-300 here
        assert abs(res.value) <= res.error_estimate


def test_unreachable_tolerance_refuses():
    with pytest.raises(ConvergenceError):
        v_contour(2, 1, -3.0, 1e-18)
    with pytest.raises(ConvergenceError):
        v_contour(2, 1, -3.0, float("nan"))


@pytest.mark.parametrize(
    "args",
    [(3, 1, 0.0), (2, 0, 0.0), (2, 1, float("nan")), (2, 1, float("inf")), (2, 1, -float("inf"))],
)
def test_domain_errors(args):
    with pytest.raises(DomainError):
        v_contour(*args, 1e-8)


def test_results_are_plain_floats():
    res = v_contour(4, -1, -2.0, 1e-10)
    assert type(res.value) is float
    assert type(res.error_estimate) is float
    assert res.method == "quadrature"
