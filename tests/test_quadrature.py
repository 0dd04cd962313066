import math

import numpy as np
import pytest
import scipy.special

from genairy import (
    ConvergenceError,
    DomainError,
    OscillatoryIntegrand,
    cutoff_T,
    eval_series,
    half_period_lumps,
    head_integral,
    initial_values,
    moment_integral,
    moment_integral_numeric,
    sign_for,
    tail_integral,
    taylor_model,
    v_pm,
    v_pm_derivative,
)

# fine-grid Riemann sum cross-checked with mpmath.quad (30 digits)
HEAD_N2_T1 = 0.99210296142501546134

# mpmath.airyai at 25+ digits
AI_KNOWN = {
    1.0: 0.1352924163128814155241,
    -2.0: 0.2274074282016855759919,
    6.0: 9.947694360252889570239e-6,
    -4.0: -0.07026553294928951509908,
    12.0: 1.3931846888753363e-13,
}

# mpmath.quadosc of t^k cos(t^(n+1)/(n+1) + k pi/2) at 30 digits
MOMENTS_KNOWN = {
    2: (1.11535352591224787, -0.813105137561972106),
    4: (1.20482183659355273, -0.496397359611633059, -0.459813217034023086, 0.802511018376056338),
    6: (
        1.20424707755567062,
        -0.340345845619617175,
        -0.531677118463274854,
        0.529246100673228139,
        0.317515530593531579,
        -0.816409155319287963,
    ),
}


def test_integrand_validation():
    with pytest.raises(DomainError):
        OscillatoryIntegrand(n=3, sigma=1, x=0.0)
    with pytest.raises(DomainError):
        OscillatoryIntegrand(n=2, sigma=0, x=0.0)
    with pytest.raises(DomainError):
        OscillatoryIntegrand(n=2, sigma=1, x=0.0, power=2)


def test_cutoff_rule():
    assert cutoff_T(2, 0.0) == 1.0
    assert cutoff_T(2, -3.0) == pytest.approx(math.sqrt(6.0) + 1.0)
    # past the stationary point: phase derivative positive at T
    for n in (2, 4, 6):
        for x in (-5.0, -1.0, 0.0, 2.0):
            f = OscillatoryIntegrand(n=n, sigma=sign_for(n), x=x)
            assert f.dphase(cutoff_T(n, x)) > 0.0


def test_head_integral_known_value():
    f = OscillatoryIntegrand(n=2, sigma=1, x=0.0)
    value, err = head_integral(f, 1.0, 1e-10)
    np.testing.assert_allclose(value, HEAD_N2_T1, rtol=1e-12)
    assert err < 1e-10


def test_head_budget_exhaustion():
    # the panel differences stall at the rounding level, above 1e-14, so
    # panels keep splitting until the default budget runs out
    f = OscillatoryIntegrand(n=2, sigma=1, x=-20.0)
    with pytest.raises(ConvergenceError, match="budget exhausted"):
        head_integral(f, cutoff_T(2, -20.0), 1e-14)


def test_lumps_alternate_and_decay():
    f = OscillatoryIntegrand(n=2, sigma=1, x=1.0)
    lumps = half_period_lumps(f, 0.0, 40)
    body = lumps[1:]
    assert np.all(body[::2] * body[1::2] < 0.0)  # alternating signs
    assert np.all(np.abs(body[1:]) < np.abs(body[:-1]))  # shrinking


def test_lumps_need_increasing_phase():
    f = OscillatoryIntegrand(n=2, sigma=1, x=-4.0)
    with pytest.raises(DomainError):
        half_period_lumps(f, 0.5, 8)  # stationary point is at sqrt(4) = 2


@pytest.mark.parametrize("x,ref", sorted(AI_KNOWN.items()))
def test_v_pm_airy_values(x, ref):
    res = v_pm(2, 1, x)
    assert abs(res.value - ref) <= max(5e-15, 4e-4 * abs(ref))
    # and the tiny-value regime keeps absolute accuracy near the noise floor
    if abs(ref) < 1e-12:
        assert abs(res.value - ref) < 2e-16


def test_v_pm_against_scipy_grid():
    for x in np.linspace(-5.0, 5.0, 21):
        ref = float(scipy.special.airy(x)[0])
        np.testing.assert_allclose(v_pm(2, 1, float(x)).value, ref, atol=2e-13)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_cross_method_agreement(n):
    tm = taylor_model(n)
    sigma = sign_for(n)
    tol = 1e-8 if n == 2 else 1e-6
    for x in np.linspace(-5.0, 5.0, 21):
        s = eval_series(tm, float(x)).value
        q = v_pm(n, sigma, float(x)).value
        assert abs(s - q) <= tol


def test_cutoff_independence():
    # conditional convergence check: the head/tail split must not matter;
    # orders above 4 are skipped here because doubling T multiplies the
    # head phase span by 2^(n+1) and the panel count with it
    for n, x in ((2, 1.0), (2, -3.0), (4, 2.5)):
        f = OscillatoryIntegrand(n=n, sigma=sign_for(n), x=x)
        t0 = cutoff_T(n, x)
        vals = []
        for T in (t0, 2.0 * t0):
            h, he = head_integral(f, T, 1e-10)
            t, te = tail_integral(f, T, 1e-10)
            vals.append(h + t)
        assert abs(vals[0] - vals[1]) <= 2e-10


def test_pure_tail_matches_split_form():
    # for sigma*x >= 1 v_pm integrates tail-only from 0; the generic
    # split at cutoff_T must give the same number
    for n, x in ((2, 2.0), (2, 6.0), (4, -3.0)):
        sigma = sign_for(n)
        f = OscillatoryIntegrand(n=n, sigma=sigma, x=x)
        T = cutoff_T(n, x)
        h, _ = head_integral(f, T, 1e-10)
        t, _ = tail_integral(f, T, 1e-10)
        np.testing.assert_allclose(v_pm(n, sigma, x).value, (h + t) / math.pi, atol=3e-11)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_derivatives_at_zero_match_initial_values(n):
    sigma = sign_for(n)
    iv = initial_values(n, sigma)
    for k in range(n):
        res = v_pm_derivative(n, sigma, 0.0, k)
        np.testing.assert_allclose(res.value, iv.values[k], atol=5e-10)


def test_derivative_at_nonzero_x():
    ref = float(scipy.special.airy(-1.5)[1])
    np.testing.assert_allclose(v_pm_derivative(2, 1, -1.5, 1).value, ref, atol=1e-10)


def test_derivative_order_validation():
    with pytest.raises(DomainError):
        v_pm_derivative(2, 1, 0.0, 2)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_moment_identity(n):
    for k in range(n):
        closed = moment_integral(n, k)
        numeric, resid = moment_integral_numeric(n, k)
        assert abs(closed - numeric) <= 1e-7
        np.testing.assert_allclose(closed, MOMENTS_KNOWN[n][k], rtol=1e-12)


def test_moment_validation():
    with pytest.raises(DomainError):
        moment_integral(2, 2)
    with pytest.raises(DomainError):
        moment_integral(2, -1)


def test_nonconvergence_raises():
    # pure tail (sigma*x >= 1): the Aitken residual cannot reach 1e-20
    with pytest.raises(ConvergenceError, match="residual"):
        v_pm(2, 1, 3.0, 1e-20)


def test_results_are_plain_floats():
    res = v_pm(2, 1, -2.0)
    assert type(res.value) is float
    assert type(res.error_estimate) is float
