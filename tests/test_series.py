import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special

from genairy import (
    ConvergenceError,
    DomainError,
    InitialValues,
    PoleError,
    eval_derivative_series,
    eval_series,
    initial_values,
    riccati_solution,
    sign_for,
    taylor_coefficients,
    taylor_model,
)

# derivatives at 0 of the cosine-integral solution, mpmath at 30+ digits,
# sigma = sign_for(n); n = 2 entries are Ai(0) and Ai'(0)
INITIAL_KNOWN = {
    (2, 1): (0.3550280538878172392601, -0.2588194037928067984052),
    (4, -1): (
        0.3835067016778394119076,
        0.1580081870399131274177,
        -0.1463630927799025264351,
        -0.2554471909205204370083,
    ),
    (6, 1): (
        0.3833237501939080534965,
        -0.1083354473823063339701,
        -0.1692380830645708085914,
        0.1684642660685102685557,
        0.1010683324048129419959,
        -0.2598711053090872319976,
    ),
    (8, -1): (
        0.3789331668834596546636,
        0.08094563519149386406172,
        -0.1706796860555932804286,
        -0.1203003780750029725875,
        0.1233457415193276450868,
        0.1794553516404520190347,
        -0.07951518157799673020267,
        -0.2646648286829119465068,
    ),
}

AI_KNOWN = {1.0: 0.1352924163128814155241, -2.0: 0.2274074282016855759919}

RICCATI_AT_ZERO_N2 = -0.72901113294722698142
FIRST_AIRY_ZERO = -2.3381074104597670385


def test_sign_rule():
    assert [sign_for(n) for n in (2, 4, 6, 8, 10, 12)] == [1, -1, 1, -1, 1, -1]
    for bad in (1, 3, 0, -2, 2.0):
        with pytest.raises(DomainError):
            sign_for(bad)


@pytest.mark.parametrize("key", sorted(INITIAL_KNOWN))
def test_initial_values_closed_form(key):
    n, sigma = key
    iv = initial_values(n, sigma)
    np.testing.assert_allclose(iv.values, INITIAL_KNOWN[key], rtol=1e-10)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_initial_values_within_five_units(initial_oracle, n):
    # the angle is reduced exactly, so only amplitude and one sine round
    got = initial_values(n, sign_for(n)).values
    for v, ref in zip(got, initial_oracle(n)):
        with mp.workdps(40):
            assert abs(mp.mpf(v) - ref) <= 5 * mp.mpf(2) ** -53 * abs(ref)


def test_initial_values_sigma_parity():
    # v_{-sigma}^{(k)}(0) = (-1)^k v_sigma^{(k)}(0)
    a = initial_values(6, 1).values
    b = initial_values(6, -1).values
    for k in range(6):
        assert b[k] == pytest.approx((-1) ** k * a[k], rel=1e-14)


def test_initial_values_validation():
    with pytest.raises(DomainError):
        initial_values(5, 1)
    with pytest.raises(DomainError):
        initial_values(4, 2)


def test_recurrence_on_unit_seed():
    # u'' = x u with u(0)=1, u'(0)=0: a_3 = 1/6, a_6 = 1/180, a_2 = a_5 = 0
    tm = taylor_coefficients(InitialValues(n=2, sigma=1, values=(1.0, 0.0)), K=12)
    np.testing.assert_allclose(
        tm.a[:8], (1.0, 0.0, 0.0, 1 / 6, 0.0, 0.0, 1 / 180, 0.0), rtol=1e-15
    )


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_coefficient_lattice(n):
    # a_j = 0 exactly on j = n mod (n+1), nonzero elsewhere
    tm = taylor_model(n)
    for j, a in enumerate(tm.a):
        if j % (n + 1) == n:
            assert a == 0.0
        else:
            assert a != 0.0


def test_series_matches_airy_values():
    tm = taylor_model(2)
    for x, ref in AI_KNOWN.items():
        np.testing.assert_allclose(eval_series(tm, x).value, ref, rtol=1e-13)


def test_series_against_scipy_grid():
    tm = taylor_model(2)
    for x in np.linspace(-5.0, 5.0, 41):
        ref = float(scipy.special.airy(x)[0])
        res = eval_series(tm, float(x))
        assert abs(res.value - ref) <= 1e-12 + abs(res.error_estimate) * 4


def test_derivative_series_against_scipy_grid():
    tm = taylor_model(2)
    for x in np.linspace(-4.0, 4.0, 17):
        ref = float(scipy.special.airy(x)[1])
        res = eval_derivative_series(tm, float(x), 1)
        np.testing.assert_allclose(res.value, ref, atol=1e-12, rtol=1e-10)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 1.0, 3.0])
def test_ode_residual(n, x):
    tm = taylor_model(n)  # K = 120
    u = eval_series(tm, x).value
    un = eval_derivative_series(tm, x, n).value
    assert abs(un - x * u) <= 1e-9 * (1.0 + abs(x * u))


def test_error_estimate_covers_true_error():
    tm = taylor_model(2)
    for x in (-5.0, -2.0, 1.0, 3.0, 6.0):
        ref = float(scipy.special.airy(x)[0])
        res = eval_series(tm, x)
        assert abs(res.value - ref) <= 10.0 * res.error_estimate + 1e-15


@pytest.mark.parametrize("x", [6.0, 8.0, 9.15])
def test_error_estimate_bounds_oracle_error(oracle, x):
    # the positive side cancels most; error in the initial values is
    # amplified by that cancellation, so gamma must be accurate to ~1 ulp
    res = eval_series(taylor_model(2), x, tol=1e-8)
    assert oracle(2, x, res.value) <= res.error_estimate


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_x_is_a_domain_error(x):
    tm = taylor_model(2)
    with pytest.raises(DomainError, match="x must be finite"):
        eval_series(tm, x)
    with pytest.raises(DomainError, match="x must be finite"):
        eval_derivative_series(tm, x, 1)
    with pytest.raises(DomainError, match="x must be finite"):
        riccati_solution(2, x)


def test_tail_refusal_large_x():
    tm = taylor_model(2)
    with pytest.raises(ConvergenceError):
        eval_series(tm, 40.0)
    with pytest.raises(ConvergenceError):
        eval_series(tm, -40.0)
    # a tiny tolerance turns moderate x into a refusal too
    with pytest.raises(ConvergenceError):
        eval_series(tm, 12.0, tol=1e-30)


def test_derivative_validation():
    tm = taylor_model(2)
    with pytest.raises(DomainError):
        eval_derivative_series(tm, 1.0, -1)
    with pytest.raises(DomainError):
        eval_derivative_series(tm, 1.0, 121)


def test_riccati_value():
    np.testing.assert_allclose(
        riccati_solution(2, 0.0).value, RICCATI_AT_ZERO_N2, rtol=1e-12
    )


def test_riccati_matches_scipy_ratio():
    for x in (-2.0, -1.0, 0.5, 2.0):
        ai, aip, _, _ = scipy.special.airy(x)
        np.testing.assert_allclose(riccati_solution(2, x).value, aip / ai, rtol=1e-10)


def test_riccati_pole_detected():
    with pytest.raises(PoleError):
        riccati_solution(2, FIRST_AIRY_ZERO)


def test_taylor_coefficients_validation():
    with pytest.raises(DomainError):
        taylor_coefficients(initial_values(4, -1), K=3)


def _falling_reference(j, k):
    out = 1.0
    for i in range(k):
        out *= j - i
    return out


def _sum_reference(tm, x, k, tol):
    """The term-by-term sum with j!/(j-k)! formed for every term: value
    and error estimate, or None where it refuses."""
    n, K = tm.n, tm.K
    jm = K + 1 - n
    rho = 1.0
    for l in range(1, n + 1):
        rho *= abs(x) / (jm + l)
    rho *= abs(x)
    if k:
        rho *= ((jm + n + 1) / max(jm - k, 1)) ** k
    if rho >= 1.0:
        return None
    total = comp = absum = 0.0
    for j in range(k, K + 1):
        c = tm.a[j]
        if c == 0.0:
            continue
        t = c * _falling_reference(j, k) * x ** (j - k)
        s = total + t
        if abs(total) >= abs(t):
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
        absum += abs(t)
    first_omitted = block = 0.0
    for i, c in enumerate(tm.tail_block):
        j = K + 1 + i
        if c == 0.0:
            continue
        t = abs(c * _falling_reference(j, k) * x ** (j - k))
        block += t
        if first_omitted == 0.0:
            first_omitted = t
    if block / (1.0 - rho) > tol:
        return None
    return total + comp, first_omitted + math.ulp(1.0) * absum


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_derivative_tables_are_bit_identical(n, tol):
    tm = taylor_model(n)
    outcomes = set()
    xs = [-12.0 + 0.5 * i for i in range(49)] + [-40.0, 40.0]
    for k in range(n + 2):
        for x in xs:
            ref = _sum_reference(tm, x, k, tol)
            outcomes.add(ref is None)
            if ref is None:
                with pytest.raises(ConvergenceError):
                    eval_derivative_series(tm, x, k, tol)
                continue
            res = eval_derivative_series(tm, x, k, tol)
            assert (res.value, res.error_estimate) == ref
            if k == 0:
                res = eval_series(tm, x, tol)
                assert (res.value, res.error_estimate) == ref
    assert outcomes == {True, False}
