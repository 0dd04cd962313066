import math

import pytest

from genairy import (
    ConvergenceError,
    DomainError,
    asympt_neg,
    asympt_pos,
    eval_series,
    sign_for,
    solution,
    taylor_model,
    v_contour,
)
from genairy.dispatch import METHODS


@pytest.mark.parametrize("n", [2, 4])
def test_auto_takes_series_inside_half_tol_else_contour(n):
    tol = 1e-8
    methods = set()
    for i in range(49):
        x = -24.0 + i
        res = solution(n, x, tol=tol)
        methods.add(res.method)
        if res.method == "series":
            assert res == eval_series(taylor_model(n), x, tol=tol)
            assert res.error_estimate < 0.5 * tol
        else:
            assert res == v_contour(n, sign_for(n), x, tol)
            try:
                assert eval_series(taylor_model(n), x, tol=tol).error_estimate >= 0.5 * tol
            except ConvergenceError:
                pass
    assert methods == {"series", "quadrature"}


@pytest.mark.parametrize("x", [-25.0, -20.5, 25.0])
def test_auto_far_out_is_contour_within_tol(oracle, x):
    res = solution(2, x)
    assert res.method == "quadrature"
    assert oracle(2, x, res.value) <= res.error_estimate <= 1e-8


def test_each_method_runs_its_route():
    assert solution(2, 1.0, method="series") == eval_series(taylor_model(2), 1.0, tol=1e-8)
    assert solution(6, -2.0, method="quad", tol=1e-12) == v_contour(6, 1, -2.0, 1e-12)
    assert solution(4, 9.0, method="asympt") == asympt_pos(2, 9.0)
    assert solution(4, -9.0, method="asympt") == asympt_neg(2, -9.0)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_x_is_a_domain_error(method, x):
    with pytest.raises(DomainError, match="x must be finite"):
        solution(2, x, method=method)


def test_bad_requests_are_domain_errors():
    with pytest.raises(DomainError, match="method must be one of"):
        solution(2, 1.0, method="contour")
    with pytest.raises(DomainError, match="x != 0"):
        solution(2, 0.0, method="asympt")
    for method in METHODS:
        with pytest.raises(DomainError, match="odd order"):
            solution(3, 1.0, method=method)
