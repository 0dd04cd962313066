"""Generalized Airy functions: solutions of u^(n) = x u for even n.

Three independent evaluation routes (Taylor series from closed-form
initial data, quadrature -- the paper's oscillatory head+lump route and
a saddle-point contour -- and large-|x| asymptotics) plus the
differential-polynomial chain that turns u^(n)/u into a polynomial in
the logarithmic derivative y = u'/u and its derivatives.
:func:`solution` is the one evaluation policy, behind the command line.
"""

from .common import (
    ConvergenceError,
    DomainError,
    EvalResult,
    PoleError,
    check_even_order,
)
from .specfun import gamma
from .diffpoly import (
    DiffPolynomial,
    Jet,
    apply_lift,
    evaluate,
    exp_jet,
    f_n,
    f_one,
    log_derivative_jet,
    monomial_weight,
    render,
    to_json_terms,
    verify_cole_hopf,
)
from .series import (
    DEFAULT_K,
    InitialValues,
    TaylorModel,
    eval_derivative_series,
    eval_series,
    initial_values,
    riccati_solution,
    sign_for,
    taylor_coefficients,
    taylor_model,
)
from .quadrature import (
    OscillatoryIntegrand,
    cutoff_T,
    head_integral,
    half_period_lumps,
    moment_integral,
    moment_integral_numeric,
    tail_integral,
    v_pm,
    v_pm_derivative,
)
from .contour import v_contour
from .dispatch import solution
from .asymptotics import asympt_neg, asympt_pos, growth_exponent, m_for_order

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "EvalResult",
    "PoleError",
    "check_even_order",
    "gamma",
    "DiffPolynomial",
    "Jet",
    "apply_lift",
    "evaluate",
    "exp_jet",
    "f_n",
    "f_one",
    "log_derivative_jet",
    "monomial_weight",
    "render",
    "to_json_terms",
    "verify_cole_hopf",
    "DEFAULT_K",
    "InitialValues",
    "TaylorModel",
    "eval_derivative_series",
    "eval_series",
    "initial_values",
    "riccati_solution",
    "sign_for",
    "taylor_coefficients",
    "taylor_model",
    "OscillatoryIntegrand",
    "cutoff_T",
    "head_integral",
    "half_period_lumps",
    "moment_integral",
    "moment_integral_numeric",
    "tail_integral",
    "v_pm",
    "v_pm_derivative",
    "v_contour",
    "solution",
    "asympt_neg",
    "asympt_pos",
    "growth_exponent",
    "m_for_order",
    "__version__",
]
