"""Taylor-series evaluation of solutions of u^(n) = x u, n even.

For even n exactly one sign choice makes

    v(x) = (1/pi) * integral_0^inf cos(t^(n+1)/(n+1) + sigma*x*t) dt

a solution of u^(n) = x u, namely sigma = +1 for n = 2 mod 4 and
sigma = -1 for n = 0 mod 4 (``sign_for``).  Its derivatives at 0 have
the closed form implemented in ``initial_values``; from those the ODE
fixes every Taylor coefficient through the one-term recurrence

    a_n = 0,    a_{j+n} = a_{j-1} / ((j+1)(j+2)...(j+n)),

so a_j = 0 exactly on the lattice j = n mod (n+1).  Summation is
compensated (Neumaier) and tracks sum(|terms|) so the result carries an
honest cancellation term in its error estimate; evaluation refuses when
the omitted tail cannot be bounded below the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .common import ConvergenceError, DomainError, EvalResult, PoleError, check_even_order
from .specfun import gamma

__all__ = [
    "DEFAULT_K",
    "InitialValues",
    "TaylorModel",
    "sign_for",
    "initial_values",
    "taylor_coefficients",
    "taylor_model",
    "eval_series",
    "eval_derivative_series",
    "riccati_solution",
]

DEFAULT_K = 120

_EPS = math.ulp(1.0)


def sign_for(n: int) -> int:
    """Sign sigma for which the cosine integral solves u^(n) = x u."""
    n = check_even_order(n)
    return 1 if n % 4 == 2 else -1


@dataclass(frozen=True)
class InitialValues:
    """Derivatives v^(k)(0), k = 0..n-1, of one solution of u^(n) = x u."""

    n: int
    sigma: int
    values: tuple[float, ...]


@dataclass(frozen=True)
class TaylorModel:
    """Coefficients a_j of sum a_j x^j through degree K.

    ``tail_block`` holds a_{K+1}..a_{K+n+1}; one full recurrence period
    past the truncation, used only for tail bounds.
    """

    n: int
    sigma: int
    K: int
    a: tuple[float, ...]
    tail_block: tuple[float, ...]


def initial_values(n: int, sigma: int) -> InitialValues:
    """Closed-form v^(k)(0) for k = 0..n-1.

    Valid for even n >= 2 and sigma in {-1, +1}.  The resulting data,
    fed through the Taylor recurrence, defines a solution of u^(n) = x u;
    it coincides with the cosine-integral function exactly when
    sigma == sign_for(n) (the opposite sign reproduces it at -x).
    """
    n = check_even_order(n)
    if sigma not in (-1, 1):
        raise DomainError(f"sigma must be -1 or +1, got {sigma!r}")
    m = n + 1
    vals = []
    for k in range(n):
        p = (n - k) / m
        amp = m ** (-p) / gamma(p)
        ang = (k + 1) * math.pi / (2 * m) + k * math.pi / 2
        vals.append(sigma**k * amp * math.cos(ang) / math.sin((k + 1) * math.pi / m))
    return InitialValues(n=n, sigma=sigma, values=tuple(vals))


def taylor_coefficients(iv: InitialValues, K: int = DEFAULT_K) -> TaylorModel:
    """Expand the solution with data ``iv`` through degree K."""
    n = iv.n
    if K < n:
        raise DomainError(f"need K >= {n}, got {K}")
    top = K + n + 1
    a = [0.0] * (top + 1)
    for k in range(n):
        a[k] = iv.values[k] / math.factorial(k)
    # a[n] = 0 already; the recurrence never writes index n
    for j in range(1, top - n + 1):
        denom = 1.0
        for l in range(1, n + 1):
            denom *= j + l
        a[j + n] = a[j - 1] / denom
    return TaylorModel(
        n=n,
        sigma=iv.sigma,
        K=K,
        a=tuple(a[: K + 1]),
        tail_block=tuple(a[K + 1 :]),
    )


@lru_cache(maxsize=64)
def taylor_model(n: int, K: int = DEFAULT_K) -> TaylorModel:
    """Model of the canonical (sigma = sign_for(n)) solution."""
    return taylor_coefficients(initial_values(n, sign_for(n)), K)


def _falling(j: int, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= j - i
    return out


def _sum_core(tm: TaylorModel, x: float, deriv: int, tol: float):
    """Neumaier-summed partial sum, |first omitted term|, sum|terms|.

    Raises DomainError for a non-finite x and ConvergenceError when the
    geometric tail bound misses tol.
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    n, K = tm.n, tm.K
    # tail control: the omitted coefficients repeat the block pattern
    # with block-to-block factor below rho for every index past K
    jm = K + 1 - n
    rho = 1.0
    for l in range(1, n + 1):
        rho *= abs(x) / (jm + l)
    rho *= abs(x)
    if deriv:
        # derivative weights grow along the tail; inflate the ratio
        rho *= ((jm + n + 1) / max(jm - deriv, 1)) ** deriv
    if rho >= 1.0:
        # refused before the terms are formed, so x ** j cannot overflow
        raise _tail_refusal(tm, x, deriv, tol)

    total = 0.0
    comp = 0.0
    absum = 0.0
    for j in range(deriv, K + 1):
        c = tm.a[j]
        if c == 0.0:
            continue
        t = c * _falling(j, deriv) * x ** (j - deriv)
        s = total + t
        if abs(total) >= abs(t):
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
        absum += abs(t)
    value = total + comp

    first_omitted = 0.0
    block = 0.0
    for i, c in enumerate(tm.tail_block):
        j = K + 1 + i
        if c == 0.0:
            continue
        t = abs(c * _falling(j, deriv) * x ** (j - deriv))
        block += t
        if first_omitted == 0.0:
            first_omitted = t
    if block / (1.0 - rho) > tol:
        raise _tail_refusal(tm, x, deriv, tol)
    return value, first_omitted, absum


def _tail_refusal(tm: TaylorModel, x: float, deriv: int, tol: float) -> ConvergenceError:
    return ConvergenceError(
        f"series tail not below tol={tol:g} at x={x:g} "
        f"(order {tm.n}, K={tm.K}, derivative {deriv})"
    )


def eval_series(tm: TaylorModel, x: float, tol: float = 1e-10) -> EvalResult:
    """Sum the model at x.

    error_estimate = |first omitted nonzero term| + eps * sum|terms|;
    the second piece is the cancellation floor of the alternating sum.
    """
    value, first_omitted, absum = _sum_core(tm, float(x), 0, tol)
    return EvalResult(value=value, error_estimate=first_omitted + _EPS * absum, method="series")


def eval_derivative_series(tm: TaylorModel, x: float, k: int, tol: float = 1e-10) -> EvalResult:
    """Sum the k-th derivative of the model at x (term-by-term)."""
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"derivative order must be a non-negative integer, got {k!r}")
    if k > tm.K:
        raise DomainError(f"derivative order {k} exceeds truncation degree {tm.K}")
    value, first_omitted, absum = _sum_core(tm, float(x), k, tol)
    return EvalResult(value=value, error_estimate=first_omitted + _EPS * absum, method="series")


def riccati_solution(n: int, x: float, K: int = DEFAULT_K, tol: float = 1e-10) -> EvalResult:
    """y(x) = u'(x)/u(x) for the canonical solution of u^(n) = x u.

    This is the function whose jet satisfies f_n(y, y', ...) = x.

    Raises
    ------
    PoleError
        When u(x) is indistinguishable from rounding noise, i.e. x sits
        numerically on a zero of u.
    """
    n = check_even_order(n)
    tm = taylor_model(n, K)
    xf = float(x)
    u, u_tail, u_absum = _sum_core(tm, xf, 0, tol)
    if abs(u) < 1e4 * _EPS * u_absum:
        raise PoleError(f"u({x!r}) is below the cancellation floor, u'/u has a pole")
    up, up_tail, up_absum = _sum_core(tm, xf, 1, tol)
    y = up / u
    err_u = u_tail + _EPS * u_absum
    err_up = up_tail + _EPS * up_absum
    return EvalResult(
        value=y,
        error_estimate=(err_up + abs(y) * err_u) / abs(u),
        method="series",
    )
