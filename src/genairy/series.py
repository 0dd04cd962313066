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

The k-th derivative is summed term by term, a_j j!/(j-k)! x^(j-k).  A
model keeps one table per derivative order k of the premultiplied
coefficients a_j j!/(j-k)! with their powers j - k, over the nonzero
a_j of the body and of the tail block.  A table is built on the first
sum of that order and lives as long as the model; k <= K bounds their
number.  ``eval_series`` is the k = 0 case of the same sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    past the truncation, used only for tail bounds.  The derivative
    tables of ``_table`` are cached on the model and are not part of
    its value.
    """

    n: int
    sigma: int
    K: int
    a: tuple[float, ...]
    tail_block: tuple[float, ...]
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)


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
        # cos(d + k pi/2) / sin(2d) with d = (k+1) pi/(2m), reduced exactly:
        # 1/(2 sin d) for even k, 1/(2 cos d) = 1/(2 sin((m-k-1) pi/(2m)))
        # for odd k, negative for k = 1, 2 mod 4; so only one angle rounds
        num = k + 1 if k % 2 == 0 else m - k - 1
        sign = -1.0 if k % 4 in (1, 2) else 1.0
        vals.append(sigma**k * sign * amp / (2.0 * math.sin(num * math.pi / (2 * m))))
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


def _table(tm: TaylorModel, k: int):
    """Coefficients a_j j!/(j-k)! and powers j - k of the k-th derivative
    over the nonzero a_j with j >= k, body and tail block; built once per
    model and order."""
    tables = tm._tables.get(k)
    if tables is None:
        # c * _falling(j, k) is the factor the term-by-term sum
        # c * _falling(j, k) * x ** (j - k) forms first, so premultiplying
        # leaves every term bit-identical
        def columns(indexed):
            terms = [(j, c) for j, c in indexed if j >= k and c != 0.0]
            return tuple(c * _falling(j, k) for j, c in terms), tuple(j - k for j, _ in terms)

        tables = columns(enumerate(tm.a)) + columns(enumerate(tm.tail_block, tm.K + 1))
        tm._tables[k] = tables
    return tables


def _sum_core(tm: TaylorModel, x: float, deriv: int, tol: float):
    """Neumaier-summed partial sum, its error estimate, and sum|terms|.

    error estimate = |first omitted nonzero term| + eps * sum|terms|;
    the second piece is the cancellation floor of the alternating sum.
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

    body_c, body_p, tail_c, tail_p = _table(tm, deriv)
    total = 0.0
    comp = 0.0
    absum = 0.0
    for c, p in zip(body_c, body_p):
        t = c * x**p
        at = abs(t)
        s = total + t
        if abs(total) >= at:
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
        absum += at
    value = total + comp

    first_omitted = 0.0
    block = 0.0
    for c, p in zip(tail_c, tail_p):
        t = abs(c * x**p)
        block += t
        if first_omitted == 0.0:
            first_omitted = t
    if block / (1.0 - rho) > tol:
        raise _tail_refusal(tm, x, deriv, tol)
    return value, first_omitted + _EPS * absum, absum


def _tail_refusal(tm: TaylorModel, x: float, deriv: int, tol: float) -> ConvergenceError:
    return ConvergenceError(
        f"series tail not below tol={tol:g} at x={x:g} "
        f"(order {tm.n}, K={tm.K}, derivative {deriv})"
    )


def _series(tm: TaylorModel, x: float, k: int, tol: float) -> EvalResult:
    value, estimate, _ = _sum_core(tm, float(x), k, tol)
    return EvalResult(value=value, error_estimate=estimate, method="series")


def eval_series(tm: TaylorModel, x: float, tol: float = 1e-10) -> EvalResult:
    """Sum the model at x: :func:`eval_derivative_series` with k = 0.

    error_estimate = |first omitted nonzero term| + eps * sum|terms|;
    the second piece is the cancellation floor of the alternating sum.
    """
    return _series(tm, x, 0, tol)


def eval_derivative_series(tm: TaylorModel, x: float, k: int, tol: float = 1e-10) -> EvalResult:
    """Sum the k-th derivative of the model at x (term-by-term)."""
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"derivative order must be a non-negative integer, got {k!r}")
    if k > tm.K:
        raise DomainError(f"derivative order {k} exceeds truncation degree {tm.K}")
    return _series(tm, x, k, tol)


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
    u, err_u, u_absum = _sum_core(tm, xf, 0, tol)
    if abs(u) < 1e4 * _EPS * u_absum:
        raise PoleError(f"u({x!r}) is below the cancellation floor, u'/u has a pole")
    up, err_up, _ = _sum_core(tm, xf, 1, tol)
    y = up / u
    return EvalResult(
        value=y,
        error_estimate=(err_up + abs(y) * err_u) / abs(u),
        method="series",
    )
