"""Oscillatory-integral evaluation of v(x) = (1/pi) int_0^inf cos(phi) dt.

The phase is phi(t) = t^(n+1)/(n+1) + sigma*x*t, optionally shifted by a
constant (``phase_offset``) and weighted by t^power; the shifted and
weighted forms are exactly the x-derivatives of v and the Mellin-moment
integrands, so one engine serves all three.

Strategy, per integral:

* head on [0, T]: adaptive Clenshaw-Curtis with nested 17/9-point
  panels.  The default cutoff T = max(1, (2|x|)^(1/n) + 1) lies past any
  real stationary point of phi, so phi' > 0 and grows beyond T.  When
  sigma*x >= 1 the phase has no stationary point at all and the head is
  skipped (T = 0); that keeps every intermediate below 1/(sigma*x) and
  with it the rounding floor near the size of the (tiny) answer.
* tail on [T, inf): substitute w = phi(t), chop at the zeros of cos into
  half-period lumps, integrate each lump with 16-point Gauss-Legendre
  (inverting w -> t by safeguarded Newton), and sum the alternating
  lump sequence with iterated Aitken extrapolation.

The integral converges only conditionally; nothing here assumes
absolute convergence, and the cutoff-independence of head+tail is part
of the test suite rather than an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import ConvergenceError, DomainError, EvalResult, check_even_order
from .specfun import gamma

__all__ = [
    "OscillatoryIntegrand",
    "cutoff_T",
    "head_integral",
    "tail_integral",
    "half_period_lumps",
    "v_pm",
    "v_pm_derivative",
    "moment_integral",
    "moment_integral_numeric",
]

_EPS = math.ulp(1.0)
# limits of the head+tail evaluation; abs_tol, split evenly between head
# and tail, is the only setting
_HEAD_PANEL_BUDGET = 10_000
_MAX_HALF_PERIODS = 200
_ACCELERATION_DEPTH = 12


@dataclass(frozen=True)
class OscillatoryIntegrand:
    """t^power * cos(t^(n+1)/(n+1) + sigma*x*t + phase_offset) on t >= 0."""

    n: int
    sigma: int
    x: float
    power: int = 0
    phase_offset: float = 0.0

    def __post_init__(self):
        check_even_order(self.n)
        if self.sigma not in (-1, 1):
            raise DomainError(f"sigma must be -1 or +1, got {self.sigma!r}")
        if not 0 <= self.power <= self.n - 1:
            # envelope t^power/phi' must decay along the tail
            raise DomainError(
                f"power must lie in 0..{self.n - 1} for a convergent tail, got {self.power}"
            )

    def phase(self, t):
        return t ** (self.n + 1) / (self.n + 1) + (self.sigma * self.x) * t

    def dphase(self, t):
        return t**self.n + self.sigma * self.x

    def __call__(self, t):
        amp = t**self.power if self.power else 1.0
        return amp * np.cos(self.phase(t) + self.phase_offset)


def cutoff_T(n: int, x: float) -> float:
    """Default head/tail split point, past all real stationary points."""
    check_even_order(n)
    return max(1.0, (2.0 * abs(x)) ** (1.0 / n) + 1.0)


def _cc_nodes_weights(m: int):
    # classic Clenshaw-Curtis on [-1, 1], m + 1 nodes, m even
    theta = np.pi * np.arange(m + 1) / m
    nodes = np.cos(theta)
    w = np.zeros(m + 1)
    for i in range(m + 1):
        s = 0.0
        for j in range(1, m // 2 + 1):
            b = 1.0 if j == m // 2 else 2.0
            s += b / (4.0 * j * j - 1.0) * math.cos(2.0 * j * theta[i])
        w[i] = 1.0 - s
    w *= 2.0 / m
    w[0] *= 0.5
    w[m] *= 0.5
    return nodes, w


_CC_NODES, _CC_W_FINE = _cc_nodes_weights(16)
_CC_W_COARSE = _cc_nodes_weights(8)[1]
_GL_NODES, _GL_W = np.polynomial.legendre.leggauss(16)


def head_integral(f: OscillatoryIntegrand, T: float, abs_tol: float):
    """Adaptive panel integral of f over [0, T], to half of abs_tol.

    Returns (value, error_estimate); the estimate is the sum of accepted
    fine-vs-coarse panel differences.  Raises ConvergenceError when the
    panel budget runs out before every panel is accepted.
    """
    if T < 0.0:
        raise DomainError(f"cutoff must be non-negative, got {T!r}")
    if T == 0.0:
        return 0.0, 0.0
    tol = 0.5 * abs_tol
    # seed panels at roughly one per couple of radians of phase swing;
    # the swing must account for the dip down to the stationary point
    if f.sigma * f.x < 0.0:
        t_stat = (-f.sigma * f.x) ** (1.0 / f.n)
        low = f.phase(min(t_stat, T))
        swing = (f.phase(0.0) - low) + (f.phase(T) - low)
    else:
        swing = f.phase(T) - f.phase(0.0)
    nseed = int(min(64, max(4, swing / 2.0)))
    edges = np.linspace(0.0, T, nseed + 1)
    stack = [(edges[i], edges[i + 1]) for i in range(nseed)][::-1]
    budget = _HEAD_PANEL_BUDGET
    total = 0.0
    err = 0.0
    while stack:
        a, b = stack.pop()
        budget -= 1
        if budget < 0:
            raise ConvergenceError(
                f"head quadrature budget exhausted on [0, {T:g}] at tol={tol:g}"
            )
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        vals = f(mid + half * _CC_NODES)
        fine = half * float(_CC_W_FINE @ vals)
        coarse = half * float(_CC_W_COARSE @ vals[::2])
        diff = abs(fine - coarse)
        if diff <= tol * (b - a) / T or (b - a) <= 1e-12 * T:
            total += fine
            err += diff
        else:
            stack.append((mid, b))
            stack.append((a, mid))
    return total, err


# Compensated (double-double) helpers for the acceleration table.  The
# lump partial sums are O(0.1) while the extrapolated limit can sit at
# 1e-13; plain binary64 table arithmetic would bury the answer in its
# own cancellation noise.


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _dd_renorm(h, l):
    s = h + l
    return s, l - (s - h)


def _dd_add(xh, xl, yh, yl):
    s, e = _two_sum(xh, yh)
    return _dd_renorm(s, e + (xl + yl))


def _dd_sub(xh, xl, yh, yl):
    return _dd_add(xh, xl, -yh, -yl)


_SPLIT = 134217729.0  # 2**27 + 1, Dekker split factor


def _two_prod(a, b):
    p = a * b
    c = _SPLIT * a
    ahi = c - (c - a)
    alo = a - ahi
    c = _SPLIT * b
    bhi = c - (c - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    return _dd_renorm(p, e + (xh * yl + xl * yh))


def _dd_div(xh, xl, yh, yl):
    q1 = xh / yh
    ph, pl = _dd_mul(q1, np.zeros_like(q1), yh, yl)
    rh, rl = _dd_sub(xh, xl, ph, pl)
    return _dd_renorm(q1, (rh + rl) / yh)


def _invert_phase(f: OscillatoryIntegrand, w: np.ndarray, t_lo: float) -> np.ndarray:
    """Solve phase(t) = w for t >= t_lo where the phase is increasing.

    Vectorized safeguarded Newton; brackets shrink monotonically, so a
    bisection fallback keeps every iterate inside [lo, hi].
    """
    w = np.asarray(w, dtype=float)
    n1 = f.n + 1
    t = np.maximum((n1 * np.maximum(w, 0.0)) ** (1.0 / n1), t_lo)
    lo = np.full_like(w, float(t_lo))
    hi = np.maximum(2.0 * t + 1.0, lo + 1.0)
    for _ in range(90):
        grow = f.phase(hi) < w
        if not grow.any():
            break
        hi[grow] = 2.0 * hi[grow] + 1.0
    t = np.clip(t, lo, hi)
    for _ in range(100):
        resid = f.phase(t) - w
        hi = np.where(resid > 0.0, np.minimum(hi, t), hi)
        lo = np.where(resid <= 0.0, np.maximum(lo, t), lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = resid / f.dphase(t)
        tn = t - step
        bad = ~np.isfinite(tn) | (tn <= lo) | (tn >= hi)
        tn = np.where(bad, 0.5 * (lo + hi), tn)
        done = np.abs(tn - t) <= 1e-14 * np.maximum(np.abs(tn), 1.0)
        t = tn
        if done.all():
            break
    return t


def half_period_lumps(f: OscillatoryIntegrand, T: float, count: int) -> np.ndarray:
    """Run-in plus the first ``count`` half-period pieces of the tail.

    Pieces live in the w = phase + offset variable; boundaries are the
    zeros of cos(w).  Entry 0 is the (possibly empty) run-in from w(T)
    to the first zero; entries 1..count alternate in sign.

    On each full piece the cosine is evaluated from the local coordinate
    s = w - (zero) in (0, pi), where cos(w) = +-sin(s) exactly; only the
    slowly varying amplitude sees the large absolute w, so huge-argument
    rounding never touches the oscillatory factor.
    """
    if count < 1:
        raise DomainError(f"need at least one half period, got {count}")
    if f.dphase(T) <= 0.0:
        raise DomainError(
            f"tail start T={T!r} not past the stationary point of the phase"
        )
    w_start = f.phase(T) + f.phase_offset
    zero_idx = math.floor((w_start - 0.5 * math.pi) / math.pi) + 1
    first_zero = zero_idx * math.pi + 0.5 * math.pi
    out = np.empty(count + 1)

    half0 = 0.5 * (first_zero - w_start)
    if half0 > 0.0:
        wn = (w_start + half0) + half0 * _GL_NODES
        t = _invert_phase(f, wn - f.phase_offset, T)
        g = np.cos(wn) / f.dphase(t)
        if f.power:
            g *= t**f.power
        out[0] = half0 * float(g @ _GL_W)
    else:
        out[0] = 0.0

    s = 0.5 * math.pi * (1.0 + _GL_NODES)
    osc = -np.sin(s)  # cos at an even-index zero plus s
    k = np.arange(count)
    wn = first_zero + math.pi * k[:, None] + s[None, :]
    t = _invert_phase(f, (wn - f.phase_offset).ravel(), T).reshape(wn.shape)
    g = osc[None, :] / f.dphase(t)
    if f.power:
        g *= t**f.power
    signs = np.where((zero_idx + k) % 2 == 0, 1.0, -1.0)
    out[1:] = 0.5 * math.pi * signs * (g @ _GL_W)
    return out


def _accelerate(lumps: np.ndarray):
    """Iterated Aitken extrapolation of the lump partial sums.

    Partial sums and the whole table are kept in double-double pairs.
    Returns (estimate, residual_estimate); keeps the best column seen
    and stops deepening once the residual stagnates or the table
    collapses.
    """
    m = len(lumps)
    sh = np.empty(m)
    sl = np.empty(m)
    ah = al = 0.0
    for i, v in enumerate(lumps):
        ah, al = _dd_add(ah, al, float(v), 0.0)
        sh[i], sl[i] = ah, al
    if m == 1:
        return float(sh[0]), abs(float(sh[0]))
    best = float(0.5 * (sh[-1] + sh[-2]))
    best_err = float(0.5 * abs(sh[-1] - sh[-2]))
    prev_err = None
    for _ in range(_ACCELERATION_DEPTH):
        if len(sh) < 3:
            break
        d1h, d1l = _dd_sub(sh[1:-1], sl[1:-1], sh[:-2], sl[:-2])
        e1h, e1l = _dd_sub(sh[2:], sl[2:], sh[1:-1], sl[1:-1])
        d2h, d2l = _dd_sub(e1h, e1l, d1h, d1l)
        nh, nl = _dd_mul(d1h, d1l, d1h, d1l)
        with np.errstate(divide="ignore", invalid="ignore"):
            qh, ql = _dd_div(nh, nl, d2h, d2l)
            th, tl = _dd_sub(sh[:-2], sl[:-2], qh, ql)
        keep = np.isfinite(th) & np.isfinite(tl)
        th = th[keep]
        tl = tl[keep]
        if len(th) == 0:
            break
        est = float(th[-1] + tl[-1])
        ref = float(th[-2] + tl[-2]) if len(th) > 1 else float(sh[-1])
        err = abs(est - ref)
        if err < best_err:
            best, best_err = est, err
        elif prev_err is not None and err > 4.0 * prev_err:
            break
        prev_err = err
        sh, sl = th, tl
    return best, best_err


def tail_integral(f: OscillatoryIntegrand, T: float, abs_tol: float):
    """Accelerated integral of f over [T, inf), to half of abs_tol.

    Returns (value, residual_estimate).  Lump counts grow geometrically
    up to _MAX_HALF_PERIODS; the loop exits early once two successive
    estimates agree within their residuals and the tolerance is met.
    """
    tol = 0.5 * abs_tol
    counts = []
    c = 16
    while c < _MAX_HALF_PERIODS:
        counts.append(c)
        c *= 2
    counts.append(_MAX_HALF_PERIODS)
    prev_est = None
    best = None
    for count in counts:
        lumps = half_period_lumps(f, T, count)
        floor = _EPS * float(np.abs(lumps).sum())
        est, resid = _accelerate(lumps)
        resid = max(resid, floor)
        if best is None or resid < best[1]:
            best = (est, resid)
        # agreement must be judged against the current residual alone; a
        # loose previous chunk must not authorize an early stop
        if prev_est is not None and resid <= tol and abs(est - prev_est) <= 4.0 * resid:
            return est, resid
        prev_est = est
    return best


def v_pm(n: int, sigma: int, x: float, abs_tol: float = 1e-10) -> EvalResult:
    """(1/pi) int_0^inf cos(t^(n+1)/(n+1) + sigma x t) dt by head + tail.

    Raises ConvergenceError when head error plus tail residual misses
    abs_tol.
    """
    return v_pm_derivative(n, sigma, x, 0, abs_tol)


def v_pm_derivative(
    n: int, sigma: int, x: float, k: int, abs_tol: float = 1e-10
) -> EvalResult:
    """k-th x-derivative of v_pm, k = 0..n-1.

    Differentiating under the integral sign multiplies the integrand by
    sigma*t and advances the cosine by a quarter period each time.
    """
    if not isinstance(k, int) or not 0 <= k <= check_even_order(n) - 1:
        raise DomainError(f"derivative order must lie in 0..{n - 1}, got {k!r}")
    f = OscillatoryIntegrand(
        n=n, sigma=sigma, x=float(x), power=k, phase_offset=k * math.pi / 2.0
    )
    value, err = _head_tail(f, abs_tol)
    if err > abs_tol:
        raise ConvergenceError(
            f"quadrature residual {err:.3e} above abs_tol={abs_tol:g} "
            f"(n={n}, sigma={sigma:+d}, x={f.x:g}, k={k})"
        )
    return EvalResult(
        value=float(sigma**k * value / math.pi),
        error_estimate=float(err / math.pi),
        method="quadrature",
    )


def _head_tail(f: OscillatoryIntegrand, abs_tol: float):
    """Integral of f over [0, inf) and its error estimate, unscaled."""
    if f.sigma * f.x >= 1.0:
        T = 0.0  # phi' >= sigma*x > 0 everywhere, pure tail
    else:
        T = cutoff_T(f.n, f.x)
    head, head_err = head_integral(f, T, abs_tol)
    tail, tail_resid = tail_integral(f, T, abs_tol)
    return head + tail, head_err + tail_resid


def moment_integral(n: int, k: int) -> float:
    """Closed form of int_0^inf t^k cos(t^(n+1)/(n+1) + k pi/2) dt.

    Equals (n+1)^((k+1)/(n+1) - 1) * Gamma((k+1)/(n+1))
           * cos((k+1) pi / (2(n+1)) + k pi/2), for k = 0..n-1.
    """
    n = check_even_order(n)
    if not isinstance(k, int) or not 0 <= k <= n - 1:
        raise DomainError(f"moment order must lie in 0..{n - 1}, got {k!r}")
    m = n + 1
    p = (k + 1) / m
    return m ** (p - 1.0) * gamma(p) * math.cos((k + 1) * math.pi / (2 * m) + k * math.pi / 2)


def moment_integral_numeric(n: int, k: int, abs_tol: float = 1e-8):
    """Same integral by head + accelerated tail; returns (value, residual).

    The t^k envelope makes the lumps decay like t^(k-n), slowly for
    k near n-1, so the default tolerance is looser than v_pm's.
    """
    n = check_even_order(n)
    if not isinstance(k, int) or not 0 <= k <= n - 1:
        raise DomainError(f"moment order must lie in 0..{n - 1}, got {k!r}")
    f = OscillatoryIntegrand(n=n, sigma=1, x=0.0, power=k, phase_offset=k * math.pi / 2.0)
    value, err = _head_tail(f, abs_tol)
    return float(value), float(err)
