"""Contour-integral evaluation of v(x) = (1/pi) int_0^inf cos(phi(t)) dt.

The phase is phi(t) = t^(n+1)/(n+1) + s t with s = sigma*x, so
v = (1/pi) Re int_0^inf e^(i phi(t)) dt.  The integrand is entire, so the
real half-line may be swapped for any path from 0 that ends in the
sector where e^(i phi) decays.  With theta = pi/(2(n+1)) the path is

* s >= 0: the ray t = r e^(i theta), r >= 0;
* s < 0: the real segment [0, t0], where t0 = (-s)^(1/n) is the real
  saddle point (phi'(t0) = 0), followed by the ray t = t0 + r e^(i theta).

Why the ray has no hump.  Let t_a be the start of the ray (0 or t0).
Then phi(t_a + u) = phi(t_a) + sum_{k=1}^{n+1} c_k u^k with
c_k = C(n+1, k) t_a^(n+1-k) / (n+1) >= 0 for k >= 2, and
c_1 = phi'(t_a) = t_a^n + s, which is s >= 0 on the first path and 0 at
the saddle.  Hence

    Im phi(t_a + r e^(i theta)) = sum_k c_k r^k sin(k theta),

and since 0 < k theta <= pi/2 for every k <= n+1, each term is
non-negative and increasing in r.  phi(t_a) is real, so
|e^(i phi)| = e^(-Im phi) falls monotonically from 1 along the ray:
no term of the quadrature sum exceeds the integrand's start value and
nothing cancels beyond O(1).  (The plain ray from 0 at s < 0 carries a
factor e^(|s| r sin theta) and loses digits to cancellation.)  On the
real segment the integrand is cos(phi), bounded by 1 as well.

Truncation.  The k = n+1 term alone gives Im phi >= r^(n+1)/(n+1), so
the ray beyond r = R adds at most

    int_R^inf e^(-r^(n+1)/(n+1)) dr <= int_R^inf (r/R)^n e^(-r^(n+1)/(n+1)) dr
                                     = e^(-R^(n+1)/(n+1)) / R^n,

which is e^-40 / R^n for R = (40(n+1))^(1/(n+1)).

Quadrature.  Adaptive Gauss-Legendre panels, all live panels of a round
evaluated in one vectorised pass: a panel's coarse value (one rule on the
whole panel) is compared with its fine value (the same rule on each
half); a panel is accepted when the difference is below its share of
the tolerance, otherwise its halves become the next round's panels with
their values as coarse.  The error estimate is the sum of the accepted
differences, a rounding floor 2 eps * sum w |g| (1 + |t|^(n+1) + |x||t|)
for the phase rounding at each node, and the truncation bound.  Seed
panels are cut so that the phase changes by a bounded amount across
each (see _seed_edges): on wider panels both rules can be equally
wrong while agreeing with each other.

The contour idea follows Gil, Segura & Temme, "Computing complex Airy
functions by numerical quadrature", Numer. Algorithms (2002); see also
Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Review (2014).  The real-axis route of the paper stays in
:mod:`genairy.quadrature` as the independent cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .common import ConvergenceError, DomainError, EvalResult, check_even_order

__all__ = ["v_contour"]

_EPS = math.ulp(1.0)
_GL_NODES, _GL_W = np.polynomial.legendre.leggauss(16)
# node offsets from a panel's left edge, in units of its half-width: the
# whole panel, and its two halves side by side
_WHOLE = 1.0 + _GL_NODES
_HALVES = 0.5 * np.concatenate([1.0 + _GL_NODES, 3.0 + _GL_NODES])
_HALVES_W = np.concatenate([_GL_W, _GL_W])
# where the ray's phase bound is sampled to place its seed edges, over [0, R]
_UNIT = np.linspace(0.0, 1.0, 257)
# Im phi reaches this at the end of the ray; e^-40 is far below any tol
_TAIL_EXPONENT = 40.0
# a seed panel spans at most about this much change of the (complex) phase,
# which 16-point Gauss-Legendre resolves to far below rounding, so the
# fine-vs-coarse difference measures a converged rule from the first round
_SEED_PHASE = 12.0
# panels created in total before the evaluation refuses
_MAX_PANELS = 4000


def _integrand(n: int, s: float, t0: float, p: np.ndarray):
    """Re(dt/dp e^(i phi(t(p)))) on the path parameter p, and each node's
    rounding weight 2 |e^(i phi)| (1 + |t|^(n+1) + |s||t|).

    p in [0, t0] is the real segment t = p; p > t0 is the ray
    t = t0 + (p - t0) e^(i theta).  The weight bounds the phase error
    from rounding t (|phi'(t)| eps |t|) plus that of forming phi itself.
    Nodes where e^(-Im phi) underflows contribute exactly 0, whatever
    overflow their phase met on the way.
    """
    theta = math.pi / (2 * (n + 1))
    d = p - t0
    t = p + np.maximum(d, 0.0) * complex(math.cos(theta) - 1.0, math.sin(theta))
    tn = t**n
    phi = t * (tn / (n + 1) + s)
    mag = np.exp(-phi.imag)
    live = mag > 0.0
    value = np.where(live, mag * np.cos(phi.real + theta * (d > 0.0)), 0.0)
    at = np.abs(t)
    weight = np.where(live, 2.0 * mag * (1.0 + at * (np.abs(tn) + abs(s))), 0.0)
    return value, weight


def _seed_edges(n: int, s: float, t0: float, R: float) -> np.ndarray:
    """Panel edges before any refinement, each panel spanning at most
    about _SEED_PHASE of phase change.

    On the real segment phi falls monotonically by |phi(t0)| = |s| t0 n/(n+1),
    cut into equal panels.  On the ray |phi(t0 + u) - phi(t0)| grows no
    faster than P(r) = sum_k c_k r^k, the docstring's expansion with every
    term taken positive, so edges go where P crosses multiples of
    _SEED_PHASE.  Since sin(k theta) >= sin(theta), Im phi >= P(r) sin(theta):
    past P = _TAIL_EXPONENT / sin(theta) the integrand is below e^-40 and
    one panel runs on to R.
    """
    edges = [t0]
    if t0 > 0.0:
        swing = -s * t0 * n / (n + 1)
        if not swing <= _MAX_PANELS * _SEED_PHASE:
            raise ConvergenceError(
                f"contour quadrature needs more than {_MAX_PANELS} panels for "
                f"the phase swing {swing:.3g} on [0, t0] (n={n}, sigma*x={s:g})"
            )
        k = max(1, math.ceil(swing / _SEED_PHASE))
        edges = list(np.arange(k) * (t0 / k)) + edges
    r = R * _UNIT
    # sum_{k>=2} c_k r^k in closed form, plus c_1 r
    P = ((t0 + r) ** (n + 1) - t0 ** (n + 1)) / (n + 1) - t0**n * r + max(s, 0.0) * r
    top = _TAIL_EXPONENT / math.sin(math.pi / (2 * (n + 1)))
    levels = _SEED_PHASE * np.arange(1, math.ceil(top / _SEED_PHASE) + 1)
    edges.extend(t0 + np.interp(levels[levels < P[-1]], P, r))
    edges.append(t0 + R)
    return np.array(edges)


def v_contour(n: int, sigma: int, x: float, abs_tol: float) -> EvalResult:
    """(1/pi) int_0^inf cos(t^(n+1)/(n+1) + sigma x t) dt along the
    saddle-point contour of the module docstring.

    Raises DomainError for an odd order, a sigma other than +-1 or a
    non-finite x, and ConvergenceError when the panel budget runs out or
    the error estimate is not below abs_tol (a NaN estimate included).
    """
    n = check_even_order(n)
    if sigma not in (-1, 1):
        raise DomainError(f"sigma must be -1 or +1, got {sigma!r}")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    s = sigma * x
    t0 = (-s) ** (1.0 / n) if s < 0.0 else 0.0
    R = (_TAIL_EXPONENT * (n + 1)) ** (1.0 / (n + 1))
    # half of abs_tol, in units of the integral, shared out by panel width
    tol_per_half = math.pi * abs_tol / (t0 + R)

    total = diff_sum = floor = 0.0
    with np.errstate(all="ignore"):
        edges = _seed_edges(n, s, t0, R)
        lo, half = edges[:-1], 0.5 * np.diff(edges)
        created = len(lo)
        vals, _ = _integrand(n, s, t0, lo[:, None] + half[:, None] * _WHOLE)
        coarse = half * (vals @ _GL_W)
        while True:
            vals, weights = _integrand(n, s, t0, lo[:, None] + half[:, None] * _HALVES)
            q = 0.5 * half
            parts = q[:, None] * (vals.reshape(-1, 2, len(_GL_W)) @ _GL_W)
            fine = parts[:, 0] + parts[:, 1]
            diff = np.abs(fine - coarse)
            ok = diff <= tol_per_half * half
            total += float(fine[ok].sum())
            diff_sum += float(diff[ok].sum())
            floor += float(q[ok] @ (weights[ok] @ _HALVES_W))
            redo = ~ok
            if not redo.any():
                break
            created += 2 * int(redo.sum())
            if created > _MAX_PANELS:
                raise ConvergenceError(
                    f"contour quadrature used {_MAX_PANELS} panels without "
                    f"reaching abs_tol={abs_tol:g} (n={n}, sigma*x={s:g})"
                )
            lo = np.stack([lo, lo + half], axis=1)[redo].ravel()
            half = np.repeat(q[redo], 2)
            coarse = parts[redo].ravel()

    est = (diff_sum + _EPS * floor + math.exp(-_TAIL_EXPONENT) / R**n) / math.pi
    if not est <= abs_tol:
        raise ConvergenceError(
            f"contour quadrature estimate {est:.3e} above abs_tol={abs_tol:g} "
            f"(n={n}, sigma*x={s:g})"
        )
    return EvalResult(value=float(total / math.pi), error_estimate=float(est), method="quadrature")
