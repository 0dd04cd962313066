"""Seeded request streams for the benchmark's workloads.

Each workload is an endless stream of requests drawn from
``random.Random(f"{workload}/{seed}")``, so one seed always yields the
same requests in the same order and a run simply takes as long a prefix
as it has time for.  Every x is drawn uniformly; the stream is
stratified by order and x range (see ``stream``).  This module builds inputs only; it never imports
genairy, so the benchmark can make inputs before the library is loaded.

quad-table
    One ``genairy table --method quad --tol 1e-10`` of 9 points on a
    random sub-interval of [-12, 12], n in {2, 4, 6, 8}.  Quadrature does
    the work; about half the points take the pure-tail branch
    (sigma * x >= 1) where the head+lump route is known to miss 1e-10.
auto-mixed
    One ``genairy eval --n N --x X`` with the default auto policy and
    tol 1e-8, N in {2, 4, 6, 8}, X uniform on [-25, 25].  Series wins
    near the origin, quadrature on the moderate range and the
    asymptotic forms beyond |x| = 20, which is known to miss tol.
riccati-chain
    One point of the Riccati chain, n in {2, 4, ..., 12}, x uniform on
    [-6, 6]: the u-jet by series, its logarithmic derivative, f_n on it
    against x, a Cole-Hopf check on exp of a random polynomial jet, and
    ``riccati_solution``.  Series and diffpoly do all the work.
"""

from __future__ import annotations

import math
import random

__all__ = [
    "WORKLOADS",
    "TOL",
    "CLOSURE_TOL",
    "COLE_HOPF_TOL",
    "stream",
    "warmup",
    "argv",
    "grid",
]

WORKLOADS = ("quad-table", "auto-mixed", "riccati-chain")

TOL = {"quad-table": 1e-10, "auto-mixed": 1e-8}
# thresholds of `genairy verify`: riccati_closure uses its default --tol
CLOSURE_TOL = 1e-6
COLE_HOPF_TOL = 1e-10

TABLE_STEPS = 8
_ORDERS = {
    "quad-table": (2, 4, 6, 8),
    "auto-mixed": (2, 4, 6, 8),
    "riccati-chain": (2, 4, 6, 8, 10, 12),
}
_STRATA = {"quad-table": 4, "auto-mixed": 8, "riccati-chain": 4}


def _polynomial_jet(coeffs: list[float], x0: float, n: int) -> tuple[float, ...]:
    """Jet p, p', ..., p^(n) at x0 of p(x) = sum_d coeffs[d] x^d."""
    deg = len(coeffs)
    return tuple(
        sum(
            coeffs[d] * math.factorial(d) / math.factorial(d - k) * x0 ** (d - k)
            for d in range(k, deg)
        )
        for k in range(n + 1)
    )


def _request(workload: str, rng: random.Random, n: int, u: float) -> dict:
    """One request of order n; u in [0, 1) places it along the x range."""
    if workload == "quad-table":
        width = rng.uniform(1.0, 6.0)
        x_min = -12.0 + u * (24.0 - width)
        return {"n": n, "x_min": x_min, "x_max": x_min + width}
    if workload == "auto-mixed":
        return {"n": n, "x": -25.0 + 50.0 * u}
    coeffs = [rng.uniform(-1.0, 1.0) for _ in range(6)]
    x0 = rng.uniform(-2.0, 2.0)
    return {"n": n, "x": -6.0 + 12.0 * u, "p_jet": _polynomial_jet(coeffs, x0, n)}


def stream(workload: str, seed: int):
    """Endless, reproducible request stream of one workload.

    Requests come in shuffled blocks holding every order once per x
    stratum, so the mix of orders and x ranges, and with it the cost per
    request, varies little between seeds and between run lengths.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    strata = _STRATA[workload]
    while True:
        block = [
            _request(workload, rng, n, (k + rng.random()) / strata)
            for n in _ORDERS[workload]
            for k in range(strata)
        ]
        rng.shuffle(block)
        yield from block


def warmup(workload: str, seed: int) -> list[dict]:
    """One request per order, from a stream the timed run never sees."""
    rng = random.Random(f"{workload}/{seed}/warmup")
    return [_request(workload, rng, n, rng.random()) for n in _ORDERS[workload]]


def argv(workload: str, req: dict) -> list[str]:
    """Command line for the CLI workloads."""
    if workload == "quad-table":
        return [
            "table", "--n", str(req["n"]),
            "--x-min", repr(req["x_min"]), "--x-max", repr(req["x_max"]),
            "--steps", str(TABLE_STEPS), "--method", "quad", "--tol", repr(TOL[workload]),
        ]
    if workload == "auto-mixed":
        return ["eval", "--n", str(req["n"]), "--x", repr(req["x"])]
    raise ValueError(f"{workload} is not a CLI workload")


def grid(req: dict) -> list[float]:
    """The x values of a quad-table request, as ``genairy table`` forms them."""
    a, b, s = req["x_min"], req["x_max"], TABLE_STEPS
    return [(a * (s - i) + b * i) / s for i in range(s + 1)]

