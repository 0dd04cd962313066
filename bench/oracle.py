"""Reference values for the canonical solution v of u^(n) = x u.

v is the solution genairy calls canonical: the cosine integral with
sigma = +1 for n = 2 mod 4 and sigma = -1 for n = 0 mod 4.  Its Taylor
terms t_j = a_j x^j follow from closed-form initial values (taken in
mpmath, independently of the library's Lanczos gamma) and the recurrence

    t_{j+n} = t_{j-1} * x^(n+1) / ((j+1)(j+2)...(j+n)),

which this module runs in exact integer fixed point: x is a binary64
number M / 2^k, so the only rounding is one half unit of 2^-S per step.
S is chosen so that the sum is good to 30 digits below both 1 and the
value itself, even though rounding errors grow with the largest term,
and terms are summed until they fall below that accuracy.  Every point is then summed again with twice the bits; the
two runs must agree to 1e-20 relative or the oracle raises.  For n = 2
the value must also agree with scipy's ``Ai`` to 1e-12 absolute.

A value is returned as a double-double pair (hi, lo), so the error of a
binary64 answer is ``abs((value - hi) - lo)`` without first rounding the
reference to binary64.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import mpmath as mp

__all__ = ["OracleError", "Oracle", "error_of"]

_EXTRA_DIGITS = 30
_SMALL = 1e-5  # values below this get extra digits, so their relative error stays small
_AGREE_REL = 1e-20
_SCIPY_ABS = 1e-12
_LOG2_10 = math.log2(10.0)


class OracleError(RuntimeError):
    """The reference disagrees with itself or with scipy."""


def _initial_coefficients(n: int, prec: int) -> list:
    """a_k = v^(k)(0) / k! for k < n, in mpmath at ``prec`` bits."""
    sigma = 1 if n % 4 == 2 else -1
    m = n + 1
    with mp.workprec(prec):
        out = []
        for k in range(n):
            p = mp.mpf(n - k) / m
            amp = mp.power(m, -p) / mp.gamma(p)
            ang = (k + 1) * mp.pi / (2 * m) + k * mp.pi / 2
            out.append(sigma**k * amp * mp.cos(ang) / mp.sin((k + 1) * mp.pi / m) / mp.factorial(k))
        return out


class _Series:
    """Per-order data shared by every point: log10 |a_j|, the recurrence
    denominators and the initial coefficients as scaled integers."""

    def __init__(self, n: int):
        self.n = n
        self.log_a = [
            math.log10(abs(float(c))) if c else -math.inf for c in _initial_coefficients(n, 64)
        ] + [-math.inf]
        self.denoms: list[int] = []  # (i+1)...(i+n), the step into index i + n
        self.log_denoms: list[float] = []
        self._scaled: dict[int, list[int]] = {}

    def scaled(self, prec: int) -> list[int]:
        """round(a_k * 2^prec) for k < n; prec is a multiple of 64."""
        if prec not in self._scaled:
            with mp.workprec(prec + 64):
                self._scaled[prec] = [
                    int(mp.nint(mp.ldexp(c, prec))) for c in _initial_coefficients(self.n, prec + 64)
                ]
        return self._scaled[prec]

    def denom(self, i: int) -> int:
        while len(self.denoms) <= i:
            k = len(self.denoms)
            d = 1
            for l in range(1, self.n + 1):
                d *= k + l
            self.denoms.append(d)
            self.log_denoms.append(math.log10(d))
        return self.denoms[i]

    def plan(self, x: float, digits: float) -> tuple[float, int]:
        """log10 of the largest |t_j|, and the last index worth summing for
        an absolute error below 10^-digits."""
        n = self.n
        la = self.log_a
        lx = math.log10(abs(x)) if x != 0.0 else -math.inf
        top = -math.inf
        below = 0
        j = 0
        while True:
            if j > n:
                self.denom(j - n)
            if j >= len(la):
                la.append(la[j - n - 1] - self.log_denoms[j - n])
            t = la[j] + j * lx if j else la[0]
            top = max(top, t)
            # once the step into index j shrinks its chain, every later step
            # shrinks too, so n + 1 such small terms in a row bound the rest
            decaying = j > n and self.log_denoms[j - n] > (n + 1) * lx
            below = below + 1 if decaying and t < -digits else 0
            if below > n + 1:
                return top, j
            j += 1


def _sum(series: _Series, x: float, bits: int, last: int) -> tuple[int, int]:
    """Integers U, V with u(x) ~ U / 2^bits and x u'(x) ~ V / 2^bits."""
    n = series.n
    num, den = x.as_integer_ratio()  # den is a power of two
    prec = 64 * math.ceil((bits + 128) / 64)
    terms = []
    for k, c in enumerate(series.scaled(prec)):
        d = den**k << (prec - bits)
        terms.append((2 * c * num**k + d) // (2 * d))  # round(a_k x^k 2^bits)
    terms.append(0)
    step_num = num ** (n + 1)
    step_den = den ** (n + 1)
    total = sum(terms)
    weighted = sum(k * t for k, t in enumerate(terms))
    for j in range(1, last - n + 1):
        prev = terms[j - 1]
        if prev == 0:
            t = 0
        else:
            d = step_den * series.denom(j)
            t = (2 * prev * step_num + d) // (2 * d)  # rounded to nearest
        terms.append(t)
        total += t
        weighted += (j + n) * t
    return total, weighted


def _as_mpf(v: int, bits: int):
    return mp.ldexp(mp.mpf(v), -bits)


class Oracle:
    """Reference u(x) and u'(x)/u(x), cached per point and optionally on disk."""

    def __init__(self, cache_path: Path | None = None):
        self._series: dict[int, _Series] = {}
        self._path = cache_path
        self._table: dict[str, list[float]] = {}
        if cache_path is not None and cache_path.exists():
            self._table = json.loads(cache_path.read_text())
        self._dirty = False

    def point(self, n: int, x: float) -> list[float]:
        """[u_hi, u_lo, y_hi, y_lo] with y = u'/u at x."""
        key = f"{n}:{x!r}"
        hit = self._table.get(key)
        if hit is None:
            hit = self._compute(n, float(x))
            self._table[key] = hit
            self._dirty = True
        return hit

    def u(self, n: int, x: float) -> tuple[float, float]:
        hi, lo, _, _ = self.point(n, x)
        return hi, lo

    def y(self, n: int, x: float) -> tuple[float, float]:
        _, _, hi, lo = self.point(n, x)
        return hi, lo

    def _run(self, series: _Series, x: float, digits: float):
        top, last = series.plan(x, digits + 3)
        bits = math.ceil((max(top, 0.0) + digits) * _LOG2_10) + 16
        return bits, last, _sum(series, x, bits, last)

    def _compute(self, n: int, x: float) -> list[float]:
        series = self._series.get(n)
        if series is None:
            series = self._series[n] = _Series(n)
        digits = float(_EXTRA_DIGITS)
        bits, last, (U, V) = self._run(series, x, digits)
        # a value (or x u') far below 1 needs more digits to keep 30 of its own
        small = min(abs(U), abs(V) if x != 0.0 else abs(U))
        scale = small / 2.0**bits if small else 0.0
        if scale < _SMALL:
            digits += -math.log10(scale) if scale > 0.0 else 300.0
            bits, last, (U, V) = self._run(series, x, digits)
        bits2, _, (U2, V2) = self._run(series, x, 2 * digits)
        with mp.workprec(2 * bits2):
            pairs = (
                ("u", _as_mpf(U, bits), _as_mpf(U2, bits2)),
                ("x u'", _as_mpf(V, bits), _as_mpf(V2, bits2)),
            )
            for what, a, b in pairs:
                if abs(a - b) > _AGREE_REL * abs(b):
                    raise OracleError(
                        f"{what} at n={n}, x={x!r} differs between {bits} and {bits2} bits"
                    )
            u = pairs[0][2]
            if x != 0.0:
                y = pairs[1][2] / x / u
            else:
                # u'(0) = a_1: only the linear term survives
                prec = 64 * math.ceil(bits2 / 64)
                y = _as_mpf(series.scaled(prec)[1], prec) / u
            u_hi = float(u)
            y_hi = float(y)
            out = [u_hi, float(u - u_hi), y_hi, float(y - y_hi)]
        if n == 2:
            from scipy.special import airy

            ai = float(airy(x)[0])
            if not abs(ai - u_hi) <= _SCIPY_ABS:
                raise OracleError(f"scipy Ai({x!r}) = {ai!r} but the recurrence gives {u_hi!r}")
        return out

    def save(self) -> None:
        if self._path is None or not self._dirty:
            return
        self._path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._path.with_name(f"{self._path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self._table))
        os.replace(tmp, self._path)
        self._dirty = False


def error_of(value: float, ref: tuple[float, float]) -> float:
    """|value - reference| without rounding the reference to binary64."""
    return abs((value - ref[0]) - ref[1])
