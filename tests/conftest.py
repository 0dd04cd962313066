"""Shared mpmath oracle for the canonical solution v of u^(n) = x u."""

import math
from functools import lru_cache

import mpmath as mp
import pytest


@lru_cache(maxsize=None)
def _initial_coefficients(n, dps):
    """a_k = v^(k)(0)/k! for k < n, then a_n = 0, at dps digits."""
    sigma = 1 if n % 4 == 2 else -1
    m = n + 1
    with mp.workdps(dps):
        out = []
        for k in range(n):
            p = mp.mpf(n - k) / m
            amp = mp.power(m, -p) / mp.gamma(p) / mp.factorial(k)
            ang = (k + 1) * mp.pi / (2 * m) + k * mp.pi / 2
            out.append(sigma**k * amp * mp.cos(ang) / mp.sin((k + 1) * mp.pi / m))
        return tuple(out) + (mp.mpf(0),)


def _taylor_sum(n, x, dps):
    """Sum and largest |term| of the Taylor series at x, at dps digits.

    Terms follow t_{j+n} = t_{j-1} x^(n+1) / ((j+1)...(j+n)); summing stops
    once every step shrinks its chain and a full period of terms lies
    below 1e-40.
    """
    with mp.workdps(dps):
        X = mp.mpf(x)
        terms = [a * X**k for k, a in enumerate(_initial_coefficients(n, dps))]
        xm = X ** (n + 1)
        small = mp.mpf(10) ** -40
        j = 0
        while True:
            j += 1
            denom = math.prod(range(j + 1, j + n + 1))
            terms.append(terms[j - 1] * xm / denom)
            if denom > abs(xm) and all(abs(t) < small for t in terms[-n - 1 :]):
                return mp.fsum(terms), max(abs(t) for t in terms)


@lru_cache(maxsize=None)
def _oracle_value(n, x):
    """v(x) at 60 digits plus the log10 of the largest Taylor term, so the
    series' cancellation never reaches the digits that are kept."""
    _, top = _taylor_sum(n, x, 15)
    return _taylor_sum(n, x, 60 + max(0, int(mp.log10(top)) + 1))[0]


def oracle_error(n, x, value):
    """|value - v(x)| for the canonical solution of u^(n) = x u, without
    first rounding the reference to binary64."""
    with mp.workdps(40):
        return float(abs(mp.mpf(value) - _oracle_value(n, x)))


@pytest.fixture(scope="session")
def oracle():
    return oracle_error


@pytest.fixture(scope="session")
def initial_oracle():
    """v^(k)(0), k < n, of the canonical solution, at 40 digits."""

    def values(n):
        with mp.workdps(40):
            coeffs = _initial_coefficients(n, 40)
            return tuple(coeffs[k] * mp.factorial(k) for k in range(n))

    return values
