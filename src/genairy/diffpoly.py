"""Differential polynomials in y and its derivatives.

The chain starts at f_1 = y and climbs with the lift

    f_{k+1} = (d/dx + y) f_k,

where d/dx acts formally: y^{(i)} goes to y^{(i+1)}.  Substituting the
logarithmic derivative y = u'/u collapses f_k to u^{(k)}/u, which is what
``verify_cole_hopf`` checks numerically on jets.

A monomial is a tuple of exponents ``(e_0, e_1, ...)`` meaning
``y^e_0 * (y')^e_1 * ...`` with trailing zeros stripped.  Coefficients
stay exact Python ints throughout; only ``evaluate`` touches floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .common import DomainError, PoleError

__all__ = [
    "DiffPolynomial",
    "Jet",
    "f_one",
    "apply_lift",
    "f_n",
    "evaluate",
    "render",
    "to_json_terms",
    "monomial_weight",
    "log_derivative_jet",
    "exp_jet",
    "verify_cole_hopf",
]

Monomial = tuple[int, ...]


def _normalize(exps: Iterable[int]) -> Monomial:
    out = list(exps)
    while out and out[-1] == 0:
        out.pop()
    if any(e < 0 for e in out):
        raise DomainError("monomial exponents must be non-negative")
    return tuple(out)


class DiffPolynomial:
    """Integer-coefficient polynomial in y, y', y'', ...

    ``terms`` maps a normalized exponent tuple to its coefficient.
    Instances are immutable: all operations return new objects, and the
    graded term order is computed once, on first use, and kept.
    """

    __slots__ = ("terms", "_width", "_order")

    def __init__(self, terms: Mapping[Monomial, int]):
        clean: dict[Monomial, int] = {}
        for exps, coeff in terms.items():
            if coeff == 0:
                continue
            clean[_normalize(exps)] = int(coeff)
        self.terms = clean
        self._width = max(map(len, clean), default=0)
        self._order = None

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"DiffPolynomial({render(self)!r})"

    def max_derivative_index(self) -> int:
        """Highest i such that y^{(i)} appears (0 for a plain power of y)."""
        return self._width - 1 if self.terms else 0

    def sorted_terms(self) -> tuple[tuple[Monomial, int], ...]:
        """Terms in graded order: total degree ascending, then earlier
        factors (higher powers of low derivatives) first."""
        if self._order is None:
            width = self._width

            def key(item):
                exps, _ = item
                padded = tuple(-e for e in exps) + (0,) * (width - len(exps))
                return (sum(exps), padded)

            self._order = tuple(sorted(self.terms.items(), key=key))
        return self._order


@dataclass(frozen=True)
class Jet:
    """Point value and successive derivatives of one function at one x.

    ``values[k]`` is the k-th derivative at ``x0``.
    """

    values: tuple[float, ...]
    x0: float = 0.0

    def __len__(self) -> int:
        return len(self.values)


def _jet_values(jet) -> tuple[float, ...]:
    """The entries of a :class:`Jet` or of any sequence of floats."""
    return jet.values if isinstance(jet, Jet) else tuple(float(v) for v in jet)


def monomial_weight(exps: Sequence[int]) -> int:
    """Isobaric weight: y^{(i)} counts as i + 1."""
    return sum(e * (i + 1) for i, e in enumerate(exps))


def f_one() -> DiffPolynomial:
    """The start of the chain, f_1 = y."""
    return DiffPolynomial({(1,): 1})


def apply_lift(p: DiffPolynomial) -> DiffPolynomial:
    """Apply (d/dx + y) to p."""
    out: dict[Monomial, int] = {}

    def add(exps: Monomial, coeff: int):
        exps = _normalize(exps)
        out[exps] = out.get(exps, 0) + coeff
        if out[exps] == 0:
            del out[exps]

    for exps, coeff in p.terms.items():
        # product rule: differentiate one factor at a time
        for i, e in enumerate(exps):
            if e == 0:
                continue
            shifted = list(exps) + [0] * (i + 2 - len(exps))
            shifted[i] -= 1
            shifted[i + 1] += 1
            add(tuple(shifted), coeff * e)
        # the multiplication-by-y half of the lift
        bumped = (exps[0] + 1,) + exps[1:] if exps else (1,)
        add(bumped, coeff)
    return DiffPolynomial(out)


@lru_cache(maxsize=64, typed=True)
def f_n(n: int) -> DiffPolynomial:
    """n-th polynomial of the chain; f_n(u'/u, ...) equals u^{(n)}/u.

    Cached: callers share the result and must not mutate it.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"chain index must be a positive integer, got {n!r}")
    p = f_one()
    for _ in range(n - 1):
        p = apply_lift(p)
    return p


def evaluate(p: DiffPolynomial, jet) -> float:
    """Evaluate p on a jet of y: jet[k] supplies y^{(k)}.

    ``jet`` may be a :class:`Jet` or any sequence of floats.  The jet must
    be long enough for the highest derivative appearing in p.
    """
    values = _jet_values(jet)
    need = p.max_derivative_index() + 1
    if p.terms and len(values) < need:
        raise DomainError(
            f"jet of length {len(values)} too short, polynomial needs {need} entries"
        )
    total = 0.0
    for exps, coeff in p.sorted_terms():
        term = float(coeff)
        for i, e in enumerate(exps):
            if e:
                term *= values[i] ** e
        total += term
    return total


_PRIMES = ("", "'", "''", "'''")


def _var_name(i: int) -> str:
    if i < len(_PRIMES):
        return "y" + _PRIMES[i]
    return f"y^{{({i})}}"


def render(p: DiffPolynomial) -> str:
    """Plain-text form, graded term order, e.g. "y'' + 3*y*y' + y^3"."""
    if not p.terms:
        return "0"
    parts = []
    for exps, coeff in p.sorted_terms():
        factors = []
        for i, e in enumerate(exps):
            if e == 0:
                continue
            factors.append(_var_name(i) + (f"^{e}" if e > 1 else ""))
        body = "*".join(factors) if factors else "1"
        parts.append(body if coeff == 1 else f"{coeff}*{body}")
    return " + ".join(parts)


def to_json_terms(p: DiffPolynomial) -> list[dict]:
    """JSON-ready term list in the same order as :func:`render`."""
    return [
        {"exponents": list(exps), "coeff": coeff}
        for exps, coeff in p.sorted_terms()
    ]


def log_derivative_jet(u_jet) -> tuple[float, ...]:
    """Jet of y = u'/u from a jet of u at the same point.

    Input of length m + 1 (u through u^{(m)}) yields length m
    (y through y^{(m-1)}), via the Taylor-coefficient form of u' = y*u.

    Raises
    ------
    PoleError
        If u(x0) = 0, where y has a pole.
    """
    values = _jet_values(u_jet)
    if len(values) < 2:
        raise DomainError("need at least u and u' to form u'/u")
    if values[0] == 0.0:
        raise PoleError("u vanishes at the expansion point, u'/u has a pole")
    # Taylor coefficients U_j = u^{(j)}/j!; solve (j+1) U_{j+1} = sum Y_i U_{j-i}
    m = len(values) - 1
    ucoef = [values[j] / math.factorial(j) for j in range(m + 1)]
    ycoef = [0.0] * m
    for j in range(m):
        s = (j + 1) * ucoef[j + 1]
        for i in range(j):
            s -= ycoef[i] * ucoef[j - i]
        ycoef[j] = s / ucoef[0]
    return tuple(ycoef[j] * math.factorial(j) for j in range(m))


def exp_jet(p_jet) -> tuple[float, ...]:
    """Jet of u = exp(p) from a jet of p at the same point.

    Same Taylor-coefficient convolution as :func:`log_derivative_jet`,
    run forward: u' = p' u.
    """
    pvals = _jet_values(p_jet)
    if not pvals:
        raise DomainError("need at least p(x0) to form exp(p)")
    m = len(pvals) - 1
    pcoef = [pvals[j] / math.factorial(j) for j in range(m + 1)]
    ucoef = [math.exp(pcoef[0])] + [0.0] * m
    for j in range(m):
        s = 0.0
        for i in range(j + 1):
            s += (i + 1) * pcoef[i + 1] * ucoef[j - i]
        ucoef[j + 1] = s / (j + 1)
    return tuple(ucoef[j] * math.factorial(j) for j in range(m + 1))


def verify_cole_hopf(n: int, u_jet) -> float:
    """Absolute residual |f_n(jet of u'/u) - u^{(n)}/u| for one u-jet.

    The u-jet must contain at least n + 1 entries.
    """
    values = _jet_values(u_jet)
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"chain index must be a positive integer, got {n!r}")
    if len(values) < n + 1:
        raise DomainError(f"u-jet of length {len(values)} too short for f_{n}")
    yjet = log_derivative_jet(values[: n + 1])
    lhs = evaluate(f_n(n), yjet)
    rhs = values[n] / values[0]
    return abs(lhs - rhs)
