"""Gamma for real arguments: ``math.gamma`` (within 5 ulps on (0, 1))
with this package's errors for poles and non-finite arguments.  The
series amplifies any error in its closed-form initial values by its
cancellation, so they need gamma this accurate.
"""

from __future__ import annotations

import math

from .common import DomainError, PoleError

__all__ = ["gamma"]


def gamma(p: float) -> float:
    """Gamma(p) for real p, poles at non-positive integers excluded.

    Raises
    ------
    PoleError
        If p is zero or a negative integer.
    DomainError
        If p is not finite.
    """
    p = float(p)
    if not math.isfinite(p):
        raise DomainError(f"gamma argument must be finite, got {p!r}")
    if p <= 0.0 and p == math.floor(p):
        raise PoleError(f"gamma has a pole at {p!r}")
    return math.gamma(p)
