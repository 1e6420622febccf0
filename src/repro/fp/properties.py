"""Floating-point representation queries: exponents, ulps, roundoff.

The paper characterises summand sets by the *binary exponents* of their
values (dynamic range ``dr = exp(max|x_i|) - exp(min|x_i|)``), so exponent
extraction is a first-class operation here, with a vectorised form built on
``numpy.frexp``.

Conventions
-----------
``exponent(x)`` is the integer ``e`` such that ``|x| in [2**e, 2**(e+1))``,
i.e. ``math.frexp``'s exponent minus one.  ``exponent(0)`` raises — zero has
no normalised exponent, and the paper's `dr` is only defined over the nonzero
magnitudes of a set.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "UNIT_ROUNDOFF",
    "MANTISSA_BITS",
    "unit_roundoff",
    "unit_roundoff_of",
    "exponent",
    "exponents",
    "ulp",
    "next_up",
    "next_down",
    "is_power_of_two",
]

#: Unit roundoff for binary64 round-to-nearest: u = 2**-53.
UNIT_ROUNDOFF: float = 2.0**-53

#: Significand width of binary64 including the implicit leading bit.
MANTISSA_BITS: int = 53


def unit_roundoff(dtype=np.float64) -> float:
    """Unit roundoff ``u`` of a floating dtype (round-to-nearest).

    The precision axis of the selector: binary64 gives ``2**-53``, binary32
    ``2**-24``, binary16 ``2**-11``.  Non-float dtypes (integers fed to a
    reduction are coerced to binary64 downstream) and extended-precision
    dtypes report the binary64 roundoff — execution never happens below
    binary64, so ``u`` is floored there to keep error bounds valid for what
    actually runs.
    """
    dt = np.dtype(dtype)
    if dt.kind != "f":
        return UNIT_ROUNDOFF
    u = float(np.finfo(dt).eps) / 2.0
    return max(u, UNIT_ROUNDOFF)


def unit_roundoff_of(dtypes) -> float:
    """Unit roundoff of one reduction's input from the set of its chunk
    dtypes (``None`` marks a non-array chunk): the promoted dtype's ``u``,
    binary64's for non-array or empty input."""
    if None in dtypes or not dtypes:
        return UNIT_ROUNDOFF
    if len(dtypes) == 1:
        return _dtype_roundoff(next(iter(dtypes)))
    return _dtype_roundoff(np.result_type(*dtypes))


@lru_cache(maxsize=64)
def _dtype_roundoff(dtype) -> float:
    return unit_roundoff(dtype)


def exponent(x: float) -> int:
    """Binary exponent of ``x``: the ``e`` with ``2**e <= |x| < 2**(e+1)``.

    Subnormals get their true (unnormalised-magnitude) exponent, e.g.
    ``exponent(5e-324) == -1074``.  Raises ``ValueError`` for zero, NaN and
    infinities, which have no finite exponent.
    """
    if x == 0.0 or math.isnan(x) or math.isinf(x):  # repro: allow[FP001] -- zero/non-finite guard
        raise ValueError(f"exponent undefined for {x!r}")
    _, e = math.frexp(x)
    return e - 1


def exponents(x: np.ndarray) -> np.ndarray:
    """Vectorised :func:`exponent` over a float64 array (zeros disallowed)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("exponents undefined for non-finite values")
    if np.any(x == 0.0):  # repro: allow[FP001] -- exact-zero guard
        raise ValueError("exponents undefined for zero values")
    _, e = np.frexp(x)
    return e.astype(np.int64) - 1


def ulp(x: float) -> float:
    """Unit in the last place of ``x`` (the gap to the next representable
    value away from zero at ``x``'s binade)."""
    return math.ulp(x)


def next_up(x: float) -> float:
    """Smallest double strictly greater than ``x``."""
    return math.nextafter(x, math.inf)


def next_down(x: float) -> float:
    """Largest double strictly smaller than ``x``."""
    return math.nextafter(x, -math.inf)


def is_power_of_two(x: float) -> bool:
    """True when ``|x|`` is exactly a power of two (mantissa = 1.0)."""
    if x == 0.0 or not math.isfinite(x):  # repro: allow[FP001] -- zero/non-finite guard
        return False
    m, _ = math.frexp(abs(x))
    return m == 0.5  # repro: allow[FP001] -- a power of two has mantissa exactly 0.5
