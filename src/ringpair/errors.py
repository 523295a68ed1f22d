"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class. The CLI maps these onto process exit codes, so the hierarchy is
part of the public contract: validation problems derive from
``ValueError``, everything else from :class:`RingpairError`.

The ``require_*`` helpers hold the one rule for scalar parameters: finite,
and positive or non-negative where the physics says so; a count is whole.
:func:`finite_product` holds the one rule for a product of many
factors, such as J or a pair rate: only the product itself may leave
the float range, never a factor or a partial product on the way.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import Iterable

_INF = math.inf
# Scaled factors and partial products stay inside [2**-256, 2**256], so no
# product or quotient of two of them leaves the normal doubles.
_LOW, _HIGH = 2.0**-256, 2.0**256


def require_positive(name: str, value: float, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is finite and greater than zero."""
    if not 0.0 < value < _INF:
        raise error(f"{name} must be finite and positive, got {value}")


def require_non_negative(name: str, value: float, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is finite and not below zero."""
    if not 0.0 <= value < _INF:
        raise error(f"{name} must be finite and non-negative, got {value}")


def require_finite(name: str, value: complex, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` (real or complex) is finite."""
    if not cmath.isfinite(value):
        raise error(f"{name} must be finite, got {value}")


def require_count(name: str, value: int, lo: int, hi: float = _INF) -> int:
    """``operator.index(value)``, or ``ValueError`` unless it lies in [lo, hi].

    A bool, and what ``operator.index`` refuses (a float, a string, ``None``,
    a one-element array), raise ``ValueError`` too, never ``TypeError``.
    """
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not lo <= n <= hi:
        bounds = f"at least {lo}" if hi == _INF else f"between {lo} and {hi}"
        raise ValueError(f"{name} must be {bounds}, got {n}")
    return n


def _split(x: complex) -> tuple[complex, int]:
    """(m, e) with x = m * 2**e, the larger part of m in [0.5, 1) (or m = 0).

    A float stays a float, so it multiplies as it would unscaled.
    """
    if isinstance(x, complex):
        e = math.frexp(max(abs(x.real), abs(x.imag)))[1]
        return complex(math.ldexp(x.real, -e), math.ldexp(x.imag, -e)), e
    return math.frexp(x)


def common_scale(x: float, y: float) -> tuple[float, float, int]:
    """(a, b, e) with x = a * 2**e, y = b * 2**e and max(|a|, b) in [0.5, 1), for y >= 0.

    The scaling is exact wherever a and b stay normal doubles; a**2 + b**2 is in [0.25, 2].
    """
    e = math.frexp(max(abs(x), y))[1]
    return math.ldexp(x, -e), math.ldexp(y, -e), e


def scaled_product(factors: Iterable[tuple[complex, int]]) -> tuple[complex, int]:
    """The product of ``x**p`` over ``(x, p)`` in ``factors``, in order, as (m, e).

    The product is m * 2**e, with m as :func:`_split` leaves it; a
    negative ``p`` divides by ``x**-p``. A factor or partial product
    outside [2**-256, 2**256] gives up a power of two, so no intermediate
    leaves the float range. ``x**p`` is taken as such where it is a
    normal double: it is not always the scaled power of the mantissa.
    Scaling by a power of two is exact, so wherever every factor and
    intermediate of the plain left-to-right product is a normal double
    (or zero), ``ldexp`` of the result is that product bit for bit; a
    complex product keeps this while the two parts of each factor and
    partial product lie within 2**250 of each other.
    """
    acc, exponent = 1.0, 0
    for x, p in factors:
        n = abs(p)
        if n != 1:
            m, e = math.frexp(x)
            if -1022 <= n * (e - 1) and n * e <= 1023:  # x**n is a normal double
                x = x**n
            else:
                x, exponent = m**n, exponent + (n * e if p > 0 else -n * e)
        if not _LOW <= abs(x) <= _HIGH:
            x, e = _split(x)
            exponent += e if p > 0 else -e
        acc = acc * x if p > 0 else acc / x
        if not _LOW <= abs(acc) <= _HIGH:
            acc, e = _split(acc)
            exponent += e
    acc, e = _split(acc)
    return acc, exponent + e


def finite_product(name: str, factors: Iterable[tuple[complex, int]], shift: int = 0) -> complex:
    """:func:`scaled_product` of ``factors`` times ``2**shift``, as a number.

    Raises :class:`NonPhysical` when the product overflows, is not
    finite, or is not zero but rounds to 0. A subnormal product is
    returned with the digits it has.
    """
    mantissa, exponent = scaled_product(factors)
    exponent += shift
    try:
        if isinstance(mantissa, complex):
            value = complex(math.ldexp(mantissa.real, exponent), math.ldexp(mantissa.imag, exponent))
        else:
            value = math.ldexp(mantissa, exponent)
    except OverflowError:
        raise NonPhysical(f"{name} must be finite, got a magnitude near 2**{exponent}, "
                          "which overflows the float range") from None
    require_finite(name, value, NonPhysical)
    if value == 0.0 and mantissa != 0.0:
        raise NonPhysical(f"{name} underflows to 0")
    return value


class RingpairError(Exception):
    """Base class for all domain errors raised by this package."""


class NoConvergence(RingpairError):
    """A numeric route found no valid result: the group index is not
    positive over a comb's search band or at an FSR's frequency, ring-2
    tuning misses energy conservation by more than its residual tolerance,
    or adaptive integration runs out of panels before it meets its tolerance."""


class EmptyBand(RingpairError):
    """A frequency band contains no resonances of the requested ring."""


class MissingResonance(RingpairError):
    """A comb line required by the calculation is absent from the band."""


class NonPhysical(RingpairError):
    """Inputs or intermediate results left the physically meaningful domain."""


class OutOfRange(RingpairError):
    """A solve target lies outside the reachable range of the model."""


class Infeasible(RingpairError):
    """No device in the allowed parameter region satisfies the design goal."""


class ValidityExceeded(RingpairError):
    """A perturbative validity metric exceeded its configured ceiling."""
