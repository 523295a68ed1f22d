"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class. The CLI maps these onto process exit codes, so the hierarchy is
part of the public contract: validation problems derive from
``ValueError``, everything else from :class:`RingpairError`.

The ``require_*`` helpers hold the one rule for scalar parameters:
finite, and positive or non-negative where the physics says so.
"""

from __future__ import annotations

import cmath
import math

_INF = math.inf


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


class RingpairError(Exception):
    """Base class for all domain errors raised by this package."""


class NoConvergence(RingpairError):
    """A numeric route found no valid result: the group index is not
    positive over a comb's search band, or ring-2 tuning misses energy
    conservation by more than its residual tolerance."""


class EmptyBand(RingpairError):
    """A frequency band contains no resonances of the requested ring."""


class MissingResonance(RingpairError):
    """A comb line required by the calculation is absent from the band."""


class QuadratureFailure(RingpairError):
    """Adaptive integration could not reach the requested tolerance."""


class NonPhysical(RingpairError):
    """Inputs or intermediate results left the physically meaningful domain."""


class OutOfRange(RingpairError):
    """A solve target lies outside the reachable range of the model."""


class Infeasible(RingpairError):
    """No device in the allowed parameter region satisfies the design goal."""


class ValidityExceeded(RingpairError):
    """A perturbative validity metric exceeded its configured ceiling."""
