"""Adaptive panel integration for smooth complex-valued integrands.

The engine is Gauss-Kronrod in style: every panel is integrated with an
embedded pair of Gauss-Legendre rules (7 and 15 points), the difference
between the two estimates serves as the local error, and panels whose
error exceeds their share of the budget are bisected. Nodes and weights
come from ``numpy.polynomial.legendre.leggauss`` at import time, so no
tabulated constants enter the source.

Two properties matter for the callers in this package:

* the integrand is always evaluated on a flat ndarray of abscissae
  (one call per refinement round, covering every active panel), which
  lets vectorized array kernels do the heavy lifting;
* the refinement loop is deterministic, so repeated runs integrate the
  same panels in the same order and produce bit-identical results.

The error model is heuristic in the usual way: for analytic integrands
the 15-point value is far more accurate than the 7-point one, so the
difference overestimates the true error of the returned estimate.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NonPhysical, QuadratureFailure, require_finite, require_positive

_X_LO, _W_LO = np.polynomial.legendre.leggauss(7)
_X_HI, _W_HI = np.polynomial.legendre.leggauss(15)

MAX_PANELS_DEFAULT = 2**16


def integrate_adaptive(
    func: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    abs_tol: float,
    max_panels: int = MAX_PANELS_DEFAULT,
) -> tuple[complex, float]:
    """Integrate ``func`` over [lo, hi] to an absolute tolerance.

    Parameters
    ----------
    func : callable
        Maps an ndarray of abscissae to an ndarray of (possibly
        complex) integrand values of the same shape.
    lo, hi : float
        Finite integration limits, lo < hi.
    abs_tol : float
        Absolute tolerance on the integral.
    max_panels : int
        Budget on the total number of panels.

    Returns
    -------
    (value, err) : (complex, float)
        Integral estimate and the accumulated local error estimate.

    Raises
    ------
    NonPhysical
        On the first refinement round in which the integrand returns a
        non-finite value; bisecting cannot cure it.
    QuadratureFailure
        If the budget is exhausted before every panel meets its share
        of the tolerance.
    """
    require_finite("lo", lo)
    require_finite("hi", hi)
    if not hi > lo:
        raise ValueError(f"integration limits must satisfy lo < hi, got [{lo}, {hi}]")
    require_positive("abs_tol", abs_tol)

    total_span = hi - lo
    done_value: complex = 0.0 + 0.0j
    done_err = 0.0
    active = np.array([[lo, hi]], dtype=float)
    n_panels = 1

    while active.size:
        a = active[:, 0][:, None]
        b = active[:, 1][:, None]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)

        nodes = np.concatenate(
            [(mid + half * _X_LO).ravel(), (mid + half * _X_HI).ravel()]
        )
        values = np.asarray(func(nodes))
        if not np.isfinite(values).all():
            raise NonPhysical(f"integrand is not finite on [{lo}, {hi}]")
        n_lo = active.shape[0] * _X_LO.size
        f_lo = values[:n_lo].reshape(active.shape[0], _X_LO.size)
        f_hi = values[n_lo:].reshape(active.shape[0], _X_HI.size)

        est_lo = (f_lo * _W_LO).sum(axis=1) * half[:, 0]
        est_hi = (f_hi * _W_HI).sum(axis=1) * half[:, 0]
        err = np.abs(est_hi - est_lo)

        # A panel may keep the share of the budget proportional to its
        # width; everything else gets bisected in the next round.
        ok = err <= abs_tol * (active[:, 1] - active[:, 0]) / total_span
        done_value += est_hi[ok].sum()
        done_err += err[ok].sum()

        bad = active[~ok]
        if bad.size == 0:
            break
        n_panels += bad.shape[0]
        if n_panels > max_panels:
            raise QuadratureFailure(
                f"exceeded {max_panels} panels integrating over [{lo}, {hi}] "
                f"at abs_tol={abs_tol}"
            )
        mids = 0.5 * (bad[:, 0] + bad[:, 1])
        active = np.concatenate(
            [np.column_stack([bad[:, 0], mids]), np.column_stack([mids, bad[:, 1]])]
        )
        # Keep panel order deterministic and cache friendly.
        active = active[np.argsort(active[:, 0], kind="stable")]

    return complex(done_value), float(done_err)
