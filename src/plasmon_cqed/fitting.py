"""Least squares for the mode fits: MINPACK's lmdif (Levenberg-Marquardt with
a forward-difference Jacobian; More, LNM 630, 1978) through
scipy.optimize.leastsq.

Positive quantities are handled by the callers through log parametrization,
so the fits never need bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitFailureError

FTOL = 1e-12
XTOL = 1e-12
GTOL = 1e-10
SUCCESS_STATUSES = (1, 2, 3, 4)  # one of the three tolerances was met


@dataclass
class FitResult:
    params: np.ndarray
    cost: float
    n_iter: int  # residual evaluations


def levenberg_marquardt(residual, x0) -> FitResult:
    """Minimize 0.5*||residual(x)||^2 starting from x0.

    Any MINPACK status other than a met tolerance (the evaluation cap, or
    tolerances too small to make further progress), and a non-finite cost,
    which MINPACK reports as status 4, raise FitFailureError carrying the
    best iterate and its cost.
    """
    from scipy.optimize import leastsq

    params, _, info, message, status = leastsq(
        residual, np.asarray(x0, dtype=float), full_output=True,
        ftol=FTOL, xtol=XTOL, gtol=GTOL)
    cost = 0.5 * float(info["fvec"] @ info["fvec"])
    if status not in SUCCESS_STATUSES or not np.isfinite(cost):
        raise FitFailureError(
            f"Levenberg-Marquardt stopped with MINPACK status {status}, "
            f"cost {cost}: {' '.join(message.split())}",
            best_params=params,
            best_cost=cost,
        )
    return FitResult(params=params, cost=cost, n_iter=int(info["nfev"]))
