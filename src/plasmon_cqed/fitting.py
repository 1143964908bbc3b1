"""Batched least squares for the mode fits: damped Gauss-Newton
(Levenberg-Marquardt; Marquardt, SIAM J. Appl. Math. 11, 431 (1963)) over a
batch of independent fits with analytic Jacobians.

All fits of a batch have k parameters and P residuals and step in lockstep
as (fits x points) array arithmetic.  Each fit has its own damping and its
own stop test, and every reduction runs along one fit's own points, so a
fit's iterates do not depend on which other fits share its batch.  Each step
solves the fit's k x k damped normal equations
(J^T J + lambda diag J^T J) delta = -J^T r by elimination.

Positive quantities are handled by the callers through log parametrization,
so the fits never need bounds.
"""

from __future__ import annotations

import numpy as np

from .errors import FitFailureError

XTOL = 1e-10  # converged once a step has ||delta|| <= XTOL (1 + ||theta||)
FTOL = 1e-14  # or once a step changes the cost by about rounding alone
MAX_ITERATIONS = 200
DAMPING0 = 1e-3
DAMPING_FACTOR = 10.0


def _damped_step(jac, res, damping):
    """Step delta solving (A + damping diag A) delta = -g, A = J^T J and
    g = J^T r, per fit, and the cost reduction the linear model predicts
    for it, -g.delta - delta.A.delta/2.

    jac is (m, k, P), res (m, P).  Gaussian elimination without pivoting
    suits the symmetric positive definite A; a singular A gives a non-finite
    step, which the caller rejects.
    """
    a = np.einsum("mip,mjp->mij", jac, jac)
    grad = np.einsum("mip,mp->mi", jac, res)
    k = grad.shape[1]
    u = a.copy()
    u[:, range(k), range(k)] *= 1.0 + damping[:, None]
    b = -grad
    for i in range(k - 1):
        f = u[:, i + 1:, i] / u[:, i, i, None]
        u[:, i + 1:] -= f[:, :, None] * u[:, None, i]
        b[:, i + 1:] -= f * b[:, i, None]
    step = np.empty_like(b)
    for i in reversed(range(k)):
        step[:, i] = (b[:, i] - np.einsum("mj,mj->m", u[:, i, i + 1:],
                                          step[:, i + 1:])) / u[:, i, i]
    predicted = -np.einsum("mi,mi->m", grad, step) \
        - 0.5 * np.einsum("mi,mij,mj->m", step, a, step)
    return step, predicted


def least_squares(model, theta0):
    """Minimize 0.5*||r_i(theta_i)||^2 for every fit i of a batch.

    model(theta, rows) returns the residuals r (m, P) and the Jacobian
    dr/dtheta (m, k, P) of the fits `rows` (indices into the batch) at theta
    (m, k).  A trial step is kept if it lowers the fit's cost, and the fit's
    damping then falls by DAMPING_FACTOR; otherwise the damping rises by it.
    A fit stops once a step, kept or not, is below XTOL relative to its
    iterate, or changes the cost, actually and as predicted, by at most FTOL
    relative (the rounding floor, where no step can make progress).

    Returns (theta, cost, errors): the best iterates (F, k), their costs (F,)
    and, per fit, None or the FitFailureError of a fit whose initial cost is
    not finite or that hit MAX_ITERATIONS, carrying its best iterate and cost.
    """
    theta = np.array(theta0, dtype=float)
    batch = np.arange(theta.shape[0])
    res, jac = model(theta, batch)
    cost = 0.5 * np.einsum("mp,mp->m", res, res)
    errors = [None] * batch.size
    for i in np.flatnonzero(~np.isfinite(cost)):
        errors[i] = FitFailureError(f"least-squares cost is {cost[i]} at the start",
                                    best_params=theta[i].copy(), best_cost=cost[i])
    live = np.isfinite(cost)
    rows, x, c, res, jac = batch[live], theta[live], cost[live], res[live], jac[live]
    damping = np.full(rows.size, DAMPING0)
    for _ in range(MAX_ITERATIONS):
        if not rows.size:
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step, predicted = _damped_step(jac, res, damping)
            trial = x + step
            trial_res, trial_jac = model(trial, rows)
            trial_cost = 0.5 * np.einsum("mp,mp->m", trial_res, trial_res)
        done = (np.einsum("mi,mi->m", step, step)
                <= XTOL**2 * (1.0 + np.sqrt(np.einsum("mi,mi->m", x, x)))**2) \
            | ((predicted <= FTOL * c) & (np.abs(c - trial_cost) <= FTOL * c))
        kept = trial_cost < c
        if kept.all():
            x, c, res, jac = trial, trial_cost, trial_res, trial_jac
        else:
            x[kept], c[kept] = trial[kept], trial_cost[kept]
            res[kept], jac[kept] = trial_res[kept], trial_jac[kept]
        damping = np.where(kept, damping / DAMPING_FACTOR,
                           damping * DAMPING_FACTOR)
        if done.any():
            theta[rows[done]], cost[rows[done]] = x[done], c[done]
            go = ~done
            rows, x, c, res, jac, damping = (rows[go], x[go], c[go], res[go],
                                             jac[go], damping[go])
    for i, best, best_cost in zip(rows, x, c):
        theta[i], cost[i] = best, best_cost
        errors[i] = FitFailureError(
            f"least squares did not converge in {MAX_ITERATIONS} iterations, "
            f"cost {best_cost}", best_params=best.copy(), best_cost=best_cost)
    return theta, cost, errors
