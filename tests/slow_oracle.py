"""Slow independent routes that the package's fast paths are checked against,
beside those in plasmon_cqed.verify that `--verify` runs too.

rk45_master     the master equation integrated by adaptive Runge-Kutta 5(4)
                (scipy solve_ivp) on verify.dense_liouvillian, tolerances an
                order below the state validation floors; checks
                lindblad.evolve_master.
resolvent_loop  one np.linalg.solve per grid point; checks the closed-form
                arrowhead resolvent of heff.amplitude_response, which must
                agree with it to 1e-13 of each column's largest magnitude.
leastsq_fit     MINPACK's lmdif (Levenberg-Marquardt with a forward-difference
                Jacobian; More, LNM 630, 1978) through scipy.optimize.leastsq,
                one fit at a time; checks the batched fitting.least_squares
                behind the Lorentzian and Fano mode fits.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import leastsq

from plasmon_cqed.errors import FitFailureError, SingularityError
from plasmon_cqed.verify import dense_liouvillian

RK_RTOL = 1e-10
RK_ATOL = 1e-13
LEASTSQ_FTOL = 1e-12
LEASTSQ_XTOL = 1e-12
LEASTSQ_GTOL = 1e-10
LEASTSQ_SUCCESS = (1, 2, 3, 4)  # one of the three tolerances was met


def rk45_master(liouvillian, rho0, times):
    """(len(times), d, d) states of d vec(rho)/dt = L vec(rho) from rho0 at
    t = 0, L = dense_liouvillian(liouvillian); not validated."""
    times = np.asarray(times, dtype=float)
    rho0 = np.asarray(rho0, dtype=complex)
    dim = rho0.shape[0]
    dense = dense_liouvillian(liouvillian)
    sol = solve_ivp(lambda _t, v: dense @ v,
                    (0.0, float(max(times.max(), 1e-12))),
                    rho0.flatten(order="F"), t_eval=times,
                    rtol=RK_RTOL, atol=RK_ATOL)
    if not sol.success:
        raise RuntimeError(f"RK45 failed: {sol.message}")
    return sol.y.T.reshape(-1, dim, dim).transpose(0, 2, 1)


def resolvent_loop(h, grid):
    """C(w) = i (u I - H)^{-1} |e,0>, u = w - omega0, one solve per point."""
    grid = np.asarray(grid, dtype=float)
    dim = h.matrix.shape[0]
    source = np.zeros(dim, dtype=complex)
    source[0] = 1.0
    out = np.empty((grid.size, dim), dtype=complex)
    eye = np.eye(dim)
    for i, w in enumerate(grid):
        u = w - h.emitter.omega0
        try:
            out[i] = 1j * np.linalg.solve(u * eye - h.matrix, source)
        except np.linalg.LinAlgError as exc:
            raise SingularityError(
                f"resolvent singular at hbar*omega={w} eV") from exc
    return out


def leastsq_fit(residual, x0):
    """(params, cost) minimizing cost = 0.5*||residual(x)||^2 from x0.

    Any MINPACK status other than a met tolerance, and a non-finite cost
    (which MINPACK reports as status 4), raise FitFailureError carrying the
    best iterate and its cost.
    """
    params, _, info, message, status = leastsq(
        residual, np.asarray(x0, dtype=float), full_output=True,
        ftol=LEASTSQ_FTOL, xtol=LEASTSQ_XTOL, gtol=LEASTSQ_GTOL)
    cost = 0.5 * float(info["fvec"] @ info["fvec"])
    if status not in LEASTSQ_SUCCESS or not np.isfinite(cost):
        raise FitFailureError(
            f"Levenberg-Marquardt stopped with MINPACK status {status}, "
            f"cost {cost}: {' '.join(message.split())}",
            best_params=params, best_cost=cost)
    return params, cost
