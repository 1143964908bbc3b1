"""Slow independent routes that the package's fast paths are checked against.

rk45_master     the master equation integrated by adaptive Runge-Kutta 5(4)
                (scipy solve_ivp), tolerances an order below the state
                validation floors; checks lindblad.evolve_master.
expm_master     the master equation propagated by expm(L dt) of the full
                (N+2)^2 Liouvillian on vec(rho), one step per grid interval;
                checks the sector propagation of lindblad.evolve_master to
                rounding.
resolvent_loop  one np.linalg.solve per grid point; checks the closed-form
                arrowhead resolvent of heff.amplitude_response, which must
                agree with it to 1e-13 of each column's largest magnitude.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from plasmon_cqed.errors import SingularityError

RK_RTOL = 1e-10
RK_ATOL = 1e-13


def rk45_master(liouvillian, rho0, times):
    """(len(times), d, d) states of d vec(rho)/dt = L vec(rho) from rho0 at
    t = 0, column-stacked vectorization; not validated."""
    times = np.asarray(times, dtype=float)
    rho0 = np.asarray(rho0, dtype=complex)
    dim = rho0.shape[0]
    sol = solve_ivp(lambda _t, v: liouvillian @ v,
                    (0.0, float(max(times.max(), 1e-12))),
                    rho0.flatten(order="F"), t_eval=times,
                    rtol=RK_RTOL, atol=RK_ATOL)
    if not sol.success:
        raise RuntimeError(f"RK45 failed: {sol.message}")
    return sol.y.T.reshape(-1, dim, dim).transpose(0, 2, 1)


def expm_master(liouvillian, rho0, times):
    """(len(times), d, d) states vec(rho_k) = expm(L (t_k - t_{k-1})) vec(rho_{k-1})
    from rho0 at t = 0, column-stacked vectorization; not validated."""
    times = np.asarray(times, dtype=float)
    rho0 = np.asarray(rho0, dtype=complex)
    dim = rho0.shape[0]
    steps = {}
    vec = rho0.flatten(order="F")
    out = np.empty((times.size, dim * dim), dtype=complex)
    for k, dt in enumerate(np.diff(times, prepend=0.0)):
        if dt not in steps:
            steps[dt] = expm(liouvillian * dt)
        vec = steps[dt] @ vec
        out[k] = vec
    return out.reshape(-1, dim, dim).transpose(0, 2, 1)


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
