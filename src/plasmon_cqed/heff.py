"""Non-hermitian effective Hamiltonians, biorthogonal dressed states,
amplitude dynamics and emission spectra.

Matrices live in the rotating frame at the emitter frequency: diagonal
entries are (Delta_n - i Gamma_n/2) with Delta_n = omega_n - omega0 and the
emitter entry -i gamma0/2.  All stored Hamiltonians are complex symmetric
(H[0,n] = H[n,0]), so left eigenvectors are conjugated right eigenvectors.
Absolute frequencies reappear only in the spectra.
Every H_eff is an arrowhead matrix (emitter row and column plus a diagonal),
so the spectra use its closed-form resolvent: no eigenbasis, exact at
exceptional points too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    IncompleteModesError,
    InvalidArgumentError,
    NearDefectiveError,
    NumericalFailureError,
    SingularityError,
)
from .medium import EmitterSpec, Geometry, MaterialModel, radiative_rate
from .mie import qs_polarizability

# Near an exceptional point two eigenvectors merge and |v^T v| of the
# unit-norm right vectors goes to zero; the eigen-expansion then loses about
# eps/|v^T v|^2 (measured on the one-mode point Delta = 0,
# g -> (Gamma - gamma0)/4).  The floor keeps that loss below EXPANSION_TOL,
# the accuracy verify holds the dynamics to.  Below it evolve takes exact
# expm steps and eigendecompose raises NearDefectiveError.
EXPANSION_TOL = 1e-8
BIORTHO_FLOOR = math.sqrt(np.finfo(float).eps / EXPANSION_TOL)  # ~1.5e-4


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """(N+1)x(N+1) rotating-frame matrix over {|e,0>, |g,1_1>..|g,1_N>} and
    the emitter whose frequency sets the frame."""

    matrix: np.ndarray
    emitter: EmitterSpec

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] - 1


def build_standard(modes, emitter: EmitterSpec) -> EffectiveHamiltonian:
    """Standard effective Hamiltonian: diagonal losses, real couplings g_n."""
    for mode in modes:
        if not mode.gamma_n > 0:
            raise InvalidArgumentError(f"mode {mode.n} has non-positive width")
    return _arrowhead(modes, emitter, emitter.gamma0,
                      [m.gamma_n for m in modes], [m.g for m in modes])


def build_fano(modes, emitter: EmitterSpec,
               variant: str = "general") -> EffectiveHamiltonian:
    """Fano effective Hamiltonian with leaky off-diagonals g_n(1 - i alpha_n/2).

    radiative_only keeps only the radiative widths on the diagonal (lossless
    heuristic); general uses the full gamma0 and Gamma_n = Gamma_rad + Gamma_nr.
    """
    if variant not in ("radiative_only", "general"):
        raise InvalidArgumentError(f"unknown Fano variant {variant!r}")
    for mode in modes:
        if mode.alpha is None or mode.gamma_rad is None:
            raise IncompleteModesError(
                f"mode {mode.n} lacks the Fano split (alpha/gamma_rad)")
    if variant == "radiative_only":
        gamma0, widths = emitter.gamma0_rad, [m.gamma_rad for m in modes]
    else:
        gamma0 = emitter.gamma0
        widths = [m.gamma_rad + (m.gamma_nr or 0.0) for m in modes]
    return _arrowhead(modes, emitter, gamma0, widths,
                      [m.g * (1.0 - 0.5j * m.alpha) for m in modes])


def _arrowhead(modes, emitter: EmitterSpec, gamma0, widths,
               couplings) -> EffectiveHamiltonian:
    """The arrowhead H_eff: -i gamma0/2 on the emitter entry, Delta_n - i
    widths_n/2 on the mode diagonal, couplings_n on row and column 0."""
    if not modes:
        raise InvalidArgumentError("at least one mode required")
    h = np.diag([-0.5j * gamma0] + [m.detuning(emitter) - 0.5j * w
                                     for m, w in zip(modes, widths)])
    h[0, 1:] = h[1:, 0] = couplings
    return EffectiveHamiltonian(matrix=h, emitter=emitter)


@dataclass(frozen=True)
class DressedSet:
    """Biorthogonal eigensystem: lambda_m = omega_m - i gamma_m/2 plus paired
    right/left vectors with <L_m|R_m'> = delta.  weights[m] is the resolvent
    residue on the emitter entry (the m0^2 of the polarization spectrum)."""

    eigenvalues: np.ndarray
    right: np.ndarray  # columns
    left: np.ndarray   # columns
    weights: np.ndarray

    @property
    def frequencies(self) -> np.ndarray:
        return self.eigenvalues.real

    @property
    def widths(self) -> np.ndarray:
        return -2.0 * self.eigenvalues.imag

    def weight_table(self) -> np.ndarray:
        """|<basis_k|Pi_m^R>|^2, rows = dressed states, columns = basis."""
        return np.abs(self.right.T) ** 2


def eigendecompose(h: EffectiveHamiltonian) -> DressedSet:
    """All eigenpairs of the dense complex matrix, sorted by real part,
    normalized so <Pi_L|Pi_R> = 1 with left vectors from the symmetric gauge."""
    matrix = h.matrix
    if not np.all(np.isfinite(matrix)):
        raise InvalidArgumentError("Hamiltonian has non-finite entries")
    try:
        lam, vec = np.linalg.eig(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(lam.real)
    lam, vec = lam[order], vec[:, order]
    # complex-symmetric normalization v^T v = 1
    q = np.sum(vec * vec, axis=0)
    if np.any(np.abs(q) < BIORTHO_FLOOR):
        raise NearDefectiveError("eigenbasis nearly defective (v^T v underflow)")
    vec = vec / np.sqrt(q)[None, :]
    # complex-symmetric matrix: the left vectors are the conjugated right ones
    left = np.conj(vec) / np.conj(np.sum(vec * vec, axis=0))[None, :]
    # resolvent residue on the emitter entry: <e,0|Pi_m^R><Pi_m^L|e,0>
    weights = vec[0, :] * np.conj(left[0, :])
    return DressedSet(eigenvalues=lam, right=vec, left=left, weights=weights)


@dataclass(frozen=True)
class AmplitudeState:
    """Single-excitation amplitudes at time t (hbar/eV units)."""

    t: float
    c_e: complex
    c_n: np.ndarray


def _time_grid(times) -> np.ndarray:
    """times as a float array, if it is a finite, nonnegative, nondecreasing
    1-D grid; InvalidArgumentError otherwise."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)) \
            or np.any(np.diff(times, prepend=0.0) < 0):
        raise InvalidArgumentError(
            "times must be a finite, nonnegative, nondecreasing 1-D grid")
    return times


def _amplitudes(h: EffectiveHamiltonian, psi0, times) -> np.ndarray:
    """(len(times), N+1) stack of psi(t_k), columns in the order c_e, c_n.

    Spectral propagation psi(t) = sum_m eta_m |Pi_m^R> e^{-i lambda_m t}:
    exact for the rational spectrum (no time-stepping error).  Where the
    eigenbasis is near defective (an exceptional point, see BIORTHO_FLOOR) it
    takes exact expm steps instead.  Both routes take the same time grids
    (see _time_grid).
    """
    psi0 = np.asarray(psi0, dtype=complex)
    times = _time_grid(times)
    try:
        dressed = eigendecompose(h)
        eta = dressed.left.conj().T @ psi0
        phases = np.exp(-1j * np.outer(times, dressed.eigenvalues))
        return (phases * eta[None, :]) @ dressed.right.T
    except NearDefectiveError:
        return _propagate(-1j * h.matrix, psi0, times)


def evolve(h: EffectiveHamiltonian, psi0, times) -> list[AmplitudeState]:
    """psi(t) at each time as an AmplitudeState: the amplitude stack of
    _amplitudes (spectral, or exact expm steps at exceptional points), packed
    one state per time."""
    times = _time_grid(times)
    traj = _amplitudes(h, psi0, times)
    c_n = traj[:, 1:].copy()
    return [AmplitudeState(t=t, c_e=c_e, c_n=row) for t, c_e, row
            in zip(times.tolist(), traj[:, 0].tolist(), c_n)]


def _propagate(generator: np.ndarray, v0: np.ndarray, times) -> np.ndarray:
    """v(t_k) of dv/dt = G v with v(0) = v0, shape (len(times),) + v0.shape.

    v0 is a vector or a matrix whose columns evolve alone (v0 = I[:, S] gives
    the columns S of the propagators expm(G t_k)).  G is constant, so
    v_k = expm(G dt_k) v_{k-1} with dt_k = t_k - t_{k-1} and t_{-1} = 0: no
    time-stepping error, also where G is defective (exceptional points).  One
    expm per distinct step; steps within a few ulp of the largest time (the
    rounding of an evenly spaced grid) share their group's mean.  A run of m
    steps of one group is filled by doubling: after its first step P v,
    out[a+j : a+2j] = P^j out[a : a+j] with P^j squared after each block, so
    an evenly spaced grid costs about 2 log2(m) products instead of m.
    """
    from scipy.linalg import expm

    times = _time_grid(times)
    steps = np.diff(times, prepend=0.0)
    # Each group spans at most tol from its smallest step.
    tol = 4.0 * np.spacing(np.max(times, initial=0.0))
    order = np.argsort(steps, kind="stable")
    ordered = steps[order]
    group = np.empty(steps.size, dtype=int)
    propagators = []
    start = 0
    while start < steps.size:
        stop = start + np.searchsorted(ordered[start:] - ordered[start], tol,
                                       side="right")
        group[order[start:stop]] = len(propagators)
        propagators.append(expm(generator * np.mean(ordered[start:stop])))
        start = stop
    vec = v0[:, None] if v0.ndim == 1 else v0  # a vector as one column
    out = np.empty((times.size,) + vec.shape, dtype=complex)
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    for a, b in zip(starts, np.r_[starts[1:], times.size]):
        power = propagators[group[a]]
        np.matmul(power, vec, out=out[a])
        filled = 1
        while filled < b - a:
            m = min(filled, b - a - filled)
            np.matmul(power, out[a:a + m], out=out[a + filled:a + filled + m])
            filled += m
            power = power @ power
        vec = out[b - 1]
    return out.reshape((times.size,) + v0.shape)


@dataclass(frozen=True)
class PolarizationSpectrum:
    values: np.ndarray


def polarization_spectrum(h: EffectiveHamiltonian, grid) -> PolarizationSpectrum:
    """Near-field polarization spectrum for an initially excited emitter,
    P(w) = |C_e(w)|^2 by the closed-form resolvent of amplitude_response."""
    values = np.abs(amplitude_response(h, grid)[:, 0]) ** 2
    return PolarizationSpectrum(values=values)


def polarization_integral(h: EffectiveHamiltonian) -> float:
    """Closed form of int P(w) dw / 2pi by residues,
    sum_{m,m'} w_m conj(w_m') / (i (lambda_m - conj(lambda_m')))."""
    dressed = eigendecompose(h)
    lam, w = dressed.eigenvalues, dressed.weights
    denom = 1j * (lam[:, None] - np.conj(lam)[None, :])
    return float(np.real(np.sum(w[:, None] * np.conj(w)[None, :] / denom)))


def amplitude_response(h: EffectiveHamiltonian, grid) -> np.ndarray:
    """Frequency-domain amplitudes C(w) = i (u I - H)^{-1} |e,0>, u = w - omega0.

    For an arrowhead H the dressed-atom self-energy form is exact:
    x_0 = 1/(u - H_00 - sum_n H_0n H_n0/(u - H_nn)), x_n = H_n0 x_0/(u - H_nn),
    one (points x modes) array expression with no eigenbasis, so it holds at
    exceptional points.  At a point on the level of one coupled lossless mode
    k (u = H_kk) the limit is exact instead: x_0 = 0, x_k = -i/H_0k, every
    other x_n = 0.  Mode-mode couplings raise ContractViolationError; a point
    where u I - H is singular (two such levels, or an uncoupled one) raises
    SingularityError naming it.
    """
    grid = np.asarray(grid, dtype=float)
    matrix = h.matrix
    if not np.all(np.isfinite(matrix)):
        raise InvalidArgumentError("Hamiltonian has non-finite entries")
    levels = np.diagonal(matrix)[1:]
    if np.any(matrix[1:, 1:] - np.diag(levels)):
        raise ContractViolationError(
            "H_eff is not an arrowhead matrix: its modes couple to each other")
    u = grid - h.emitter.omega0
    out = np.empty((grid.size, matrix.shape[0]), dtype=complex)
    ratio = out[:, 1:]  # x_n / x_0 until scaled by x_0
    with np.errstate(all="ignore"):
        np.subtract(u[:, None], levels, out=ratio)
        np.divide(matrix[1:, 0], ratio, out=ratio)
        self_energy = np.einsum("pn,n->p", ratio, matrix[0, 1:])
        out[:, 0] = 1j / (u - matrix[0, 0] - self_energy)
        ratio *= out[:, :1]
    for p in np.flatnonzero(~np.all(np.isfinite(out), axis=1)):
        # u = H_kk: row k of (u I - H) x = i e_0 forces x_0 = 0, row 0 fixes x_k
        (hit,) = np.nonzero(u[p] == levels)
        k = hit[0] + 1 if hit.size == 1 else None
        if k is None or matrix[0, k] == 0 or matrix[k, 0] == 0:
            raise SingularityError(
                f"resolvent singular at hbar*omega={grid[p]} eV")
        out[p] = 0.0
        out[p, k] = -1j / matrix[0, k]
    return out


@dataclass(frozen=True)
class RadiatedSpectrum:
    p_rad: np.ndarray
    lsp1_population: np.ndarray   # |C_1(w)|^2 far-field proxy
    gamma_rad: np.ndarray         # frequency-dependent radiative rate, eV


def radiated_spectrum(h: EffectiveHamiltonian, grid, geometry: Geometry,
                      material: MaterialModel) -> RadiatedSpectrum:
    """Total radiated power P_rad(w) = gamma_rad(w) P(w) / 2pi and the bright
    dipolar-mode population proxy |C_1(w)|^2.

    gamma_rad(w) uses the dipolar-polarizability enhancement
    gamma0_rad(w) [1 + 4 |alpha_1^eff(w)|^2 / r_d^6].
    """
    grid = np.asarray(grid, dtype=float)
    amps = amplitude_response(h, grid)
    p_of_w = np.abs(amps[:, 0]) ** 2
    _, alpha_eff = qs_polarizability(grid, geometry, material)
    g_rad = radiative_rate(grid, h.emitter.d_eg, geometry.n_b) \
        * (1.0 + 4.0 * np.abs(alpha_eff) ** 2 / geometry.r_d**6)
    p_rad = g_rad * p_of_w / (2.0 * math.pi)
    lsp1 = np.abs(amps[:, 1]) ** 2 if h.n_modes >= 1 else np.zeros_like(grid)
    return RadiatedSpectrum(p_rad=p_rad, lsp1_population=lsp1, gamma_rad=g_rad)


def flip_coupling_gauge(h: EffectiveHamiltonian, signs) -> EffectiveHamiltonian:
    """Flip the sign of selected off-diagonals (diagonal gauge transformation);
    observables must be invariant."""
    signs = np.asarray(signs, dtype=float)
    if signs.size != h.n_modes:
        raise InvalidArgumentError("one sign per mode required")
    s = np.concatenate(([1.0], signs))
    matrix = (s[:, None] * h.matrix) * s[None, :]
    return EffectiveHamiltonian(matrix=matrix, emitter=h.emitter)
