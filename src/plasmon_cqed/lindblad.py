"""Density-matrix evolution in the ground + single-excitation sector and its
equivalence with the non-hermitian effective Hamiltonian route.

States are of side N+2, basis order {|g,0>, |e,0>, |g,1_1>, ..., |g,1_N>}.
The sector truncation is exact here: with no pump, every dissipator moves
excitation downward, so the ground population only grows.

The paper-style dissipators carry the 1/2 convention folded in; they equal
the standard Lindblad form D[c]rho = c rho c+ - {c+c, rho}/2 with c = sqrt(rate)*op,
which is what is assembled below.

The master equation is kept as its factors (Liouvillian), both on the
single-excitation sector {|e,0>, |g,1_n>} of side N+1, emitter at index 0 as
in H_eff; no (N+2)^2 x (N+2)^2 superoperator is formed.  H_S does not touch
|g,0>, so only its sector block is stored, and each channel
c = |g,0><(0, v_c)| is kept as its sector row v_c.  c annihilates |g,0>, so
the jumps c rho c+ only feed |g,0><g,0| (the no-jump/jump split of Dalibard,
Castin & Molmer, PRL 68, 580 (1992)), and the rest evolves under
-i H_eff = -i H_S - V+V / 2 alone, V the (C, N+1) stack of rows.  With
W = U[:, S] the columns of U = expm(-i H_eff t) that rho(0) touches (S: the
sector indices whose row or column of rho(0) is nonzero):

    rho_1(t)  = W rho_1(0)[S, S] W+    (single-excitation block)
    rho_k0(t) = W rho_k0(0)[S]         (coherences with |g,0>; rho_0k conjugate)
    rho_00(t) = tr rho(0) - tr rho_1(t)

Only W is propagated (_master_states, the stack behind evolve_master).
So rho(t) = P X(t) P+, P = diag(1, W), with the core X(t) rho(0)'s rows and
columns {0} u S and rho_00(t) in its corner.  rho(0) is validated in full;
each later state is hermitian with its trace by construction and positive
exactly when its core, of side 1 + |S|, is (congruence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InvalidArgumentError, InvalidRateError
from .heff import EffectiveHamiltonian, _propagate
from .medium import EmitterSpec

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
POSITIVITY_FLOOR = -1e-9
DISSIPATOR_KINDS = ("standard", "fano_radiative", "fano_full")


@dataclass(frozen=True)
class StateSpace:
    """The truncated emitter + N-plasmon sector |g,0>, |e,0>, |g,1_n>."""

    n_modes: int

    @property
    def dim(self) -> int:
        return self.n_modes + 2


def build_state_space(n_modes: int) -> StateSpace:
    if n_modes < 0:
        raise InvalidArgumentError("n_modes must be >= 0")
    return StateSpace(n_modes=n_modes)


@dataclass(frozen=True)
class DissipatorSpec:
    """Collapse channels c = |g,0><(0, v_c)| (rates folded in as
    amplitudes) for one of the three master equations, as the (C, N+1)
    stack of their sector rows v_c, and the emitter whose frequency sets
    the frame."""

    labels: tuple          # one name per channel
    channels: np.ndarray   # (C, N+1) sector rows v_c
    emitter: EmitterSpec


def _require_rate(value, label):
    if value is None or value < 0:
        raise InvalidRateError(f"{label} must be a nonnegative rate, got {value}")
    return value


def build_dissipators(kind: str, modes, emitter: EmitterSpec,
                      space: StateSpace) -> DissipatorSpec:
    """Collapse channels for the standard, Fano-radiative or full-Fano kinds,
    as sector rows: sigma_ge = |g,0><e,0| is e_0 and a_n = |g,0><g,1_n| is e_n.

    standard:        sqrt(gamma0) sigma_ge and sqrt(Gamma_n) a_n.
    fano_radiative:  collective c_n = sqrt(gamma0n_rad) sigma_ge + sqrt(Gamma_n_rad) a_n,
                     whose expansion is D_0 + D_LSPn + the cross relaxation.
    fano_full:       fano_radiative plus sqrt(Gamma_n_nr) a_n and, when the
                     emitter has an intrinsic non-radiative rate, the
                     sqrt(gamma0_nr) sigma_ge channel so the induced effective
                     Hamiltonian carries the full gamma0.

    The bath sums behind the collective channels run over every multipole;
    truncating to N modes leaves a residual free-space radiative weight
    gamma0_rad - sum_n gamma0n_rad, carried by a plain emitter channel so the
    induced effective Hamiltonian keeps the full radiative diagonal and the
    alpha -> 0 limit collapses exactly onto the standard dissipators.
    """
    if kind not in DISSIPATOR_KINDS:
        raise InvalidArgumentError(f"unknown dissipator kind {kind!r}")
    if len(modes) != space.n_modes:
        raise InvalidArgumentError("mode count does not match state space")
    basis = np.eye(space.n_modes + 1, dtype=complex)
    sigma, lowering = basis[0], basis[1:]
    channels = []
    if kind == "standard":
        g0 = _require_rate(emitter.gamma0, "gamma0")
        channels.append(("emitter", math.sqrt(g0) * sigma))
        for mode, a in zip(modes, lowering):
            g = _require_rate(mode.gamma_n, f"Gamma_{mode.n}")
            channels.append((f"lsp{mode.n}", math.sqrt(g) * a))
    else:
        gamma0n_total = 0.0
        for mode, a in zip(modes, lowering):
            g_rad = _require_rate(mode.gamma_rad, f"Gamma_{mode.n}^rad")
            alpha = mode.alpha if mode.alpha is not None else 0.0
            # signed emitter-bath amplitude: alpha*g = +-sqrt(gamma0n_rad * Gamma_rad)
            zeta = alpha * mode.g / math.sqrt(g_rad) if g_rad > 0 else 0.0
            gamma0n_total += zeta**2
            channels.append((f"collective{mode.n}",
                             zeta * sigma + math.sqrt(g_rad) * a))
        rest = emitter.gamma0_rad - gamma0n_total
        if rest < -1e-9 * max(emitter.gamma0_rad, 1e-300):
            raise InvalidRateError(
                "per-mode gamma0n_rad weights exceed the free-space radiative rate")
        if rest > 0:
            channels.append(("emitter_rad_rest", math.sqrt(rest) * sigma))
        if kind == "fano_full":
            for mode, a in zip(modes, lowering):
                g_nr = _require_rate(mode.gamma_nr or 0.0, f"Gamma_{mode.n}^nr")
                if g_nr > 0:
                    channels.append((f"nonrad{mode.n}", math.sqrt(g_nr) * a))
            if emitter.gamma0_nr > 0:
                channels.append(
                    ("emitter_nr", math.sqrt(emitter.gamma0_nr) * sigma))
    rows = np.array([row for _, row in channels], dtype=complex)
    return DissipatorSpec(labels=tuple(label for label, _ in channels),
                          channels=rows.reshape(-1, space.n_modes + 1),
                          emitter=emitter)


def build_system_hamiltonian(modes, emitter: EmitterSpec,
                             space: StateSpace) -> np.ndarray:
    """Hermitian rotating-frame H_S = sum Delta_n a+a + sum g_n (sigma_eg a_n + h.c.),
    written by index on the sector |e,0>, |g,1_n> of build_state_space (its
    |g,0> row and column are zero and not stored): Delta_n on the mode
    diagonal, g_n on row and column 0."""
    h = np.zeros((space.n_modes + 1,) * 2, dtype=complex)
    index = np.arange(1, space.n_modes + 1)
    h[index, index] = [mode.detuning(emitter) for mode in modes]
    h[0, index] = h[index, 0] = [mode.g for mode in modes]
    return h


def dissipator_action(channel: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[c]rho = c rho c+ - (c+c rho + rho c+c)/2."""
    cd = channel.conj().T
    cdc = cd @ channel
    return channel @ rho @ cd - 0.5 * (cdc @ rho + rho @ cdc)


@dataclass(frozen=True)
class Liouvillian:
    """d rho/dt = -i[H_S, rho] + sum_c D[c] rho, kept as its sector factors;
    shape (d^2, d^2), d = N+2, on column-stacked vec(rho), a matrix never
    formed here.  Both the master equation and the H_eff route build one,
    so this is where the factors are validated."""

    h_s: np.ndarray       # (N+1, N+1) hermitian sector block of H_S
    channels: np.ndarray  # (C, N+1) sector rows v_c

    def __post_init__(self):
        if self.h_s.ndim != 2 or self.h_s.shape[0] != self.h_s.shape[1]:
            raise ContractViolationError(
                f"system Hamiltonian of shape {self.h_s.shape} is not square")
        if np.max(np.abs(self.h_s - self.h_s.conj().T)) > HERMITICITY_TOL:
            raise ContractViolationError("system Hamiltonian must be hermitian")
        if self.channels.ndim != 2 or self.channels.shape[1] != self.h_s.shape[0]:
            raise ContractViolationError(
                f"channels of shape {self.channels.shape} are not rows of "
                f"length {self.h_s.shape[0]}")

    @property
    def shape(self) -> tuple[int, int]:
        return ((self.h_s.shape[0] + 1) ** 2,) * 2


def build_liouvillian(h_s: np.ndarray, dissipators: DissipatorSpec,
                      space: StateSpace) -> Liouvillian:
    """The master equation of H_S and the dissipators' collapse channels."""
    del space  # the sector factors already have its dimension
    return Liouvillian(h_s=np.asarray(h_s, dtype=complex),
                       channels=dissipators.channels)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, trace in [0, 1], positive-semidefinite state snapshot."""

    rho: np.ndarray
    t: float = 0.0

    def validate(self) -> None:
        if np.max(np.abs(self.rho - self.rho.conj().T)) > HERMITICITY_TOL:
            raise ContractViolationError("density matrix not hermitian")
        trace = float(np.real(np.trace(self.rho)))
        if not -TRACE_TOL <= trace <= 1.0 + TRACE_TOL:
            raise ContractViolationError(f"trace {trace} outside [0, 1]")
        _require_positive(self.rho[None])


def pure_state(space: StateSpace, index: int) -> DensityMatrix:
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[index, index] = 1.0
    return DensityMatrix(rho=rho)


def _require_positive(stack: np.ndarray) -> None:
    """Name the first matrix of a hermitian (k, n, n) stack whose lowest
    eigenvalue lies below POSITIVITY_FLOOR (eigvalsh reads one triangle)."""
    lowest = np.linalg.eigvalsh(stack)[:, 0]
    bad = np.flatnonzero(~(lowest >= POSITIVITY_FLOOR))  # NaN fails too
    if bad.size:
        raise ContractViolationError(
            f"density matrix {bad[0]} not positive semidefinite")


def _sector_generator(h_s: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """-i H_eff = -i H_S - (1/2) V+V for the (N+1)-sided sector H_S and the
    (C, N+1) sector rows V of the channels c = |g,0><(0, v_c)|."""
    return -1j * h_s - 0.5 * (rows.conj().T @ rows)


def _sector_states(gen: np.ndarray, rho: np.ndarray, times) -> np.ndarray:
    """(k, d, d) states at the times from rho at t = 0, by the block formulas
    of the module docstring on the columns W = U[:, S] that rho touches,
    each checked on its core X(t); U is a contraction, so X(t) >= floor I
    gives rho(t) >= floor I."""
    dim = rho.shape[0]
    touched = np.flatnonzero(np.any(rho[1:] != 0, axis=1)
                             | np.any(rho[:, 1:] != 0, axis=0))
    cols = _propagate(gen, np.eye(dim - 1)[:, touched], times)
    out = np.empty((cols.shape[0], dim, dim), dtype=complex)
    # a contiguous adjoint stack multiplies about twice as fast
    adjoints = np.ascontiguousarray(cols.conj().transpose(0, 2, 1))
    np.matmul(cols @ rho[1 + touched[:, None], 1 + touched], adjoints,
              out=out[:, 1:, 1:])
    out[:, 1:, 0] = cols @ rho[1 + touched, 0]
    out[:, 0, 1:] = out[:, 1:, 0].conj()
    out[:, 0, 0] = np.trace(rho) - np.trace(out[:, 1:, 1:], axis1=1, axis2=2)
    core = np.r_[0, 1 + touched]
    cores = np.empty((out.shape[0], core.size, core.size), dtype=complex)
    cores[:] = rho[core[:, None], core]  # complex also for a real rho
    cores[:, 0, 0] = out[:, 0, 0]
    _require_positive(cores)
    return out


def _master_states(liouvillian: Liouvillian, rho0: DensityMatrix,
                   times) -> np.ndarray:
    """(len(times), d, d) stack of rho(t_k): the master equation propagated
    exactly from rho0.

    By sectors (module docstring): the columns S of U(t_k) = expm(-i H_eff t_k)
    that rho0 touches (pure_state: one; the ground state: none) come from
    exact expm steps (heff._propagate), so there is no time-stepping error,
    also where H_eff is defective (exceptional points).  rho0 is validated
    in full, each later state on its core (_sector_states).
    """
    rho0.validate()
    dim = rho0.rho.shape[0]
    if liouvillian.shape != (dim * dim, dim * dim):
        raise ContractViolationError(
            f"Liouvillian of shape {liouvillian.shape} for a {dim}x{dim} state")
    gen = _sector_generator(liouvillian.h_s, liouvillian.channels)
    return _sector_states(gen, rho0.rho, times)


def evolve_master(liouvillian: Liouvillian, rho0: DensityMatrix,
                  times) -> list[DensityMatrix]:
    """rho(t) at each time as a DensityMatrix: the state stack of
    _master_states (exact sector propagation, each state checked on its
    core), packed one state per time."""
    rhos = _master_states(liouvillian, rho0, times)
    return [DensityMatrix(rho=r, t=float(t)) for r, t in zip(rhos, times)]


def effective_hamiltonian_from_lindblad(h_s: np.ndarray,
                                        dissipators: DissipatorSpec) -> EffectiveHamiltonian:
    """H_eff = H_S - (i/2) sum c+c restricted to the single-excitation block:
    i times _sector_generator, of factors that Liouvillian validates.

    Reproduces the standard matrix for the standard kind and the Fano
    matrices (leaky off-diagonals) for the collective kinds.
    """
    liou = Liouvillian(h_s=np.asarray(h_s, dtype=complex),
                       channels=dissipators.channels)
    gen = _sector_generator(liou.h_s, liou.channels)
    return EffectiveHamiltonian(matrix=1j * gen, emitter=dissipators.emitter)


def single_excitation_projection(state: DensityMatrix) -> np.ndarray:
    """Restriction of rho to the {|e,0>, |g,1_n>} block."""
    return state.rho[1:, 1:]


def _heff_deviation(blocks: np.ndarray, psi: np.ndarray) -> float:
    """max |rho_1(t) - psi(t) psi(t)+| of a (k, N+1, N+1) stack of
    single-excitation blocks and the (k, N+1) H_eff amplitude stack."""
    return float(np.max(np.abs(
        blocks - psi[:, :, None] * psi[:, None, :].conj()), initial=0.0))
