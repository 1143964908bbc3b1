"""Closed-form weak-coupling observables: adiabatic elimination, Lamb shift,
per-mode Purcell factors, golden-rule rates from the exact Green function
(a whole distance sweep per call), thermally broadened rates and their
Fano-modified counterparts.

The Lamb shift is reported but never folded back into omega0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .medium import EmitterSpec, MaterialModel
from .mie import DEFAULT_N_MAX, green_rr_sweep
from .constants import HBAR_C_EV_NM


@dataclass(frozen=True)
class WeakCouplingReport:
    """Per-scenario rate budget (eV) with per-mode arrays indexed by LSP order."""

    lamb_shift: float
    gamma_tot: float
    gamma0: float
    gamma_n: np.ndarray
    purcell: np.ndarray
    quality: np.ndarray
    purcell_rad: np.ndarray | None = None

    @property
    def enhancement(self) -> float:
        return self.gamma_tot / self.gamma0


def _eliminate(modes, emitter: EmitterSpec, alphas) -> WeakCouplingReport:
    """Adiabatic elimination of modes whose couplings carry the Fano
    asymmetries alphas (all zero for the standard Hamiltonian), with the
    per-mode F_p^n = 4 g_n^2/(gamma0 Gamma_n) and Q_n = omega_n/Gamma_n."""
    omega0, gamma0 = emitter.omega0, emitter.gamma0
    delta_w = 0.0
    gam = []
    for m, alpha in zip(modes, alphas):
        den = (omega0 - m.omega_n) ** 2 + (m.gamma_n / 2) ** 2
        delta_w += -m.g**2 * ((1 - alpha**2 / 4) * (m.omega_n - omega0)
                              + alpha * m.gamma_n / 2) / den
        gam.append(m.g**2 * ((1 - alpha**2 / 4) * m.gamma_n
                             - 2 * alpha * (m.omega_n - omega0)) / den)
    gam = np.asarray(gam)
    return WeakCouplingReport(
        lamb_shift=delta_w,
        gamma_tot=gamma0 + float(np.sum(gam)),
        gamma0=gamma0,
        gamma_n=gam,
        purcell=np.array([4 * m.g**2 / (gamma0 * m.gamma_n) for m in modes]),
        quality=np.array([m.omega_n / m.gamma_n for m in modes]),
    )


def adiabatic_rates(modes, emitter: EmitterSpec) -> WeakCouplingReport:
    """Lamb shift and total decay rate from adiabatic plasmon elimination:
    the Fano elimination with every alpha_n = 0."""
    return _eliminate(modes, emitter, [0.0] * len(modes))


def purcell_factors(modes, emitter: EmitterSpec) -> WeakCouplingReport:
    """Per-mode Purcell factors F_p^n = 4 g_n^2/(gamma0 Gamma_n) with the
    adiabatic report, whose detuned rate g_n^2 Gamma_n/(Delta_n^2 + Gamma_n^2/4)
    is gamma0 F_p^n/(1 + 4 Q_n^2 ((omega0 - omega_n)/omega_n)^2); F_rad where
    the radiative split is resolved."""
    f_rad = None
    if all(m.gamma_rad is not None for m in modes):
        f_rad = np.array([
            4 * m.g**2 / (emitter.gamma0_rad * m.gamma_rad) if m.gamma_rad > 0 else 0.0
            for m in modes
        ])
    return replace(_eliminate(modes, emitter, [0.0] * len(modes)),
                   purcell_rad=f_rad)


def fermi_rate(omega0: float, geometries, material: MaterialModel,
               emitter: EmitterSpec, n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """Golden-rule enhancement gamma_tot/gamma0 = 1 + eta (6 pi/k_b) Im G^rr
    from the exact Mie Green function, one per emitter position around one
    sphere: entry i belongs to geometries[i].

    The geometries share R and eps_b, so every position comes from one
    green_rr_sweep call (one B_n build); each entry is bitwise what that
    geometry alone gives.
    """
    geometries = list(geometries)
    total = np.sum(green_rr_sweep(omega0, geometries, material, n_max), axis=-1)
    kb = geometries[0].n_b * omega0 / HBAR_C_EV_NM
    return 1.0 + emitter.eta * 6 * math.pi / kb * total.imag


def broadened_rate(modes, emitter: EmitterSpec) -> np.ndarray:
    """Per-mode rate for a Lorentzian emitter line: the two-Lorentzian
    convolution replaces Gamma_n by gamma0 + Gamma_n."""
    out = []
    for m in modes:
        width = emitter.gamma0 + m.gamma_n
        out.append(m.g**2 * width /
                   ((emitter.omega0 - m.omega_n) ** 2 + (width / 2) ** 2))
    return np.asarray(out)


def fano_adiabatic(modes, emitter: EmitterSpec) -> WeakCouplingReport:
    """Adiabatic rates for the Fano effective Hamiltonian (leaky modes).

    Per-mode rate carries the asymmetry bracket
    [1 - alpha^2/4 + 2 alpha Q (omega0-omega_n)/omega_n]; it changes sign at
    the Fano dip, so individual gamma_n may be negative while the total rate
    stays physical.
    """
    return _eliminate(modes, emitter, [m.alpha or 0.0 for m in modes])


def fano_dip_frequency(mode) -> float:
    """Emission frequency where the Fano bracket vanishes (rate suppression)."""
    alpha = mode.alpha or 0.0
    if alpha == 0.0:
        return math.inf
    q = mode.omega_n / mode.gamma_n
    return mode.omega_n * (1.0 - (1 - alpha**2 / 4) / (2 * alpha * q))
