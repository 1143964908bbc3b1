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


def _eliminate(modes, emitter: EmitterSpec, widths, couplings) -> WeakCouplingReport:
    """Adiabatic elimination of the plasmon amplitudes, which is the H_eff
    self-energy at omega0: for mode widths w_n and couplings c_n its term n
    is c_n^2/(i w_n/2 - Delta_n).  The real parts sum to the Lamb shift and
    -2 Im is the per-mode rate.  The report adds the per-mode
    F_p^n = 4 g_n^2/(gamma0 Gamma_n) and Q_n = omega_n/Gamma_n."""
    omega_n = np.array([m.omega_n for m in modes], dtype=float)
    gamma_n = np.array([m.gamma_n for m in modes], dtype=float)
    g = np.array([m.g for m in modes], dtype=float)
    sigma = np.asarray(couplings) ** 2 / (
        0.5j * np.asarray(widths) - (omega_n - emitter.omega0))
    gam = -2.0 * sigma.imag
    return WeakCouplingReport(
        lamb_shift=float(sigma.real.sum()),
        gamma_tot=emitter.gamma0 + float(gam.sum()),
        gamma0=emitter.gamma0,
        gamma_n=gam,
        purcell=4 * g**2 / (emitter.gamma0 * gamma_n),
        quality=omega_n / gamma_n,
    )


def adiabatic_rates(modes, emitter: EmitterSpec) -> WeakCouplingReport:
    """Lamb shift and total decay rate from adiabatic plasmon elimination
    of the standard H_eff (widths Gamma_n, couplings g_n)."""
    return _eliminate(modes, emitter, [m.gamma_n for m in modes],
                      [m.g for m in modes])


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
    return replace(adiabatic_rates(modes, emitter), purcell_rad=f_rad)


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
    widths = [emitter.gamma0 + m.gamma_n for m in modes]
    return _eliminate(modes, emitter, widths, [m.g for m in modes]).gamma_n


def fano_adiabatic(modes, emitter: EmitterSpec) -> WeakCouplingReport:
    """Adiabatic rates for the Fano effective Hamiltonian (leaky modes).

    Per-mode rate carries the asymmetry bracket
    [1 - alpha^2/4 + 2 alpha Q (omega0-omega_n)/omega_n]; it changes sign at
    the Fano dip, so individual gamma_n may be negative while the total rate
    stays physical.
    """
    return _eliminate(modes, emitter, [m.gamma_n for m in modes],
                      [m.g * (1.0 - 0.5j * (m.alpha or 0.0)) for m in modes])

