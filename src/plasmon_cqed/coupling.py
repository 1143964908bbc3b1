"""Emitter-LSP_n coupling spectra |kappa_wn|^2 and the per-mode parameter
extraction: Lorentzian fits for absorbing (small) particles, Fano rate fits
for leaky (large) ones.

Fitting works per mode on the per-n terms of the scattered Green function,
so overlapping resonances never require multi-peak deconvolution -- the
modal decomposition separates them exactly.  Term n factorises as
B_n(omega; R, eps_b, metal) times a Hankel factor of k_b r_d, and each
mode's fit window depends on the sphere alone, so a distance sweep builds
B_n once per mode window (extract_mode_sweep over mie.green_rr_sweep).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import DIPOLE_SQ_OVER_EPS0, HBAR_C_EV_NM
from .errors import FitFailureError, InvalidArgumentError
from .fitting import levenberg_marquardt
from .medium import EmitterSpec, Geometry, MaterialModel, radiative_rate
from .mie import (green_rr_sweep, green_rr_terms, qs_mode_params,
                  radial_mode_fractions)
# unused here; perfbench/tests/test_bench_tracing.py asserts that the tracer
# swaps this binding, so it goes when that assertion does
from .mie import green_rr_scattered  # noqa: F401

MIN_GRID_POINTS = 50


@dataclass(frozen=True)
class CouplingSpectrum:
    """|kappa_wn|^2 sampled on an ascending grid (hbar-units: eV on both axes)."""

    n: int
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < MIN_GRID_POINTS:
            raise InvalidArgumentError(
                f"coupling grid needs >= {MIN_GRID_POINTS} points"
            )
        if not np.all(np.diff(grid) > 0):
            raise InvalidArgumentError("coupling grid must be strictly ascending")
        if values.shape != grid.shape:
            raise InvalidArgumentError("grid/values length mismatch")
        peak = float(np.max(values)) if values.size else 0.0
        if np.any(values < -1e-9 * max(peak, 1e-300)):
            # per-mode Im G < 0 marks the leaky regime where the Lorentzian
            # mode picture breaks down; |kappa|^2 is clamped at zero there
            warnings.warn(
                f"LSP_{self.n} spectrum has negative wings (leaky mode); "
                "clamped to zero -- use the Fano rate fit for this regime",
                stacklevel=3,
            )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", np.maximum(values, 0.0))


@dataclass(frozen=True)
class ModeParams:
    """Fitted LSP_n parameters (eV).  gamma_rad/gamma_nr/alpha stay None until
    a Fano fit resolves the radiative split; alpha carries the asymmetry sign."""

    n: int
    omega_n: float
    gamma_n: float
    g: float
    gamma_rad: float | None = None
    gamma_nr: float | None = None
    alpha: float | None = None
    fit_residual: float = 0.0

    def detuning(self, emitter: EmitterSpec) -> float:
        return self.omega_n - emitter.omega0


def kappa_spectrum(n: int, grid, geometry: Geometry, material: MaterialModel,
                   emitter: EmitterSpec) -> CouplingSpectrum:
    """|kappa_wn|^2 = (k0^2 d^2/ pi eps0) Im G_n^rr(r_d, r_d) on the grid.

    The multipole terms are independent, so only orders up to n are
    evaluated, in one array call over the whole grid.
    """
    grid = np.asarray(grid, dtype=float)
    term = green_rr_terms(grid, geometry, material, n)[..., n - 1]
    return CouplingSpectrum(n=n, grid=grid, values=_kappa2(grid, term, emitter))


def _kappa2(grid, term, emitter: EmitterSpec) -> np.ndarray:
    """|kappa_wn|^2 = (k0^2 d^2/ pi eps0) Im G_n from the Green term G_n on grid."""
    u = emitter.d_eg**2 * DIPOLE_SQ_OVER_EPS0
    k0 = grid / HBAR_C_EV_NM
    return k0**2 * u / math.pi * term.imag


def lorentzian_kappa2(grid, omega_n: float, gamma_n: float, g: float):
    """Modulus squared of the Lorentzian coupling profile."""
    grid = np.asarray(grid, dtype=float)
    return (gamma_n / (2 * math.pi)) * g**2 / ((grid - omega_n) ** 2 + gamma_n**2 / 4)


def _fwhm_estimate(grid, values, i_peak):
    half = values[i_peak] / 2.0
    lo = grid[0]
    for i in range(i_peak, 0, -1):
        if values[i - 1] <= half:
            lo = np.interp(half, [values[i - 1], values[i]], [grid[i - 1], grid[i]])
            break
    hi = grid[-1]
    for i in range(i_peak, len(grid) - 1):
        if values[i + 1] <= half:
            hi = np.interp(half, [values[i + 1], values[i]], [grid[i + 1], grid[i]])
            break
    return max(hi - lo, 2.0 * (grid[1] - grid[0]))


def fit_lorentzian(spectrum: CouplingSpectrum) -> ModeParams:
    """Least-squares Lorentzian fit of a single-peaked coupling spectrum.

    Width and coupling are log-parametrized so iterates stay positive.
    """
    grid, y = spectrum.grid, spectrum.values
    i_peak = int(np.argmax(y))
    if y[i_peak] <= 0:
        raise FitFailureError("spectrum is identically zero", best_params=None)
    omega0 = grid[i_peak]
    gamma0 = _fwhm_estimate(grid, y, i_peak)
    g0 = math.sqrt(y[i_peak] * math.pi * gamma0 / 2.0)
    scale = y[i_peak]  # normalized residuals keep the LM stopping rules scale-free

    def residual(theta):
        wn, lg_gamma, lg_g = theta
        return (lorentzian_kappa2(grid, wn, math.exp(lg_gamma), math.exp(lg_g))
                - y) / scale

    result = levenberg_marquardt(residual, [omega0, math.log(gamma0), math.log(g0)])
    wn, gamma, g = result.params[0], math.exp(result.params[1]), math.exp(result.params[2])
    rms = math.sqrt(2.0 * result.cost / grid.size) * scale \
        / math.sqrt(float(np.mean(y**2)))
    return ModeParams(n=spectrum.n, omega_n=wn, gamma_n=gamma, g=g, fit_residual=rms)


def default_mode_window(n: int, geometry: Geometry,
                        material: MaterialModel) -> np.ndarray:
    """201-point fit window on the quasi-static resonance estimate, +- 5 widths."""
    qs = qs_mode_params(n, geometry, material,
                        EmitterSpec(omega0=1.0, d_eg=1.0, eta=1.0, gamma0=0.0))
    half = 5.0 * max(qs.gamma_n, 1e-3)
    lo = max(0.05, qs.omega_n - half)
    return np.linspace(lo, qs.omega_n + half, 201)


def extract_mode_sweep(n_modes: int, geometries, material: MaterialModel,
                       emitter: EmitterSpec) -> list[list[ModeParams]]:
    """Lorentzian-fit the first n_modes coupling spectra at each emitter
    position around one sphere; entry i holds the modes at geometries[i].

    Each window is auto-centered on the quasi-static resonance estimate,
    which depends on the sphere alone, so mode n costs one window, one
    green_rr_sweep over every distance (one B_n build) and one fit per
    distance.  Every failed fit is collected and reported with its h.
    """
    if n_modes < 1:
        raise InvalidArgumentError("n_modes must be >= 1")
    geometries = list(geometries)
    if not geometries:
        raise InvalidArgumentError("a mode sweep needs at least one geometry")
    modes = [[] for _ in geometries]
    failures = []
    for n in range(1, n_modes + 1):
        grid = default_mode_window(n, geometries[0], material)
        terms = green_rr_sweep(grid, geometries, material, n)[..., n - 1]
        for found, geometry, term in zip(modes, geometries, terms):
            try:
                found.append(fit_lorentzian(CouplingSpectrum(
                    n=n, grid=grid, values=_kappa2(grid, term, emitter))))
            except FitFailureError as exc:
                failures.append((n, geometry.h, exc))
    if failures:
        failed = ", ".join(f"LSP_{n} at h={h:g} nm" for n, h, _ in failures)
        raise FitFailureError(f"mode fits failed for {failed}",
                              best_params=[exc for *_, exc in failures])
    return modes


def extract_modes(n_modes: int, geometry: Geometry, material: MaterialModel,
                  emitter: EmitterSpec) -> list[ModeParams]:
    """Lorentzian-fit the first n_modes coupling spectra at one emitter
    position: the one-geometry case of extract_mode_sweep."""
    return extract_mode_sweep(n_modes, [geometry], material, emitter)[0]


def rate_spectrum_lsp(n: int, grid, geometry: Geometry,
                      material: MaterialModel) -> np.ndarray:
    """Normalized decay rate into LSP_n, gamma_n(w0)/gamma0 = (6 pi/k_b) Im G_n.

    This is the per-mode golden-rule rate scanned over the emission frequency;
    for leaky modes it goes negative past the Fano dip (the free-space '1' of
    the total rate keeps the sum positive).
    """
    grid = np.asarray(grid, dtype=float)
    kb = geometry.n_b * grid / HBAR_C_EV_NM
    term = green_rr_terms(grid, geometry, material, n)[..., n - 1]
    return 6 * math.pi / kb * term.imag


def _free_space_rates(omega, n, geometry, emitter):
    """gamma0(w) and its LSP_n multipole share gamma0n_rad(w), at one
    frequency or element-wise over a grid array."""
    g0_rad = radiative_rate(omega, emitter.d_eg, geometry.n_b)
    fractions = radial_mode_fractions(
        n, geometry.n_b * omega / HBAR_C_EV_NM * geometry.r_d)[..., n - 1]
    return g0_rad / emitter.eta, g0_rad * fractions


def _fano_profile(grid, g0, g0n, omega_n, gamma_rad, g_signed, gamma_nr):
    gamma_tot = gamma_rad + gamma_nr
    q_fac = omega_n / gamma_tot
    delta = (grid - omega_n) / omega_n
    num = 4 * g_signed**2 - g0n * gamma_rad \
        + 8 * g_signed * np.sqrt(g0n * gamma_rad) * q_fac * delta
    return num / (g0 * gamma_tot * (1 + 4 * q_fac**2 * delta**2))


def fano_rate_model(grid, n: int, geometry: Geometry, emitter: EmitterSpec,
                    omega_n: float, gamma_rad: float, g_signed: float,
                    gamma_nr: float = 0.0) -> np.ndarray:
    """Fano profile of gamma_n(w0)/gamma0 with frequency-dependent couplings.

    gamma0n_rad(w0) follows the free-space multipole decomposition at each
    grid point; the asymmetry orientation rides on the sign of g_signed.
    """
    grid = np.asarray(grid, dtype=float)
    g0, g0n = _free_space_rates(grid, n, geometry, emitter)
    return _fano_profile(grid, g0, g0n, omega_n, gamma_rad, g_signed, gamma_nr)


def fit_fano_rate(grid, values, n: int, geometry: Geometry, emitter: EmitterSpec,
                  frozen: ModeParams | None = None) -> ModeParams:
    """Fano fit of a normalized LSP_n rate spectrum.

    Lossless mode (frozen is None): fits {omega_n, Gamma_rad, g} with
    Gamma_nr pinned to zero.  Lossy mode: freezes {omega_n, Gamma_rad, g}
    from the lossless pre-fit and fits Gamma_nr alone.  Both signs of g are
    tried so the asymmetry orientation comes out of the data.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.size != values.size or grid.size < MIN_GRID_POINTS:
        raise InvalidArgumentError("rate spectrum needs a matching grid of >= 50 points")
    scale = float(np.max(np.abs(values)))
    if scale == 0:
        raise FitFailureError("rate spectrum is identically zero")
    g0, g0n = _free_space_rates(grid, n, geometry, emitter)

    if frozen is None:
        i_peak = int(np.argmax(np.abs(values)))
        w_guess = grid[i_peak]
        gamma_guess = max(_fwhm_estimate(grid, np.abs(values), i_peak), 0.02)
        g_guess = math.sqrt(abs(values[i_peak]) * g0[i_peak] * gamma_guess) / 2.0

        best = None
        for sign in (-1.0, 1.0):
            def residual(theta):
                wn, lg_rad, g = theta
                return (_fano_profile(grid, g0, g0n, wn, math.exp(lg_rad), g,
                                      0.0) - values) / scale
            try:
                res = levenberg_marquardt(
                    residual, [w_guess, math.log(gamma_guess), sign * g_guess])
            except FitFailureError:
                continue
            if best is None or res.cost < best.cost:
                best = res
        if best is None:
            raise FitFailureError("Fano fit failed from both sign branches")
        wn, gamma_rad, g_signed = best.params[0], math.exp(best.params[1]), best.params[2]
        gamma_nr = 0.0
        cost = best.cost
    else:
        if frozen.gamma_rad is None:
            raise InvalidArgumentError("frozen mode must carry gamma_rad")
        wn, gamma_rad = frozen.omega_n, frozen.gamma_rad
        g_signed = frozen.g * (1.0 if frozen.alpha is None or frozen.alpha >= 0
                               else -1.0)

        def residual(theta):
            return (_fano_profile(grid, g0, g0n, wn, gamma_rad, g_signed,
                                  math.exp(theta[0])) - values) / scale

        res = levenberg_marquardt(residual, [math.log(0.05)])
        gamma_nr = math.exp(res.params[0])
        cost = res.cost

    rms = math.sqrt(2.0 * cost / grid.size) * scale \
        / math.sqrt(float(np.mean(values**2)))
    _, g0n_res = _free_space_rates(wn, n, geometry, emitter)
    alpha = math.sqrt(g0n_res * gamma_rad) / g_signed
    return ModeParams(
        n=n,
        omega_n=wn,
        gamma_n=gamma_rad + gamma_nr,
        g=abs(g_signed),
        gamma_rad=gamma_rad,
        gamma_nr=gamma_nr,
        alpha=alpha,
        fit_residual=rms,
    )


def with_fano_split(mode: ModeParams, geometry: Geometry,
                    emitter: EmitterSpec) -> ModeParams:
    """Resolve gamma_rad/alpha of a Lorentzian-fitted mode from the quasi-static
    radiative width (small-particle route; the Fano fit is the leaky route).
    The mode's gamma_nr (None reads as 0) is the non-radiative share of gamma_n."""
    nr = mode.gamma_nr or 0.0
    gamma_rad = max(mode.gamma_n - nr, 0.0)
    _, g0n = _free_space_rates(mode.omega_n, mode.n, geometry, emitter)
    alpha = math.sqrt(g0n * gamma_rad) / mode.g if mode.g > 0 else 0.0
    return replace(mode, gamma_rad=gamma_rad, gamma_nr=nr, alpha=alpha)

