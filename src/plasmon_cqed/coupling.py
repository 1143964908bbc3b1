"""Emitter-LSP_n coupling spectra |kappa_wn|^2 and the per-mode parameter
extraction: Lorentzian fits for absorbing (small) particles, Fano rate fits
for leaky (large) ones.

A coupling table on one grid (kappa_spectra) takes every order from one
green_rr_terms call.  Fitting works per mode on the per-n terms of the
scattered Green function, so overlapping resonances never require
multi-peak deconvolution -- the modal decomposition separates them exactly.
Term n factorises as B_n(omega; R, eps_b, metal) times a Hankel factor of
k_b r_d, and each mode's fit window depends on the sphere alone, so a
distance sweep evaluates the terms of all its mode windows at once, each
window point at its own order (extract_mode_sweep over
mie._green_mode_table: one B_n build, one Hankel ladder pass per block of
distances), and then fits every (mode, distance) spectrum in one
fit_lorentzians batch, the one Lorentzian fit entry point.  The two steps
are separate (_green_table, _fit_table), so sweeps of fewer modes at a
subset of the distances read the first rows of one table and share its fit
batch, and the table holds at each distance only the windows its sweeps
read.  A sweep whose modes are all absorption-dominated (quasi-static
Gamma_rad <= gamma_p) fits 51-point windows, a leaky or lossless one
201-point windows (mode_windows).  The single-mode rate spectra read their
one order the same way, every distance around one sphere and both metals of
a two-stage Fano fit in one call (_rate_spectra).  The
Lorentzian |kappa|^2 = g^2 phi(omega; omega_n, Gamma_n) is linear in g^2, so
each fit projects g^2 out and iterates on (omega_n, log Gamma_n) alone
(variable projection: Golub & Pereyra, Inverse Problems 19, R1 (2003), with
the Jacobian of Kaufman, BIT 15, 49 (1975)).  The Fano fits run in the same
solver with analytic Jacobians, batched like the Lorentzian ones: one
fit_fano_rate call fits the rate spectra of every distance, both signs of g
as two rows each in the lossless stage.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import DIPOLE_SQ_OVER_EPS0, HBAR_C_EV_NM
from .errors import FitFailureError, InvalidArgumentError
from .fitting import least_squares
from .medium import EmitterSpec, Geometry, MaterialModel, radiative_rate
from .mie import (_green_mode_table, _green_terms, _radial_fractions,
                  green_rr_terms, qs_mode_params)
# unused here; perfbench/tests/test_bench_tracing.py asserts that the tracer
# swaps this binding, so it goes when that assertion does
from .mie import green_rr_scattered  # noqa: F401

MIN_GRID_POINTS = 50


def _clamp_leaky(ns, values):
    """Spectra values (F, P) clamped at zero, warning for each spectrum whose
    wings go negative; ns names the mode of each row.  Each warning points at
    the first caller outside this module, however deep the call."""
    # skip_file_prefixes of warnings.warn needs Python 3.12
    frame, level = sys._getframe(), 1
    here = frame.f_code.co_filename
    while frame.f_back is not None and frame.f_code.co_filename == here:
        frame, level = frame.f_back, level + 1
    peak = np.max(values, axis=-1, keepdims=True)
    for n in np.asarray(ns)[np.any(values < -1e-9 * np.maximum(peak, 1e-300),
                                   axis=-1)]:
        # per-mode Im G < 0 marks the leaky regime where the Lorentzian
        # mode picture breaks down; |kappa|^2 is clamped at zero there
        warnings.warn(
            f"LSP_{n} spectrum has negative wings (leaky mode); "
            "clamped to zero -- use the Fano rate fit for this regime",
            stacklevel=level,
        )
    return np.maximum(values, 0.0)


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


def kappa_spectra(n_modes: int, grid, geometry: Geometry,
                  material: MaterialModel, emitter: EmitterSpec) -> np.ndarray:
    """|kappa_wn|^2 = (k0^2 d^2/ pi eps0) Im G_n^rr(r_d, r_d) on the grid for
    n = 1..n_modes, shape (n_modes, grid.size): row n-1 holds mode n.

    Every order comes from one green_rr_terms call over the whole grid.
    Rows with negative wings (leaky modes) are clamped at zero, with one
    warning per mode.
    """
    grid = np.asarray(grid, dtype=float)
    terms = green_rr_terms(grid, geometry, material, n_modes)
    return _clamp_leaky(np.arange(1, n_modes + 1),
                        _kappa2(grid, terms.T, emitter))


def _kappa2(grid, term, emitter: EmitterSpec) -> np.ndarray:
    """|kappa_wn|^2 = (k0^2 d^2/ pi eps0) Im G_n from the Green term G_n on grid."""
    u = emitter.d_eg**2 * DIPOLE_SQ_OVER_EPS0
    k0 = grid / HBAR_C_EV_NM
    return k0**2 * u / math.pi * term.imag


def lorentzian_kappa2(grid, omega_n: float, gamma_n: float, g: float):
    """Modulus squared of the Lorentzian coupling profile."""
    grid = np.asarray(grid, dtype=float)
    return (gamma_n / (2 * math.pi)) * g**2 / ((grid - omega_n) ** 2 + gamma_n**2 / 4)


def _peak_guesses(grid, values):
    """Peak index and full width at half maximum of each row of values
    (F, P) on grid (F, P).  Each half-maximum crossing is interpolated
    linearly, a missing one falls back to the window edge, and the width is
    at least two grid steps."""
    rows = np.arange(values.shape[0])
    idx = np.arange(values.shape[1])
    peak = np.argmax(values, axis=-1)
    half = values[rows, peak, None] / 2.0
    at_or_below = values <= half
    left = at_or_below & (idx < peak[:, None])
    right = at_or_below & (idx > peak[:, None])
    # last point at or below half left of the peak, first one right of it
    i_lo = idx[-1] - np.argmax(left[:, ::-1], axis=-1)
    i_hi = np.argmax(right, axis=-1)
    j_lo = np.minimum(i_lo + 1, idx[-1])
    j_hi = np.maximum(i_hi - 1, 0)

    def crossing(i, j):
        x_i, v_i = grid[rows, i], values[rows, i]
        return x_i + (half[:, 0] - v_i) * (grid[rows, j] - x_i) \
            / (values[rows, j] - v_i)

    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(left.any(axis=-1), crossing(i_lo, j_lo), grid[:, 0])
        hi = np.where(right.any(axis=-1), crossing(i_hi, j_hi), grid[:, -1])
    return peak, np.maximum(hi - lo, 2.0 * (grid[:, 1] - grid[:, 0]))


def _lorentzian_model(grid, values):
    """fitting.least_squares model of Lorentzian fits with g^2 projected out:
    parameters (omega_n, log Gamma_n), data values (F, P) on grid (F, P).

    Returns the model and the map from parameters to the projected
    coefficients c = g^2 of the rows.
    """
    def profile(theta, rows):
        x = grid[rows] - theta[:, :1]
        gamma = np.exp(theta[:, 1:])
        den = x * x + gamma * gamma / 4.0
        phi = gamma / (2.0 * math.pi) / den
        dphi = np.stack((phi * 2.0 * x / den,
                         phi * (1.0 - gamma * gamma / (2.0 * den))), axis=1)
        phi2 = np.sum(phi * phi, axis=-1)
        coef = np.sum(phi * values[rows], axis=-1) / phi2
        return phi, dphi, phi2, coef

    def model(theta, rows):
        phi, dphi, phi2, coef = profile(theta, rows)
        res = coef[:, None] * phi - values[rows]
        # Kaufman: J = c (1 - phi phi^T / phi^T phi) dphi/dtheta
        proj = np.sum(phi[:, None, :] * dphi, axis=-1) / phi2[:, None]
        jac = coef[:, None, None] * (dphi - proj[:, :, None] * phi[:, None, :])
        return res, jac

    return model, lambda theta: profile(theta, np.arange(len(theta)))[3]


def fit_lorentzians(ns, grids, values) -> list:
    """Least-squares Lorentzian fits of single-peaked coupling spectra, all
    in one batch: row i of values (F, P) on row i of grids, mode ns[i].

    Entry i of the result is fit i's ModeParams, or the FitFailureError of a
    fit that failed, also of one whose omega_n lies outside its grid row (it
    never saw its resonance).  Residuals are normalized by each spectrum's
    peak, so the stopping rules are scale-free.  Each grid needs at least
    MIN_GRID_POINTS strictly ascending points, and ns, grids and values must
    match row for row; otherwise InvalidArgumentError is raised.
    """
    grids = np.asarray(grids, dtype=float)
    values = np.asarray(values, dtype=float)
    if grids.ndim != 2 or grids.shape[1] < MIN_GRID_POINTS:
        raise InvalidArgumentError(
            f"coupling grid needs >= {MIN_GRID_POINTS} points")
    if not np.all(np.diff(grids, axis=-1) > 0):
        raise InvalidArgumentError("coupling grid must be strictly ascending")
    if values.shape != grids.shape or len(ns) != len(grids):
        raise InvalidArgumentError("grid/values length mismatch")
    peak, fwhm = _peak_guesses(grids, values)
    scale = values[np.arange(len(values)), peak]
    fits = [FitFailureError("spectrum is identically zero", best_params=None)
            for _ in scale]
    live = np.flatnonzero(scale > 0)
    y = values[live] / scale[live, None]
    model, coefficients = _lorentzian_model(grids[live], y)
    theta, cost, errors = least_squares(
        model, np.column_stack((grids[live, peak[live]], np.log(fwhm[live]))))
    g = np.sqrt(coefficients(theta) * scale[live])
    rms = np.sqrt(2.0 * cost / values.shape[1]) * scale[live] \
        / np.sqrt(np.mean(values[live] ** 2, axis=-1))
    for i, k in enumerate(live):
        if errors[i] is None and not grids[k, 0] <= theta[i, 0] <= grids[k, -1]:
            errors[i] = FitFailureError(
                f"fitted omega_n = {theta[i, 0]:.6g} eV outside its window "
                f"{grids[k, 0]:.6g}-{grids[k, -1]:.6g} eV",
                best_params=theta[i].copy(), best_cost=cost[i])
        fits[k] = errors[i] if errors[i] is not None else ModeParams(
            n=int(ns[k]), omega_n=float(theta[i, 0]),
            gamma_n=float(np.exp(theta[i, 1])), g=float(g[i]),
            fit_residual=float(rms[i]))
    return fits


def mode_windows(n_modes: int, geometry: Geometry,
                 material: MaterialModel) -> np.ndarray:
    """Fit windows of LSP_1..LSP_n_modes, shape (n_modes, points): row n-1
    on mode n's quasi-static resonance estimate, +- 5 quasi-static widths
    (at least +- 5 meV).

    Where every mode is absorption-dominated (quasi-static Gamma_rad <=
    gamma_p, the small-particle regime of the one-pole picture) each window
    has MIN_GRID_POINTS + 1 = 51 points, a step of Gamma/5 with omega_n the
    middle point; otherwise (large spheres, lossless metals) 201.  A width
    that leaves the double range (spheres of about 1e10 nm and up) gives no
    finite window and raises InvalidArgumentError naming the mode.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        qs = [qs_mode_params(n, geometry, material)
              for n in range(1, n_modes + 1)]
        absorbing = all(m.gamma_rad <= material.gamma_p for m in qs)
        omega = np.array([m.omega_n for m in qs])
        half = 5.0 * np.maximum([m.gamma_n for m in qs], 1e-3)
        windows = np.linspace(np.maximum(0.05, omega - half), omega + half,
                              MIN_GRID_POINTS + 1 if absorbing else 201,
                              axis=-1)
    bad = np.flatnonzero(~np.all(np.isfinite(windows), axis=-1))
    if bad.size:
        m = qs[bad[0]]
        raise InvalidArgumentError(
            f"LSP_{m.n} quasi-static width Gamma_n = {m.gamma_n:g} eV at "
            f"R = {geometry.radius:g} nm gives no finite fit window")
    return windows


def _green_table(geometries, material: MaterialModel, sweeps):
    """Fit windows of the modes that sweeps read around one sphere, and the
    Green terms each distance's sweeps read: (windows (M, P), terms), M the
    largest n_modes of the sweeps (mode_windows) and terms[i] of shape
    (rows_i, P), the first rows_i windows at geometries[i], rows_i the
    largest n_modes among the sweeps that pick it (0 if none does).

    Sweeps are given as to _fit_table.  One mie._green_mode_table call builds
    the sphere's factor once over all windows and runs the Hankel ladders
    only where a sweep reads them.  The windows depend on the sphere alone,
    and each entry is bitwise what that geometry alone gives.
    """
    geometries = list(geometries)
    rows = [0] * len(geometries)
    for n_modes, picks, _ in sweeps:
        if n_modes < 1:
            raise InvalidArgumentError("n_modes must be >= 1")
        for i in picks:
            rows[i] = max(rows[i], n_modes)
    if not geometries:
        raise InvalidArgumentError("a mode sweep needs at least one geometry")
    windows = mode_windows(max(rows), geometries[0], material)
    return windows, _green_mode_table(windows, rows, geometries, material)


def _fit_table(windows, terms, geometries, sweeps) -> list:
    """Lorentzian fits of Green-table rows (_green_table) for several sweeps,
    all in one fit_lorentzians batch.  Each sweep is (n_modes, picks,
    emitter): the first n_modes windows at geometries[picks], coupled to
    that emitter.  A sweep that reads past a distance's table rows raises
    InvalidArgumentError.

    Entry s of the result holds sweep s's modes per distance, in picks
    order.  Every failed fit is collected and reported with its h and its
    own reason.
    """
    ns, hs, values, spans = [], [], [], []
    for n_modes, picks, emitter in sweeps:
        picks = list(picks)
        for i in picks:
            if len(terms[i]) < n_modes:
                raise InvalidArgumentError(
                    f"the Green table holds {len(terms[i])} modes at "
                    f"h={geometries[i].h:g} nm, not {n_modes}")
        spans.append((len(ns), len(picks), n_modes))
        # rows mode by mode, each mode's distances in order
        ns += [n for n in range(1, n_modes + 1) for _ in picks]
        hs += [geometries[i].h for i in picks] * n_modes
        values.append(_kappa2(windows[:n_modes],
                              np.array([terms[i][:n_modes] for i in picks]),
                              emitter).transpose(1, 0, 2).reshape(
                                  n_modes * len(picks), -1))
    fits = fit_lorentzians(ns, windows[np.subtract(ns, 1)],
                           _clamp_leaky(ns, np.concatenate(values)))
    failures = [(n, h, fit) for n, h, fit in zip(ns, hs, fits)
                if isinstance(fit, FitFailureError)]
    if failures:
        failed = ", ".join(f"LSP_{n} at h={h:g} nm ({exc})"
                           for n, h, exc in failures)
        raise FitFailureError(f"mode fits failed for {failed}",
                              best_params=[exc for *_, exc in failures])
    return [[fits[first + i:first + n_modes * count:count]
             for i in range(count)] for first, count, n_modes in spans]


def extract_mode_sweep(n_modes: int, geometries, material: MaterialModel,
                       emitter: EmitterSpec) -> list[list[ModeParams]]:
    """Lorentzian-fit the first n_modes coupling spectra at each emitter
    position around one sphere; entry i holds the modes at geometries[i].

    Each window is auto-centered on the quasi-static resonance estimate,
    which depends on the sphere alone (mode_windows, which also picks the
    sweep's one point count from its regime).  The sweep is the Green table
    of the sphere (_green_table: one mie._green_mode_table call, each window
    point at its own mode's order) fitted for the emitter (_fit_table: one
    fit_lorentzians batch).  Every failed fit is collected and reported with
    its h and its own reason.
    """
    geometries = list(geometries)
    sweeps = [(n_modes, range(len(geometries)), emitter)]
    [sweep] = _fit_table(*_green_table(geometries, material, sweeps),
                         geometries, sweeps)
    return sweep


def extract_modes(n_modes: int, geometry: Geometry, material: MaterialModel,
                  emitter: EmitterSpec) -> list[ModeParams]:
    """Lorentzian-fit the first n_modes coupling spectra at one emitter
    position: the one-geometry case of extract_mode_sweep."""
    return extract_mode_sweep(n_modes, [geometry], material, emitter)[0]


def rate_spectrum_lsp(n: int, grid, geometries,
                      material: MaterialModel) -> np.ndarray:
    """Normalized decay rate into LSP_n, gamma_n(w0)/gamma0 = (6 pi/k_b) Im G_n,
    for emitters at several positions around one sphere: shape
    (len(geometries), grid.size), row i at geometries[i].

    This is the per-mode golden-rule rate scanned over the emission frequency;
    for leaky modes it goes negative past the Fano dip (the free-space '1' of
    the total rate keeps the sum positive).  All rows come from one
    mie._green_terms call, reading order n alone, and each is bitwise what
    its geometry alone gives; _rate_spectra is the same for several metals.
    """
    return _rate_spectra(n, grid, geometries, [material])[0]


def _rate_spectra(n: int, grid, geometries, materials) -> np.ndarray:
    """rate_spectrum_lsp for several metals of one sphere: shape
    (len(materials), len(geometries), grid.size).  The metals share the k_b R
    and k_b r_d ladders (mie._green_terms), and each metal's rows are
    bitwise its rate_spectrum_lsp call."""
    grid = np.asarray(grid, dtype=float)
    geometries = list(geometries)
    kb = geometries[0].n_b * grid / HBAR_C_EV_NM
    return 6 * math.pi / kb * _green_terms(grid, n - 1, 2, geometries,
                                           materials)[..., 0].imag


def _free_space_rates(omega, n, geometry, emitter):
    """gamma0(w) and its LSP_n multipole share gamma0n_rad(w), at one
    frequency or element-wise over a grid array."""
    g0_rad = radiative_rate(omega, emitter.d_eg, geometry.n_b)
    fractions = _radial_fractions(
        geometry.n_b * omega / HBAR_C_EV_NM * geometry.r_d, n - 1, 2)[..., 0]
    return g0_rad / emitter.eta, g0_rad * fractions


def _free_space_rows(grid, n, geometries, emitter):
    """_free_space_rates on the grid at each geometry: (gamma0, gamma0n_rad),
    each of shape (len(geometries), grid.size), the multipole shares of all
    rows from one ladder call; each row is bitwise its _free_space_rates."""
    g0_rad = np.array([radiative_rate(grid, emitter.d_eg, geometry.n_b)
                       for geometry in geometries])
    fractions = _radial_fractions(np.array(
        [geometry.n_b * grid / HBAR_C_EV_NM * geometry.r_d
         for geometry in geometries]), n - 1, 2)[..., 0]
    return g0_rad / emitter.eta, g0_rad * fractions


def _fano_terms(grid, g0, g0n, omega_n, gamma_rad, g_signed, gamma_nr):
    """Fano profile f of gamma_n(w0)/gamma0 and its partial derivatives
    (df/d omega_n, df/d Gamma_rad, df/d g, df/d Gamma_nr).

    With x = q delta = (w0 - omega_n)/Gamma_tot and a = sqrt(gamma0n Gamma_rad),
    f = (4 g^2 - gamma0n Gamma_rad + 8 g a x) / (gamma0 Gamma_tot (1 + 4 x^2)).
    """
    gamma_tot = gamma_rad + gamma_nr
    x = (grid - omega_n) / gamma_tot
    a = np.sqrt(g0n * gamma_rad)
    ax = a * x
    e = 1.0 + 4.0 * x * x
    rden = 1.0 / (g0 * gamma_tot * e)
    f = (4.0 * g_signed * g_signed + 8.0 * g_signed * ax - g0n * gamma_rad) * rden
    df_dx = 8.0 * g_signed * a * rden - 8.0 * x * f / e
    df_dnr = (x * df_dx + f) / -gamma_tot
    return f, (df_dx / -gamma_tot,
               df_dnr + (4.0 * g_signed / gamma_rad * ax - g0n) * rden,
               8.0 * (g_signed + ax) * rden,
               df_dnr)


def _fano_alpha(n, omega_n, gamma_rad, g, geometry, emitter) -> float:
    """Fano asymmetry alpha = sqrt(gamma0n_rad(omega_n) Gamma_rad)/g of LSP_n,
    signed like g; zero coupling gives alpha = 0."""
    _, g0n = _free_space_rates(omega_n, n, geometry, emitter)
    return math.sqrt(g0n * gamma_rad) / g if g != 0 else 0.0


def _fano_alphas(n, fits, geometries, emitter) -> list:
    """_fano_alpha of several rows, fits[i] = (omega_n, Gamma_rad, signed g)
    at geometries[i], the multipole shares of all rows from one ladder call;
    each is bitwise its _fano_alpha (the free-space rate stays a Python
    float: numpy's array power rounds omega^3 differently)."""
    fractions = _radial_fractions(np.array(
        [geometry.n_b * wn / HBAR_C_EV_NM * geometry.r_d
         for (wn, _, _), geometry in zip(fits, geometries)]), n - 1, 2)[..., 0]
    return [math.sqrt(radiative_rate(wn, emitter.d_eg, geometry.n_b) * share
                      * gamma_rad) / g if g != 0 else 0.0
            for (wn, gamma_rad, g), geometry, share
            in zip(fits, geometries, fractions.tolist())]


def fano_rate_model(grid, n: int, geometry: Geometry, emitter: EmitterSpec,
                    omega_n: float, gamma_rad: float, g_signed: float,
                    gamma_nr: float = 0.0) -> np.ndarray:
    """Fano profile of gamma_n(w0)/gamma0 with frequency-dependent couplings.

    gamma0n_rad(w0) follows the free-space multipole decomposition at each
    grid point; the asymmetry orientation rides on the sign of g_signed.
    """
    grid = np.asarray(grid, dtype=float)
    g0, g0n = _free_space_rates(grid, n, geometry, emitter)
    return _fano_terms(grid, g0, g0n, omega_n, gamma_rad, g_signed, gamma_nr)[0]


def fit_fano_rate(grid, values, n: int, geometries, emitter: EmitterSpec,
                  frozen=None) -> list[ModeParams]:
    """Fano fits of normalized LSP_n rate spectra, all in one batch: row i
    of values (F, P) on the grid (P,), for an emitter at geometries[i].

    Lossless mode (frozen is None): fits {omega_n, Gamma_rad, g} with
    Gamma_nr pinned to zero.  Both signs of g are tried, as two rows of the
    batch, so the asymmetry orientation comes out of the data; an omega_n
    outside the grid is a failure, as the grid never saw the resonance.
    Lossy mode: frozen[i] is row i's lossless fit, whose {omega_n,
    Gamma_rad, g} stay frozen while Gamma_nr alone is fitted, so its alpha
    carries over; a frozen mode without gamma_rad or alpha raises
    InvalidArgumentError.

    Returns one ModeParams per row.  A failed row raises FitFailureError
    naming LSP_n and h, for the first failing row in the caller's order.
    """
    grid = np.asarray(grid, dtype=float)
    return _fano_fits(grid, values, n, geometries, emitter,
                      _free_space_rows(grid, n, geometries, emitter), frozen)


def _fano_fits(grid, values, n, geometries, emitter, rates, frozen=None):
    """fit_fano_rate with the free-space rates (gamma0, gamma0n_rad) of each
    row given (_free_space_rows), so a two-stage fit and its fitted curves
    compute them once, for all distances in one ladder call.

    Rows step in lockstep but do not interact (fitting.least_squares), so
    each row's fit is bitwise its one-row fit.  The lossless stage takes the
    alphas of all rows from one ladder call (_fano_alphas); the lossy stage
    copies each frozen alpha, which is bitwise what its frozen {omega_n,
    Gamma_rad, signed g} give.
    """
    values = np.asarray(values, dtype=float)
    geometries = list(geometries)
    if grid.ndim != 1 or values.ndim != 2 or values.shape[1] != grid.size \
            or grid.size < MIN_GRID_POINTS:
        raise InvalidArgumentError(
            f"rate spectrum needs a matching grid of >= {MIN_GRID_POINTS} points")
    if not geometries or len(geometries) != len(values) \
            or (frozen is not None and len(frozen) != len(values)):
        raise InvalidArgumentError(
            "a Fano fit needs one or more rate spectra, each with its "
            "geometry (and frozen mode)")
    if frozen is not None and any(m.gamma_rad is None or m.alpha is None
                                  for m in frozen):
        raise InvalidArgumentError(
            "frozen mode must carry gamma_rad and alpha (a lossless Fano fit)")
    g0, g0n = rates
    scale = np.max(np.abs(values), axis=-1)
    live = np.flatnonzero(scale != 0)
    data = values / np.where(scale != 0, scale, 1.0)[:, None]
    # row -> (what went wrong, best iterate, its cost)
    failed = {int(i): ("failed: rate spectrum is identically zero", None, None)
              for i in np.flatnonzero(scale == 0)}
    fitted = {}

    if frozen is None:
        # two batch rows per live spectrum, g < 0 first
        row_of = np.repeat(live, 2)
        peak, width = _peak_guesses(
            np.broadcast_to(grid, (live.size, grid.size)), np.abs(values[live]))
        gamma_guess = np.maximum(width, 0.02)
        # g = g_unit * u keeps the fitted u, like omega_n and log Gamma_rad, O(1)
        g_unit = np.sqrt(np.abs(values[live, peak]) * g0[live, peak]
                         * gamma_guess) / 2.0
        unit = np.repeat(g_unit, 2)[:, None]

        def model(theta, rows):
            k, gamma_rad = row_of[rows], np.exp(theta[:, 1:2])
            f, (d_w, d_rad, d_g, _) = _fano_terms(
                grid, g0[k], g0n[k], theta[:, :1], gamma_rad,
                unit[rows] * theta[:, 2:], 0.0)
            return f / scale[k, None] - data[k], np.stack(
                (d_w, gamma_rad * d_rad, unit[rows] * d_g), axis=1) \
                / scale[k, None, None]

        theta, costs, branch_errors = least_squares(model, np.reshape(
            [[grid[p], math.log(w), sign]
             for p, w in zip(peak, gamma_guess) for sign in (-1.0, 1.0)],
            (-1, 3)))
        for j, i in enumerate(live.tolist()):
            converged = [r for r in (2 * j, 2 * j + 1)
                         if branch_errors[r] is None]
            if not converged:
                failed[i] = ("failed from both sign branches ("
                             + "; ".join(map(str, branch_errors[2 * j:2 * j + 2]))
                             + ")", None, None)
                continue
            best = min(converged, key=lambda r: costs[r])
            wn = float(theta[best, 0])
            if not grid[0] <= wn <= grid[-1]:
                failed[i] = (f"put omega_n = {wn:.6g} eV outside the grid "
                             f"{grid[0]:.6g}-{grid[-1]:.6g} eV",
                             theta[best].copy(), costs[best])
                continue
            fitted[i] = (wn, math.exp(theta[best, 1]),
                         float(g_unit[j]) * float(theta[best, 2]), 0.0,
                         costs[best])
    else:
        # the frozen (omega_n, Gamma_rad, signed g) of each row
        params = np.reshape([
            [m.omega_n, m.gamma_rad, m.g * (1.0 if m.alpha >= 0 else -1.0)]
            for m in frozen], (-1, 3))

        def model(theta, rows):
            k, gamma_nr = live[rows], np.exp(theta)
            f, (*_, d_nr) = _fano_terms(grid, g0[k], g0n[k], params[k, :1],
                                        params[k, 1:2], params[k, 2:],
                                        gamma_nr)
            return f / scale[k, None] - data[k], \
                (gamma_nr * d_nr)[:, None, :] / scale[k, None, None]

        theta, costs, refit_errors = least_squares(
            model, np.full((live.size, 1), math.log(0.05)))
        for j, i in enumerate(live.tolist()):
            error = refit_errors[j]
            if error is not None:
                failed[i] = (f"failed: {error}", error.best_params,
                             error.best_cost)
                continue
            fitted[i] = (frozen[i].omega_n, frozen[i].gamma_rad,
                         float(params[i, 2]), math.exp(theta[j, 0]), costs[j])

    if failed:
        i = min(failed)
        what, best_params, best_cost = failed[i]
        stage = "Fano fit" if frozen is None else "lossy Fano refit"
        raise FitFailureError(
            f"{stage} of LSP_{n} at h={geometries[i].h:g} nm {what}",
            best_params=best_params, best_cost=best_cost)
    # the lossy stage froze the lossless alpha's inputs, so it keeps alpha
    alphas = _fano_alphas(n, [fitted[i][:3] for i in range(len(geometries))],
                          geometries, emitter) if frozen is None \
        else [m.alpha for m in frozen]
    modes = []
    for i, alpha in enumerate(alphas):
        wn, gamma_rad, g_signed, gamma_nr, cost = fitted[i]
        rms = math.sqrt(2.0 * cost / grid.size) * float(scale[i]) \
            / math.sqrt(float(np.mean(values[i] ** 2)))
        modes.append(ModeParams(
            n=n, omega_n=wn, gamma_n=gamma_rad + gamma_nr, g=abs(g_signed),
            gamma_rad=gamma_rad, gamma_nr=gamma_nr, alpha=alpha,
            fit_residual=rms))
    return modes


def with_fano_split(mode: ModeParams, geometry: Geometry,
                    emitter: EmitterSpec) -> ModeParams:
    """Resolve gamma_rad/alpha of a Lorentzian-fitted mode (the Fano fit is
    the leaky route): gamma_rad = gamma_n - gamma_nr, with the mode's gamma_nr
    (None, as a Lorentzian fit leaves it, reads as 0), so a fitted mode
    comes out wholly radiative."""
    nr = mode.gamma_nr or 0.0
    gamma_rad = max(mode.gamma_n - nr, 0.0)
    return replace(mode, gamma_rad=gamma_rad, gamma_nr=nr,
                   alpha=_fano_alpha(mode.n, mode.omega_n, gamma_rad, mode.g,
                                     geometry, emitter))

