"""Exact Mie coefficients, radial-radial Green tensor components, and the
quasi-static closed forms (the dipole polarizability, resonances, radiative
widths, analytic coupling strengths).

Only the radial-radial component matters here: the emitter dipole is radially
oriented, so the M (TE) vector harmonics drop out and the scattered Green
function reduces to a single sum over the B_n coefficients.  Each term is
B_n(omega; R, eps_b, metal) times a Hankel factor of k_b r_d, so emitters at
several distances from one sphere share one B_n build (green_rr_sweep), and
metals of one sphere share its k_b R ladders and the Hankel factor
(_green_terms).  Terms are built from ladder bands (specfun): green_rr_sweep
reads every order 1..n_max at each frequency, and _green_mode_terms reads
one order per frequency, so the fit windows of several modes share one B_n
build without each paying for the highest order; _green_mode_table
evaluates the Hankel factor only at the windows each distance reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import DIPOLE_SQ_OVER_EPS0, HBAR_C_EV_NM
from .errors import InvalidArgumentError, NoResonanceError, SingularDenominatorError
from .medium import (
    Geometry,
    MaterialModel,
    permittivity,
    wavenumbers,
)
from .specfun import (
    _hankel,
    _integer_order,
    _jn_band,
    _riccati_band,
    _split,
    _values,
    _yn_band,
    log_double_factorial,
)

# read by perfbench's tracer; its test pins green_rr_scattered (ROADMAP item 1)
DEFAULT_N_MAX = 30
# points per Hankel ladder call of a distance sweep: a short grid takes every
# distance in one call, where numpy's per-step call overhead dominates; the
# mode windows of a sweep (about 1,000 points per distance: 20 absorbing
# modes of 51 points) take four distances per call, and those of a leaky
# sweep (201 points per mode) one at a time, so the ladder's working set, and
# the peak memory, stay bounded (the Green terms of 20 absorbing modes at 8
# distances peak at 1.2 MB of traced allocations this way, 1.8 MB with all
# distances in one call; at 201 points, 1.9 and 7.1 MB).  A Green table
# blocks the distances of each window count apart: the figure suite's
# R = 8 nm table takes its three 4-window distances (204 points each) in one
# call, its seven 20-window ones four and three per call and its 25-window
# one alone, 9,027 points in four calls
_HANKEL_BLOCK_POINTS = 4096


def _column(a) -> np.ndarray:
    """Per-point values shaped to broadcast against (..., orders) ladders."""
    return np.asarray(a)[..., None]


def _band_orders(lo, width: int) -> np.ndarray:
    """The orders lo+1..lo+width-1 that a ladder band lo..lo+width-1 serves
    (each with its lower neighbour), shaped lo.shape + (width - 1,)."""
    return np.asarray(lo)[..., None] + np.arange(1, width)


def _sphere_ladders(kb, kms, radius: float, lo, width: int):
    """The sphere's side of B_n = num / (zeta_n den) at each frequency of kb
    for the orders n = lo+1..lo+width-1 (lo per frequency or one for all),
    for one or more metals (their k_m, kms), each of shape (..., width - 1):
    zeta_n at k_b R, and per metal

        num = k_b D_n psi_n - k_m psi_n',   den = k_m G_n - k_b D_n,

    with psi_n, psi_n' at k_b R and the logarithmic derivatives
    D_n = psi_n'/psi_n at k_m R and G_n = zeta_n'/zeta_n at k_b R, so no
    product of two small ladder values is formed.  The k_b R ladders are
    built once for all metals, the k_m R ladder once per metal.  Returns
    (zeta_n, [(num, den) per metal]); zeta_n and num come as (mantissa,
    exponent) pairs, den as plain doubles."""
    orders = _band_orders(lo, width)
    z_b = kb * radius
    j_b = _jn_band(z_b, lo, width)
    psi_b, psip_b, e_psi = _riccati_band(z_b, j_b, orders)
    zeta_b, zetap_b, e_zeta = _riccati_band(
        z_b, _hankel(j_b, _yn_band(z_b, lo, width)), orders)
    g_b, kb = zetap_b / zeta_b, _column(kb)
    metals = []
    for km in kms:
        z_m = km * radius
        psi_m, psip_m, _ = _riccati_band(z_m, _jn_band(z_m, lo, width), orders)
        d_m, km = psip_m / psi_m, _column(km)
        metals.append(((kb * d_m * psi_b - km * psip_b, e_psi),
                       km * g_b - kb * d_m))
    return (zeta_b, e_zeta), metals


def mie_coefficients(n: int, omega: float, geometry: Geometry,
                     material: MaterialModel) -> complex:
    """Exact TM Mie coefficient B_n of the scattered-field expansion (the one
    a radial dipole excites), num / (zeta_n den) from _sphere_ladders."""
    if n < 1:
        raise InvalidArgumentError("Mie order starts at n=1")
    wn = wavenumbers(geometry, material, omega)
    (zeta, e_zeta), [((num, e_num), den)] = _sphere_ladders(
        wn.kb, [wn.km], geometry.radius, n - 1, 2)
    return complex(_values(num / (zeta * den), e_num - e_zeta)[0])


@dataclass(frozen=True)
class GreenExpansion:
    """Radial-radial scattered Green function, per-mode and accumulated (1/nm)."""

    per_mode: np.ndarray  # complex, index 0 <-> n=1
    total: complex


def _sphere_factors(omega, lo, width: int, geometries, materials):
    """What the Green terms of emitters around one sphere share at every
    frequency of omega, for the orders lo+1..lo+width-1 (lo per frequency
    or one for all): (k_b, lo broadcast against omega, the prefactor
    (i k_b/4pi) n(n+1)(2n+1), zeta_n(k_b R), [(num, den) per metal]), from
    one _sphere_ladders call.  The geometries must share R and eps_b."""
    geometries = list(geometries)
    if len({(g.radius, g.eps_b) for g in geometries}) != 1:
        raise InvalidArgumentError(
            "a distance sweep needs one or more geometries sharing R and eps_b")
    omega = np.asarray(omega, dtype=float)
    wns = [wavenumbers(geometries[0], material, omega) for material in materials]
    kb = wns[0].kb
    lo = np.broadcast_to(lo, omega.shape)
    orders = _band_orders(lo, width).astype(float)
    coef = (1j * _column(kb) / (4 * math.pi)) * orders * (orders + 1) \
        * (2 * orders + 1)
    return (kb, lo, coef) + _sphere_ladders(
        kb, [wn.km for wn in wns], geometries[0].radius, lo, width)


def _head(part, rows: int):
    """The first rows entries of a (mantissa, exponent) part."""
    m, e = part
    return m[:rows], e[:rows] if np.ndim(e) else e


def _distance_terms(factors, width: int, r_ds, rows=None) -> np.ndarray:
    """Green terms at the emitter radii r_ds from the sphere's factors
    (_sphere_factors), over the first rows entries of their frequency axis
    (all with rows=None): shape (metals, len(r_ds)) + that part of
    omega.shape + (width - 1,).

    The Hankel ladders at k_b r_d run over blocks of distances of at most
    _HANKEL_BLOCK_POINTS points, one distance at a time on larger grids, and
    serve every metal.
    """
    kb, lo, coef, zeta, metals = factors
    if rows is not None:
        kb, lo, coef, zeta = kb[:rows], lo[:rows], coef[:rows], \
            _head(zeta, rows)
        metals = [(_head(num, rows), den[:rows]) for num, den in metals]
    terms = np.empty((len(metals), len(r_ds)) + coef.shape, dtype=complex)
    step = max(1, _HANKEL_BLOCK_POINTS // max(kb.size, 1))
    for first in range(0, len(r_ds), step):
        block = slice(first, first + step)
        x = kb * np.array(r_ds[block]).reshape((-1,) + (1,) * kb.ndim)
        h, e_h = _hankel(_jn_band(x, lo, width), _yn_band(x, lo, width))
        parts = (zeta, (h[..., 1:], e_h[..., 1:] if np.ndim(e_h) else 0))
        # every metal's num carries the exponent of the k_b R ladder
        split = any(np.ndim(e) for _, e in parts + (metals[0][0],))
        if split:
            # mantissas of one size, so that no product leaves the range
            parts = tuple(_split(*part) for part in parts)
        (b, e_b), (h, e_h) = parts
        x = _column(x)
        h_x, h_xb = h / x, h / (x * b[None])
        for k, (num, den) in enumerate(metals):
            a, e_a = _split(*num) if split else num
            terms[k, block] = _values((coef * a / den)[None] * h_x * h_xb,
                                      e_a + 2 * e_h - e_b)
    return terms


def _green_terms(omega, lo, width: int, geometries, materials) -> np.ndarray:
    """Terms of orders n = lo+1..lo+width-1 of G_S^rr(r_d, r_d) at every
    frequency of omega (lo per frequency or one for all), for emitters at
    several r_d around one sphere of each metal of materials: shape
    (len(materials), len(geometries)) + omega.shape + (width - 1,).  The
    formula is that of green_rr_sweep.

    The sphere's factor is built once over all frequencies, its k_b R
    ladders once for all metals; the Hankel ladders at k_b r_d
    (_distance_terms) serve every metal.  Each metal's terms are bitwise
    what that metal alone gives: the products keep their one-metal shapes.
    """
    factors = _sphere_factors(omega, lo, width, geometries, materials)
    return _distance_terms(factors, width, [g.r_d for g in geometries])


def green_rr_sweep(omega, geometries, material: MaterialModel,
                   n_max: int) -> np.ndarray:
    """Per-multipole terms of G_S^rr(r_d, r_d) for emitters at several r_d
    around one sphere, at every frequency of omega.

    Term n is B_n(omega; R, eps_b, metal) times the distance factor
    (i k_b/4pi) n(n+1)(2n+1) [h_n(k_b r_d)/(k_b r_d)]^2, in 1/nm (Ruppin,
    J. Chem. Phys. 76, 1681 (1982)).  The geometries must share R and eps_b,
    so the sphere's factors are built once on the grid (one ladder pair at
    k_b R and k_m R) and the Hankel ladders run over the (distances, grid)
    array of k_b r_d.  The result has shape
    (len(geometries),) + omega.shape + (n_max,): row i belongs to
    geometries[i], column n-1 holds order n.  Every step is element-wise,
    with the sphere's factors given the distance axis as well (numpy rounds
    a complex product differently when a one-element operand is broadcast
    from fewer dimensions), so each row is bitwise what that geometry alone
    gives.

    At high order B_n is tiny and the Hankel factor huge, so B_n is never
    formed: zeta_n(k_b R) B_n (see mie_coefficients) is multiplied by
    h_n/(k_b r_d) and then by h_n/(k_b r_d zeta_n(k_b R)), and every
    intermediate stays near the size of the term itself instead of dropping
    into the subnormal range, where doubles lose significant bits.  Where a
    ladder carries exponents (specfun), the three factors are split into
    mantissas and exponents and the combined exponent is applied once, so
    every term is exact up to the order cap: on silver at 2.6 eV, where
    zeta_n(k_b R) leaves the double range from n = 107 (R = 8 nm) to
    n = 152 (R = 80 nm), the terms of orders 100-200 at R = 8, 50 and 80 nm
    and h = 1-20 nm are within 3.2e-14 of mpmath.
    """
    if n_max < 1:
        raise InvalidArgumentError("n_max must be >= 1")
    return _green_terms(omega, 0, n_max + 1, geometries, [material])[0]


def _green_mode_terms(omega, orders, geometries,
                      material: MaterialModel) -> np.ndarray:
    """Term n of G_S^rr(r_d, r_d) at every frequency of omega, each at its
    own order n (orders broadcast against omega, all >= 1), for emitters at
    several r_d around one sphere: shape (len(geometries),) + omega.shape.

    The ladders read out only n-1 and n, so the fit windows of several modes
    share one evaluation; each term is bitwise green_rr_sweep(omega,
    geometries, material, n)[..., n-1] at that point.  This dense table is
    the reference of _green_mode_table, which evaluates only the windows
    each distance reads.
    """
    return _green_terms(omega, np.asarray(orders) - 1, 2, geometries,
                        [material])[0, ..., 0]


def _green_mode_table(windows, rows, geometries,
                      material: MaterialModel) -> list:
    """The fit windows of LSP_1..LSP_M (windows (M, P), row k at order
    k + 1) read per distance: entry i holds the Green terms of the first
    rows[i] windows for the emitter at geometries[i], shape (rows[i], P).

    The sphere's factor is built once over all windows, and the Hankel
    ladders run only over the windows a distance reads, the distances of one
    row count together (_distance_terms), so a window no sweep reads there
    is never evaluated and has no entry to read.  Every entry is bitwise the
    _green_mode_terms(windows, orders, geometries, material) entry at that
    (mode, distance).
    """
    windows = np.asarray(windows, dtype=float)
    geometries = list(geometries)
    factors = _sphere_factors(windows, np.arange(len(windows))[:, None], 2,
                              geometries, [material])
    table = [windows[:0].astype(complex)] * len(geometries)
    for count in sorted(set(rows) - {0}):
        picks = [i for i, r in enumerate(rows) if r == count]
        terms = _distance_terms(factors, 2, [geometries[i].r_d for i in picks],
                                count)
        for i, term in zip(picks, terms[0, ..., 0]):
            table[i] = term
    return table


def green_rr_terms(omega, geometry: Geometry, material: MaterialModel,
                   n_max: int) -> np.ndarray:
    """Per-multipole terms of G_S^rr(r_d, r_d) at every frequency of omega,
    shape omega.shape + (n_max,): the one-geometry case of green_rr_sweep."""
    return green_rr_sweep(omega, [geometry], material, n_max)[0]


def green_rr_scattered(omega: float, geometry: Geometry, material: MaterialModel,
                       n_max: int = DEFAULT_N_MAX) -> GreenExpansion:
    """G_S^rr(r_d, r_d) = (i k_b/4pi) sum_n n(n+1)(2n+1) B_n [h_n(k_b r_d)/(k_b r_d)]^2
    at one scalar frequency.

    A thin wrapper: per_mode is the single row of green_rr_terms at omega.
    Spectra on a grid call green_rr_terms once per grid instead of this once
    per point.
    """
    terms = green_rr_terms(float(omega), geometry, material, n_max)
    return GreenExpansion(per_mode=terms, total=complex(np.sum(terms)))


def radial_mode_fractions(n_max: int, x) -> np.ndarray:
    """Fractions gamma0n_rad/gamma0_rad = (3/2) n(n+1)(2n+1) [j_n(x)/x]^2,
    element-wise over x, shape x.shape + (n_max,).

    Radial contraction of the free-space Green expansion; the n-sum equals 1
    for every x (free-space LDOS is position independent), which is the sum
    rule the decomposition is validated against.
    """
    return _radial_fractions(x, 0, n_max + 1)


def _radial_fractions(x, lo, width: int) -> np.ndarray:
    """radial_mode_fractions for the orders lo+1..lo+width-1 (lo per element
    of x or one for all), shape x.shape + (width - 1,)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise InvalidArgumentError("k_b r_d must be > 0")
    j = _values(*_jn_band(x, lo, width))[..., 1:]
    orders = _band_orders(lo, width).astype(float)
    return 1.5 * orders * (orders + 1) * (2 * orders + 1) \
        * np.abs(j / _column(x)) ** 2


def _radiative_prefactor(n: int, x):
    """(n+1) x^(2n+1) / (n (2n-1)!! (2n+1)!!), element-wise over x > 0, formed
    in log space so that nothing overflows up to the specfun order cap."""
    return np.exp(math.log((n + 1) / n) + (2 * n + 1) * np.log(x)
                  - log_double_factorial(2 * n - 1) - log_double_factorial(2 * n + 1))


def qs_polarizability(omega, geometry: Geometry, material: MaterialModel):
    """Quasi-static and radiation-corrected dipole polarizabilities (nm^3),
    element-wise over omega: alpha_qs = (eps_m - eps_b)/(eps_m + 2 eps_b) R^3
    and alpha_eff = alpha_qs/(1 - i (2/3) k_b^3 alpha_qs) (Bohren & Huffman
    1983).  A frequency on the pole |eps_m + 2 eps_b| < 1e-12 raises
    SingularDenominatorError."""
    eps_m = permittivity(material, omega)
    num, den = eps_m - geometry.eps_b, eps_m + 2 * geometry.eps_b
    on_pole = np.abs(den) < 1e-12
    if np.any(on_pole):
        raise SingularDenominatorError(
            f"dipolar quasi-static pole at omega={np.extract(on_pole, omega)[0]} eV "
            "(lossless on-resonance)")
    alpha_qs = num * geometry.radius**3 / den
    corr = _radiative_prefactor(1, geometry.n_b * omega / HBAR_C_EV_NM)
    alpha_eff = alpha_qs / (1.0 - 1j * corr * alpha_qs)
    return alpha_qs, alpha_eff


def qs_resonance_frequency(n: int, material: MaterialModel, eps_b: float) -> float:
    """Root of Re(n eps_m(w) + (n+1) eps_b) = 0 in (0.1, omega_p).

    This is the denominator-zero condition of the multipolar polarizability.
    For a Drude metal Re eps_m = eps_inf - omega_p^2/(w^2 + gamma^2), so
    w^2 = n omega_p^2/(n eps_inf + (n+1) eps_b) - gamma^2; for a lossless
    eps_inf=1 metal that is omega_p*sqrt(n/(2n+1)).
    """
    if material.kind != "drude":
        raise InvalidArgumentError("quasi-static closed forms assume a Drude metal")
    denom = n * material.eps_inf + (n + 1) * eps_b
    w_sq = n * material.omega_p**2 / denom - material.gamma_p**2 if denom > 0 else 0.0
    if not 0.1**2 < w_sq < material.omega_p**2:
        raise NoResonanceError(f"no quasi-static resonance for n={n} in (0.1, omega_p)")
    return math.sqrt(w_sq)


@dataclass(frozen=True)
class QuasiStaticMode:
    """Closed-form parameters of LSP_n, which depend on the sphere alone (eV).

    Near omega_n, alpha_n ~ -w~_n R^(2n+1) / (2(omega-omega_n) + i Gamma) with
    the residue scale omega_res = w~_n = (2n+1) eps_b omega_n^3/(n omega_p^2),
    which is omega_n itself for the eps_inf = 1, eps_b = 1 textbook metal.
    """

    n: int
    omega_n: float
    omega_res: float
    gamma_rad: float
    gamma_n: float


def qs_mode_params(n: int, geometry: Geometry,
                   material: MaterialModel) -> QuasiStaticMode:
    """Quasi-static resonance, residue scale and widths of LSP_n (Drude
    metal), finite for every order up to the specfun cap while gamma_rad
    stays in the double range; past it (from n = 22 at R = 1e10 nm) the
    radiative prefactor overflows and gamma_rad is inf."""
    n = _integer_order(n)
    omega_n = qs_resonance_frequency(n, material, geometry.eps_b)
    omega_res = (2 * n + 1) * geometry.eps_b * omega_n**3 / (n * material.omega_p**2)
    gamma_rad = omega_res * float(_radiative_prefactor(
        n, geometry.n_b * omega_n / HBAR_C_EV_NM * geometry.radius))
    return QuasiStaticMode(n=n, omega_n=omega_n, omega_res=omega_res,
                           gamma_rad=gamma_rad, gamma_n=material.gamma_p + gamma_rad)


def qs_coupling_strength(mode: QuasiStaticMode, geometry: Geometry,
                         d_eg: float) -> float:
    """Analytic near-field coupling of a radial dipole d_eg (Debye) to LSP_n.

    g_n = (d/2n_b) sqrt(w~_n / 2 pi hbar eps0) (n+1) (R/r_d)^(n+1/2) / r_d^(3/2),
    the Lorentzian-identification of the quasi-static coupling spectrum; the
    size ratio below one keeps it finite at every order.  Validated against
    the exact-Mie fit route (percent level for small R).
    """
    amp = math.sqrt(d_eg**2 * DIPOLE_SQ_OVER_EPS0 * mode.omega_res / (2.0 * math.pi))
    return amp / (2.0 * geometry.n_b) * (mode.n + 1) \
        * (geometry.radius / geometry.r_d) ** (mode.n + 0.5) / geometry.r_d ** 1.5


def green_rr_quasistatic(omega: float, geometry: Geometry,
                         material: MaterialModel) -> complex:
    """Dipolar resonance Green function built from the quasi-static LSP_1,
    g_1^2 L_1(omega) / (k0^2 d^2/eps0) with the Lorentzian L_1; d cancels, so
    g_1 is taken for a 1 D dipole."""
    k0 = omega / HBAR_C_EV_NM
    mode = qs_mode_params(1, geometry, material)
    dw = omega - mode.omega_n
    lor = (-dw + 1j * mode.gamma_n / 2.0) / (dw**2 + (mode.gamma_n / 2.0) ** 2)
    return qs_coupling_strength(mode, geometry, 1.0) ** 2 * lor \
        / (k0**2 * DIPOLE_SQ_OVER_EPS0)
