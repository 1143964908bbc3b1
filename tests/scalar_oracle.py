"""Scalar reference implementation of the Bessel/Riccati ladders and the
per-mode scattered Green terms, one argument and one frequency at a time.

Apart from small arguments this is the element-by-element form of the rules
the package evaluates on whole arrays: the Miller downward recurrence started
at m = max(n_max, |z|) + 32 with rescaling past 1e250 and normalisation
against j_0/j_1, the upward y_n recurrence, and the closed-form quasi-static
term wherever the Hankel factors overflow.  Below |z|^2 < 1e-6 (2 n_max + 3)
the oracle sums the power series (verify.series_jn), an independent route:
the package takes its Miller recurrence there, or the limiting form
z^n/(2n+1)!! below |z|^2 < eps (2 n_max + 3).  B_n enters the Green terms
as zeta_n(k_b R) B_n, built from logarithmic derivatives, times h_n(x)/x and
h_n(x)/(x zeta_n(k_b R)), so no step passes through the subnormal range.  The array
code must reproduce it to rounding.

Each function accepts an optional `branches` set and adds to it the name of
every rule it took ("series", "rescale", "fallback"), so tests can show that
their inputs reach each one.
"""

import cmath
import math

import numpy as np

from plasmon_cqed.constants import HBAR_C_EV_NM
from plasmon_cqed.medium import permittivity
from plasmon_cqed.verify import series_jn

RESCALE_LIMIT = 1e250
MILLER_BUFFER = 32


def _note(branches, name):
    if branches is not None:
        branches.add(name)


def jn_ladder(n_max, z, branches=None):
    """j_0(z)..j_nmax(z)."""
    z = complex(z)
    if abs(z) ** 2 < 1e-6 * (2 * n_max + 3):
        _note(branches, "series")
        return np.array([series_jn(n, z) for n in range(n_max + 1)])
    m = max(n_max, int(abs(z))) + MILLER_BUFFER
    f = np.zeros(m + 2, dtype=complex)
    f[m] = 1e-280
    for k in range(m, 0, -1):
        f[k - 1] = (2 * k + 1) / z * f[k] - f[k + 1]
        if abs(f[k - 1]) > RESCALE_LIMIT:
            _note(branches, "rescale")
            f[k - 1:] *= 1e-250
    j0 = cmath.sin(z) / z
    j1 = cmath.sin(z) / z**2 - cmath.cos(z) / z
    if abs(f[0]) >= abs(f[1]):
        scale = j0 / f[0]
    else:
        scale = j1 / f[1]
    return f[: n_max + 1] * scale


def yn_ladder(n_max, z):
    """y_0(z)..y_nmax(z) by upward recurrence."""
    z = complex(z)
    y = np.zeros(n_max + 1, dtype=complex)
    y[0] = -cmath.cos(z) / z
    if n_max >= 1:
        y[1] = -cmath.cos(z) / z**2 - cmath.sin(z) / z
    for k in range(1, n_max):
        y[k + 1] = (2 * k + 1) / z * y[k] - y[k - 1]
    return y


def riccati_ladders(n_max, z, branches=None):
    """(psi, psi', zeta, zeta') for orders 0..n_max."""
    z = complex(z)
    j = jn_ladder(n_max, z, branches)
    y = yn_ladder(n_max, z)
    h = j + 1j * y
    orders = np.arange(n_max + 1)
    j_lower = np.concatenate(([cmath.cos(z) / z], j[:-1]))
    h_lower = np.concatenate(([cmath.exp(1j * z) / z], h[:-1]))
    return z * j, z * j_lower - orders * j, z * h, z * h_lower - orders * h


def green_terms(omega, geometry, material, n_max, branches=None):
    """Per-mode G_S^rr(r_d, r_d) terms for n = 1..n_max at one frequency."""
    eps_m = complex(permittivity(material, omega))
    k0 = omega / HBAR_C_EV_NM
    kb = geometry.n_b * k0
    km = cmath.sqrt(eps_m) * k0
    if km.imag < 0:
        km = -km
    zb = kb * geometry.radius
    zm = km * geometry.radius
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        psi_b, psip_b, zeta_b, zetap_b = (
            v[1:] for v in riccati_ladders(n_max, zb, branches))
        psi_m, psip_m, _, _ = (v[1:] for v in riccati_ladders(n_max, zm, branches))
        d_m = psip_m / psi_m
        g_b = zetap_b / zeta_b
        # zeta_n B_n: B_n itself underflows at high order
        zeta_b_n = (kb * d_m * psi_b - km * psip_b) / (km * g_b - kb * d_m)
        x = kb * geometry.r_d
        h = (jn_ladder(n_max, x, branches) + 1j * yn_ladder(n_max, x))[1:]
        orders = np.arange(1, n_max + 1, dtype=float)
        terms = (1j * kb / (4 * math.pi)) * orders * (orders + 1) \
            * (2 * orders + 1) * zeta_b_n * (h / x) * (h / (x * zeta_b))
    for idx in np.nonzero(~np.isfinite(terms))[0]:
        _note(branches, "fallback")
        n = int(idx) + 1
        pole = n * (eps_m - geometry.eps_b) / (n * eps_m + (n + 1) * geometry.eps_b)
        ratio = (geometry.radius / geometry.r_d) ** (2 * n + 1)
        terms[idx] = (n + 1) ** 2 * pole * ratio / (
            4 * math.pi * kb**2 * geometry.r_d**3)
    return terms
