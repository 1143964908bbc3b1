"""Scalar reference implementation of the Bessel/Riccati ladders and the
per-mode scattered Green terms, one argument and one frequency at a time,
in mpmath at 53 bits: the rounding of doubles without their exponent
limits, so nothing overflows, underflows or needs rescaling.

Apart from small arguments this is the element-by-element form of the
package's recurrences: Miller downward from m = max(n_max, |z|) + 32,
normalised against j_0/j_1, and upward for y_n.  Below |z|^2 < 1e-6
(2 n_max + 3) j_n is the power series (verify.series_jn), an independent
route: the package takes its Miller recurrence there, and green_terms adds
"series" to its optional `branches` set.  B_n enters the Green terms as
zeta_n(k_b R) B_n, built from logarithmic derivatives, as in the package.
Values come back as doubles, zero or inf beyond their range; the array code
must reproduce them to rounding.  Ladders of recent arguments are cached,
as tests ask for the ladders and the Green terms at the same arguments.
"""

import functools

import mpmath
import numpy as np

from plasmon_cqed.constants import HBAR_C_EV_NM
from plasmon_cqed.medium import permittivity
from plasmon_cqed.verify import series_jn


def _doubles(values):
    return np.array([complex(v) for v in values])


def _mp(z):
    """z as an mpmath number; real arguments stay real, which is faster."""
    return mpmath.mpf(z) if np.isrealobj(z) else mpmath.mpc(complex(z))


def _series(n_max, z):
    return abs(z) ** 2 < 1e-6 * (2 * n_max + 3)


@functools.lru_cache(maxsize=64)
def _jn(n_max, z):
    if _series(n_max, z):
        return series_jn(n_max, z)
    m = max(n_max, int(abs(z))) + 32
    f = [0 * z] * (m + 2)
    f[m] = 0 * z + 1
    for k in range(m, 0, -1):
        f[k - 1] = (2 * k + 1) / z * f[k] - f[k + 1]
    j0, j1 = mpmath.sin(z) / z, mpmath.sin(z) / z**2 - mpmath.cos(z) / z
    scale = j0 / f[0] if abs(f[0]) >= abs(f[1]) else j1 / f[1]
    return [v * scale for v in f[: n_max + 1]]


@functools.lru_cache(maxsize=64)
def _yn(n_max, z):
    y = [-mpmath.cos(z) / z, -mpmath.cos(z) / z**2 - mpmath.sin(z) / z]
    for k in range(1, n_max):
        y.append((2 * k + 1) / z * y[k] - y[k - 1])
    return y[: n_max + 1]


def _hn(n_max, z):
    return [a + 1j * b for a, b in zip(_jn(n_max, z), _yn(n_max, z))]


def _pair(z, f, lower):
    """(z f_n, z f_{n-1} - n f_n) for the orders of f, with f_{-1} = lower."""
    return ([z * a for a in f],
            [z * a - n * b for n, (a, b) in enumerate(zip([lower] + f[:-1], f))])


def jn_ladder(n_max, z):
    """j_0(z)..j_nmax(z)."""
    with mpmath.workprec(53):
        return _doubles(_jn(n_max, _mp(z)))


def yn_ladder(n_max, z):
    """y_0(z)..y_nmax(z) by upward recurrence."""
    with mpmath.workprec(53):
        return _doubles(_yn(n_max, _mp(z)))


def riccati_ladders(n_max, z):
    """(psi, psi', zeta, zeta') for orders 0..n_max."""
    with mpmath.workprec(53):
        z = _mp(z)
        return tuple(map(_doubles, _pair(z, _jn(n_max, z), mpmath.cos(z) / z)
                         + _pair(z, _hn(n_max, z), mpmath.exp(1j * z) / z)))


def green_terms(omega, geometry, material, n_max, branches=None):
    """Per-mode G_S^rr(r_d, r_d) terms for n = 1..n_max at one frequency."""
    with mpmath.workprec(53):
        k0 = mpmath.mpf(omega) / HBAR_C_EV_NM
        kb = geometry.n_b * k0
        km = mpmath.sqrt(mpmath.mpc(complex(permittivity(material, omega)))) * k0
        km = -km if km.imag < 0 else km
        zb, zm, x = kb * geometry.radius, km * geometry.radius, kb * geometry.r_d
        if branches is not None and any(_series(n_max, z) for z in (zb, zm, x)):
            branches.add("series")
        psi_b, psip_b = _pair(zb, _jn(n_max, zb), mpmath.cos(zb) / zb)
        zeta_b, zetap_b = _pair(zb, _hn(n_max, zb), mpmath.exp(1j * zb) / zb)
        psi_m, psip_m = _pair(zm, _jn(n_max, zm), mpmath.cos(zm) / zm)
        h = _hn(n_max, x)
        terms = []
        for n in range(1, n_max + 1):
            d_m, g_b = psip_m[n] / psi_m[n], zetap_b[n] / zeta_b[n]
            zeta_b_n = (kb * d_m * psi_b[n] - km * psip_b[n]) / (km * g_b - kb * d_m)
            terms.append(1j * kb / (4 * mpmath.pi) * n * (n + 1) * (2 * n + 1)
                         * zeta_b_n * (h[n] / x) * (h[n] / (x * zeta_b[n])))
        return _doubles(terms)
