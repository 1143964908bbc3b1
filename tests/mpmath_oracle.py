"""Spherical Bessel functions f_n(z) = sqrt(pi/(2z)) F_(n+1/2)(z) and the
Riccati derivatives z f_(n-1) - n f_n in mpmath, the reference for the
package's float ladders and Green terms; callers set mpmath.workdps."""

import mpmath


def jn(n, z):
    return mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.besselj(n + 0.5, z)


def yn(n, z):
    return mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.bessely(n + 0.5, z)


def hn(n, z):
    return jn(n, z) + 1j * yn(n, z)


def riccati_prime(f, n, z):
    """psi_n'(z) for f = jn, zeta_n'(z) for f = hn."""
    return z * f(n - 1, z) - n * f(n, z)
