"""Spherical Bessel/Hankel and Riccati-Bessel functions of complex argument.

Evaluation strategy: the ladders take a scalar or an array of arguments and
return every order 0..n_max for each element (shape z.shape + (n_max + 1,)),
so a whole frequency grid costs one recurrence over orders.  The rules are
applied element by element, so an element's value does not depend on its
neighbours:

- j_n uses the power series where |z|^2 < 1e-6*(2 n_max + 3), and the Miller
  downward recurrence elsewhere.  Each element starts the recurrence at its
  own m = max(n_max, |z|) + 32, is rescaled by 1e-250 whenever it passes
  1e250, and is normalized against j_0 or j_1, whichever is farther from a
  zero.
- y_n uses the plain upward recurrence, which is stable in that direction;
  it overflows to inf at tiny |z| and high order, and callers decide what
  that means.

Orders are capped at N_ORDER_MAX = 200, far beyond the <= 60 multipoles any
scenario here needs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, SingularityError, UnsupportedOrderError

N_ORDER_MAX = 200

_RESCALE_LIMIT = 1e250
_RESCALE_FACTOR = 1e-250
_MILLER_BUFFER = 32
_MILLER_SEED = 1e-280


def double_factorial(n: int) -> int:
    """n!! with the conventions (-1)!! = 0!! = 1, exact for any order."""
    if n < -1:
        raise InvalidArgumentError(f"double factorial undefined for n={n}")
    out = 1
    k = n
    while k > 1:
        out *= k
        k -= 2
    return out


def log_double_factorial(n: int) -> float:
    """log(n!!), overflow-safe companion used for large-order prefactors."""
    if n < -1:
        raise InvalidArgumentError(f"double factorial undefined for n={n}")
    out = 0.0
    k = n
    while k > 1:
        out += math.log(k)
        k -= 2
    return out


def _check_order(n: int) -> None:
    if n < 0:
        raise InvalidArgumentError(f"negative order n={n}")
    if n > N_ORDER_MAX:
        raise UnsupportedOrderError(f"order n={n} exceeds cap {N_ORDER_MAX}")


def _check_arguments(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    finite = np.isfinite(z)
    if not np.all(finite):
        raise InvalidArgumentError(
            f"non-finite argument z={np.extract(~finite, z)[0]}")
    return z


def _order_major(ladder: np.ndarray, shape) -> np.ndarray:
    """(orders, points) working layout -> shape + (orders,) result layout."""
    return ladder.T.reshape(tuple(shape) + (ladder.shape[0],))


def _series_ladder(n_max: int, z: np.ndarray) -> np.ndarray:
    # j_n(z) = z^n/(2n+1)!! * sum_k (-z^2/2)^k / (k! (2n+3)(2n+5)...(2n+2k+1))
    # leading factor built in log space, so huge orders underflow to zero
    orders = np.arange(n_max + 1)
    out = np.zeros((n_max + 1, z.size), dtype=complex)
    out[0, z == 0] = 1.0
    nonzero = z != 0
    w = z[nonzero]
    log_df = np.array([log_double_factorial(2 * n + 1) for n in orders])
    lead = np.exp(orders[:, None] * np.log(w) - log_df[:, None])
    step = -0.5 * w * w
    total = np.ones((n_max + 1, w.size), dtype=complex)
    term = np.ones_like(total)
    for k in range(1, 200):
        term *= step / (k * (2 * orders[:, None] + 2 * k + 1))
        total += term
        if np.all(np.abs(term) < 1e-17 * np.abs(total)):
            break
    out[:, nonzero] = lead * total
    return out


def _miller_ladder(n_max: int, z: np.ndarray) -> np.ndarray:
    # each column starts at its own m = max(n_max, |z|) + buffer; rows above
    # its start stay exactly zero until the recurrence reaches it
    starts = np.maximum(n_max, np.abs(z).astype(int)) + _MILLER_BUFFER
    top = int(starts.max())
    seeds = {int(m): starts == m for m in np.unique(starts)}
    # |f_{k-1}| <= ((2k+1)/|z| + 1) max_{j>=k} |f_j|, so no column can pass
    # the rescale limit before that product, taken from the top at the
    # smallest |z|, exceeds limit/seed; the test is skipped until then
    growth = np.cumsum(np.log((2 * np.arange(top, 0, -1) + 1)
                              / np.min(np.abs(z)) + 1))
    first_test = top - int(np.searchsorted(
        growth, math.log(_RESCALE_LIMIT) - math.log(_MILLER_SEED),
        side="right"))
    f = np.zeros((top + 2, z.size), dtype=complex)
    f[top, seeds.pop(top)] = _MILLER_SEED
    for k in range(top, 0, -1):
        f[k - 1] = (2 * k + 1) / z * f[k] - f[k + 1]
        if k - 1 in seeds:
            f[k - 1, seeds[k - 1]] = _MILLER_SEED
        if k <= first_test:
            big = np.abs(f[k - 1]) > _RESCALE_LIMIT
            if np.any(big):
                f[k - 1:, big] *= _RESCALE_FACTOR
    sin, cos = np.sin(z), np.cos(z)
    j0 = sin / z
    j1 = sin / z**2 - cos / z
    # normalize against whichever anchor is farther from a zero
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(np.abs(f[0]) >= np.abs(f[1]), j0 / f[0], j1 / f[1])
    return f[: n_max + 1] * scale


def spherical_jn_ladder(n_max: int, z) -> np.ndarray:
    """j_0(z)..j_nmax(z) at every element of z, shape z.shape + (n_max + 1,).

    Each element takes the power series or the Miller recurrence by its own
    |z|, exactly as a scalar evaluation would.
    """
    _check_order(n_max)
    z = _check_arguments(z)
    flat = z.reshape(-1)
    out = np.empty((n_max + 1, flat.size), dtype=complex)
    series = np.abs(flat) ** 2 < 1e-6 * (2 * n_max + 3)
    if np.any(series):
        out[:, series] = _series_ladder(n_max, flat[series])
    if not np.all(series):
        out[:, ~series] = _miller_ladder(n_max, flat[~series])
    return _order_major(out, z.shape)


def spherical_yn_ladder(n_max: int, z) -> np.ndarray:
    """y_0(z)..y_nmax(z) by upward recurrence (stable for y), element-wise
    over z, shape z.shape + (n_max + 1,)."""
    _check_order(n_max)
    z = _check_arguments(z)
    if np.any(z == 0):
        raise SingularityError("y_n singular at z=0")
    flat = z.reshape(-1)
    sin, cos = np.sin(flat), np.cos(flat)
    y = np.empty((n_max + 1, flat.size), dtype=complex)
    y[0] = -cos / flat
    if n_max >= 1:
        y[1] = -cos / flat**2 - sin / flat
    for k in range(1, n_max):
        y[k + 1] = (2 * k + 1) / flat * y[k] - y[k - 1]
    return _order_major(y, z.shape)


def _riccati_pair(f: np.ndarray, f_minus1: np.ndarray, z: np.ndarray):
    """(z f_n, z f_{n-1} - n f_n) over the orders of the ladder f, given
    f_{-1} at each element of z."""
    orders = np.arange(f.shape[-1])
    z = z[..., None]
    lower = np.concatenate((f_minus1[..., None], f[..., :-1]), axis=-1)
    return z * f, z * lower - orders * f


def riccati_psi(n_max: int, z):
    """(psi, psi') for orders 0..n_max at every element of z, each of shape
    z.shape + (n_max + 1,); the regular half of riccati_ladders, with no y_n
    ladder."""
    z = _check_arguments(z)
    return _riccati_pair(spherical_jn_ladder(n_max, z), np.cos(z) / z, z)


def riccati_ladders(n_max: int, z):
    """(psi, psi', zeta, zeta') for orders 0..n_max at every element of z,
    each of shape z.shape + (n_max + 1,).

    psi_n = z j_n, zeta_n = z h_n^(1); derivatives use
    psi'_n = z j_{n-1} - n j_n with j_{-1} = cos(z)/z (and h_{-1} = e^{iz}/z).
    zeta_n is singular at z = 0, which raises SingularityError.
    """
    z = _check_arguments(z)
    j = spherical_jn_ladder(n_max, z)
    h = j + 1j * spherical_yn_ladder(n_max, z)
    return _riccati_pair(j, np.cos(z) / z, z) \
        + _riccati_pair(h, np.exp(1j * z) / z, z)
