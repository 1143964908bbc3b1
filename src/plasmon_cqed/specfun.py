"""Spherical Bessel/Hankel and Riccati-Bessel functions of real or complex
argument: j_n and y_n run in float64 for real arguments (k_b R, k_b r_d) and
in complex128 for complex ones (k_m R); h_n^(1) and zeta_n are complex.

Evaluation strategy: one recurrence over orders serves a whole array of
arguments, and each element reads out its own band of orders lo..lo+width-1
(lo per element), shape z.shape + (width,).  The public ladders read out
every order 0..n_max; a Green term of one multipole reads out only n-1 and n,
so the mode windows of a sweep, each at its own order, share one recurrence.
The rules are applied element by element, with n the top of the element's
band, so a recurrence value does not depend on the element's neighbours or
on the orders they read out:

- j_n uses the Miller downward recurrence (Gautschi, SIAM Rev. 9, 24
  (1967)).  Each element starts it at its own m = max(n, |z|) + 32, is
  rescaled by 1e-250 whenever it passes 1e250, and is normalized against
  j_0 or j_1, whichever is farther from a zero.  Where |z|^2 < eps (2 n + 3)
  the limiting form z^n/(2n+1)!! (DLMF 10.52.1) is j_n to rounding, and
  there it replaces the recurrence, which overflows below |z| ~ 1e-56;
  j_n(0) = delta_n0.
- y_n uses the plain upward recurrence, which is stable in that direction;
  it overflows to inf at tiny |z| and high order, and callers decide what
  that means.

Both recurrences keep three rows in flight and store only the rows of each
element's band; a rescale applies to the stored rows as well.

Orders are capped at N_ORDER_MAX = 200; the golden-rule Green sum of
weak.fermi_rate needs 176 at R = 12 nm, h = 1.5 nm (R/r_d = 8/9).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import InvalidArgumentError, SingularityError, UnsupportedOrderError

N_ORDER_MAX = 200

_RESCALE_LIMIT = 1e250
_RESCALE_FACTOR = 1e-250
_MILLER_BUFFER = 32
_MILLER_SEED = 1e-280


def _integer_order(n) -> int:
    """n as a Python int (numpy integers included); a non-integer order
    raises InvalidArgumentError."""
    try:
        return operator.index(n)
    except TypeError:
        raise InvalidArgumentError(f"order must be an integer, got {n!r}") from None


def log_double_factorial(n: int) -> float:
    """log(n!!), (-1)!! = 0!! = 1, overflow-safe for large-order prefactors."""
    n = _integer_order(n)
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
    z = np.asarray(z, dtype=complex if np.iscomplexobj(z) else float)
    finite = np.isfinite(z)
    if not np.all(finite):
        raise InvalidArgumentError(
            f"non-finite argument z={np.extract(~finite, z)[0]}")
    return z


def _order_major(ladder: np.ndarray, shape) -> np.ndarray:
    """(orders, points) working layout -> shape + (orders,) result layout."""
    return ladder.T.reshape(tuple(shape) + (ladder.shape[0],))


def _band_arguments(z, lo, width: int):
    """(z, z flattened, lo per flattened element) for a band evaluation,
    after the argument check and the order check of both band ends."""
    z = _check_arguments(z)
    lo = np.broadcast_to(lo, z.shape).reshape(-1)
    if lo.size:
        _check_order(int(lo.min()))
        _check_order(int(lo.max()) + width - 1)
    return z, z.reshape(-1), lo


def _band_rows(lo: np.ndarray, width: int) -> dict:
    """order m -> [(row, run)]: each run of consecutive elements sharing lo
    (a slice) whose band lo..lo+width-1 holds m, and the band row m fills.
    Orders that are constant along the last axis of a grid make one run per
    grid row."""
    if lo.size == 0:
        return {}
    bounds = [0, *(np.flatnonzero(np.diff(lo)) + 1).tolist(), lo.size]
    rows: dict = {}
    for a, b in zip(bounds, bounds[1:]):
        for r in range(width):
            rows.setdefault(int(lo[a]) + r, []).append((r, slice(a, b)))
    return rows


def _miller_band(z: np.ndarray, lo: np.ndarray, width: int) -> np.ndarray:
    # each column starts at its own m = max(top of its band, |z|) + buffer;
    # the rows in flight stay exactly zero until the recurrence reaches it
    starts = np.maximum(lo + (width - 1), np.abs(z).astype(int)) + _MILLER_BUFFER
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
    rows = _band_rows(lo, width)
    out = np.zeros((width, z.size), dtype=z.dtype)
    above = np.zeros(z.size, dtype=z.dtype)  # f_{k+1}
    f = np.zeros(z.size, dtype=z.dtype)  # f_k
    f[seeds.pop(top)] = _MILLER_SEED
    for k in range(top, 0, -1):
        below = (2 * k + 1) / z * f - above
        if k - 1 in seeds:
            below[seeds[k - 1]] = _MILLER_SEED
        if k <= first_test:
            big = np.abs(below) > _RESCALE_LIMIT
            if np.any(big):
                # every row from k-1 up: the two in flight and the
                # column's stored band rows
                below[big] *= _RESCALE_FACTOR
                f[big] *= _RESCALE_FACTOR
                out[:, big] *= _RESCALE_FACTOR
        for row, run in rows.get(k - 1, ()):
            out[row, run] = below[run]
        above, f = f, below
    sin, cos = np.sin(z), np.cos(z)
    j0 = sin / z
    j1 = sin / z**2 - cos / z
    # normalize against whichever anchor (f = f_0, above = f_1) is farther
    # from a zero
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(np.abs(f) >= np.abs(above), j0 / f, j1 / above)
    return out * scale


def _jn_band(z, lo, width: int) -> np.ndarray:
    """j_lo..j_{lo+width-1} at every element of z, shape z.shape + (width,);
    lo is one order or an order per element (broadcast against z).  Elements
    with |z|^2 < eps (2 hi + 3), hi the top of their band, take the limiting
    form z^n/(2n+1)!!, the others the Miller recurrence."""
    z, flat, lo = _band_arguments(z, lo, width)
    orders = lo + np.arange(width)[:, None]
    limit = np.abs(flat) ** 2 < np.finfo(float).eps * (2 * orders[-1] + 3)
    out = np.empty((width, flat.size), dtype=flat.dtype)
    if np.any(limit):
        # in complex log space (z < 0 too), so huge orders underflow to zero
        w, n = flat[limit], orders[:, limit]
        log_df = np.array([log_double_factorial(2 * m + 1)
                           for m in range(int(n.max()) + 1)])
        with np.errstate(divide="ignore", invalid="ignore"):
            lead = np.exp(n * np.log(w.astype(complex)) - log_df[n])
        out[:, limit] = np.where(w == 0, n == 0,
                                 lead if np.iscomplexobj(w) else lead.real)
    if not np.all(limit):
        out[:, ~limit] = _miller_band(flat[~limit], lo[~limit], width)
    return _order_major(out, z.shape)


def _yn_band(z, lo, width: int) -> np.ndarray:
    """y_lo..y_{lo+width-1} by upward recurrence (stable for y) at every
    element of z, shape z.shape + (width,); lo as in _jn_band."""
    z, flat, lo = _band_arguments(z, lo, width)
    if np.any(z == 0):
        raise SingularityError("y_n singular at z=0")
    top = int(lo.max(initial=0)) + width - 1
    rows = _band_rows(lo, width)
    out = np.empty((width, flat.size), dtype=flat.dtype)
    sin, cos = np.sin(flat), np.cos(flat)
    below = -cos / flat  # y_0
    y = -cos / flat**2 - sin / flat if top >= 1 else below  # y_1
    for k in range(top + 1):
        if k >= 2:  # y_k from y_{k-1} and y_{k-2}
            below, y = y, (2 * k - 1) / flat * y - below
        for row, run in rows.get(k, ()):
            out[row, run] = (y if k else below)[run]
    return _order_major(out, z.shape)


def spherical_jn_ladder(n_max: int, z) -> np.ndarray:
    """j_0(z)..j_nmax(z) at every element of z, shape z.shape + (n_max + 1,),
    float64 for real z and complex128 otherwise.

    Each element takes the limiting form or the Miller recurrence by its own
    |z|, exactly as a scalar evaluation would.
    """
    _check_order(n_max)
    return _jn_band(z, 0, n_max + 1)


def spherical_yn_ladder(n_max: int, z) -> np.ndarray:
    """y_0(z)..y_nmax(z) by upward recurrence (stable for y), element-wise
    over z, shape z.shape + (n_max + 1,), float64 for real z and complex128
    otherwise."""
    _check_order(n_max)
    return _yn_band(z, 0, n_max + 1)


def _riccati_pair(z, lower: np.ndarray, f: np.ndarray, orders):
    """(z f_n, z f_{n-1} - n f_n) from f_n and f_{n-1} at the orders n,
    with z broadcast along the order axis."""
    z = np.asarray(z)[..., None]
    return z * f, z * lower - orders * f


def riccati_ladders(n_max: int, z):
    """(psi, psi', zeta, zeta') for orders 0..n_max at every element of z,
    each of shape z.shape + (n_max + 1,); psi and psi' are float64 for real
    z, zeta and zeta' always complex128.

    psi_n = z j_n, zeta_n = z h_n^(1); derivatives use
    psi'_n = z j_{n-1} - n j_n with j_{-1} = cos(z)/z (and h_{-1} = e^{iz}/z).
    zeta_n is singular at z = 0, which raises SingularityError.
    """
    z = _check_arguments(z)
    j = spherical_jn_ladder(n_max, z)
    h = j + 1j * spherical_yn_ladder(n_max, z)
    orders = np.arange(n_max + 1)

    def lower(f, f_minus1):
        return np.concatenate((f_minus1[..., None], f[..., :-1]), axis=-1)

    return _riccati_pair(z, lower(j, np.cos(z) / z), j, orders) \
        + _riccati_pair(z, lower(h, np.exp(1j * z) / z), h, orders)
