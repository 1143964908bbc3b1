"""Spherical Bessel/Hankel and Riccati-Bessel functions of real or complex
argument: j_n and y_n run in float64 for real arguments (k_b R, k_b r_d) and
in complex128 for complex ones (k_m R); h_n^(1) and zeta_n are complex.

Evaluation strategy: one recurrence over orders serves a whole array of
arguments, and each element reads out its own band of orders lo..lo+width-1
(lo per element), shape z.shape + (width,).  The public ladders read out
every order 0..n_max; a Green term of one multipole reads out only n-1 and n,
so the mode windows of a sweep, each at its own order, share one recurrence.

- j_n uses the Miller downward recurrence (Gautschi, SIAM Rev. 9, 24
  (1967)), started by each element at its own m = max(n, |z|) + 32, n the
  top of its band, and normalized against j_0 or j_1, whichever is farther
  from a zero; j_n(0) = delta_n0.
- y_n uses the plain upward recurrence, which is stable in that direction.

Both keep three rows in flight and store only the rows of each element's
band.  A value past 1e250 (less at tiny |z|, so that the next step's growth
stays below 1e300) is scaled by a power of two into range, and the shift is
added to the element's running exponent, which a stored row keeps (Amos, ACM
TOMS 12, 265 (1986)).  A band is therefore a mantissa and an exponent: the
scalar 0 where nothing was rescaled or underflowed, so the mantissas are
plain doubles, and otherwise an integer per value, with every mantissa's
modulus in [0.5, 1).  Power-of-two scaling changes no bit of a normal double,
so such a value does not depend on the element's neighbours, and the ladders
hold at every order for |z| down to 1e-300.

Orders are capped at N_ORDER_MAX = 2000, a bound on the cost of a call (one
recurrence step per order), not on accuracy; weak.fermi_rate needs 1,849
orders at R = 80 nm, h = 1 nm.  Since the Miller recurrence starts above |z|
too, the cap bounds the argument of j_n as well: |z| >= N_ORDER_MAX + 1
raises UnsupportedOrderError, as an order above the cap does.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import InvalidArgumentError, SingularityError, UnsupportedOrderError

N_ORDER_MAX = 2000

_RESCALE_LIMIT = 1e250
_HEADROOM = 1e300
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


def _ldexp(x, e):
    """x 2^e, each part scaled by np.ldexp: exact within the double range,
    where forming 2.0**e itself would overflow beyond |e| = 1023.  The two
    parts are set, not summed as re + 1j im, so that an infinite part does
    not turn its neighbour into nan."""
    if np.iscomplexobj(x):
        re, im = np.ldexp(x.real, e), np.ldexp(x.imag, e)
        out = np.empty(re.shape, dtype=x.dtype)
        out.real, out.imag = re, im
        return out
    return np.ldexp(x, e)


def _split(m, e=0):
    """m 2^e as (mantissa, exponent), each mantissa's modulus in [0.5, 1)."""
    _, k = np.frexp(np.abs(m))
    return _ldexp(m, -k), e + k


def _values(m, e):
    """A (mantissa, exponent) band as doubles, zero or inf beyond their
    range; the scalar exponent 0 marks plain doubles already."""
    return _ldexp(m, e) if np.ndim(e) else m


def _rescaling(top: int, smallest: float, log_start: float, orders):
    """(limit, steps): values past limit are rescaled, and no value of at
    most exp(log_start) can pass it in the first steps, which grow it by at
    most (2k+1)/|z| + 1 each, k in orders, |z| >= smallest.  The limit is
    1e250, or lower where one step at order top could carry it past 1e300."""
    limit = min(_RESCALE_LIMIT, _HEADROOM / ((2 * top + 1) / smallest + 1))
    growth = np.cumsum(np.log((2 * orders + 1) / smallest + 1))
    return limit, int(np.searchsorted(growth, math.log(limit) - log_start,
                                      side="right"))


def _rescale(x, other, limit, e):
    """Scale the elements of x past limit, and other's with them, by 2^-s
    into [0.5, 1), or below limit/2 if that is lower; add s to their running
    exponents e."""
    big = np.abs(x) > limit
    if np.any(big):
        s = np.frexp(np.abs(x[big]))[1] - min(0, np.frexp(limit)[1] - 1)
        x[big], other[big] = _ldexp(x[big], -s), _ldexp(other[big], -s)
        e[big] += s


def _miller_band(z: np.ndarray, lo: np.ndarray, width: int):
    """(mantissa, exponent) band of j_n, shape (width, points), at z != 0: a
    row's running exponent as stored, less the anchor's."""
    # each column starts at its own m = max(top of its band, |z|) + buffer;
    # the rows in flight stay exactly zero until the recurrence reaches it.
    # |z| is clipped above the cap before the cast, so that none wraps around
    size = np.abs(z)
    starts = np.maximum(lo + (width - 1), np.minimum(
        size, N_ORDER_MAX + 1).astype(int)) + _MILLER_BUFFER
    top = int(starts.max())
    if top > N_ORDER_MAX + _MILLER_BUFFER:
        raise UnsupportedOrderError(f"Bessel argument |z|={size.max():.4g} "
                                    f"exceeds the order cap {N_ORDER_MAX}")
    seeds = {int(m): starts == m for m in np.unique(starts)}
    # |f_{k-1}| <= ((2k+1)/|z| + 1) max_{j>=k} |f_j|: the rescale test waits
    # until that bound from the seed could pass the limit
    limit, skip = _rescaling(top, float(size.min()),
                             math.log(_MILLER_SEED), np.arange(top, 0, -1))
    rows = _band_rows(lo, width)
    out = np.zeros((width, z.size), dtype=z.dtype)
    stored = np.zeros(out.shape, dtype=int)  # e of each stored row
    above = np.zeros(z.size, dtype=z.dtype)  # f_{k+1}
    f = np.zeros(z.size, dtype=z.dtype)  # f_k
    f[seeds.pop(top)] = _MILLER_SEED
    e = np.zeros(z.size, dtype=int)  # f_k's true value is f_k 2^e
    for k in range(top, 0, -1):
        below = (2 * k + 1) / z * f - above
        if k - 1 in seeds:
            below[seeds[k - 1]] = _MILLER_SEED
        if k <= top - skip:  # stored rows keep their scale
            _rescale(below, f, limit, e)
        for row, run in rows.get(k - 1, ()):
            out[row, run], stored[row, run] = below[run], e[run]
        above, f = f, below
    sin, cos = np.sin(z), np.cos(z)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # j_1's closed form overflows at tiny |z|, where j_0 is the anchor
        j0, j1 = sin / z, sin / z**2 - cos / z
    # normalize against whichever anchor (f = f_0, above = f_1) is farther
    # from a zero
    first = np.abs(f) >= np.abs(above)
    anchor, value = np.where(first, f, above), np.where(first, j0, j1)
    if not e.any():
        band = out * (value / anchor)
        if np.all(np.abs(band) >= np.finfo(float).tiny):  # no underflow
            return band, 0
    anchor, shift = _split(anchor)
    return _split(out * (value / anchor), stored - e - shift)


def _jn_band(z, lo, width: int):
    """j_lo..j_{lo+width-1} at every element of z as (mantissa, exponent),
    the mantissa of shape z.shape + (width,); lo is one order or an order
    per element (broadcast against z)."""
    z, flat, lo = _band_arguments(z, lo, width)
    live = flat != 0
    if flat.size and np.all(live):
        band, e = _miller_band(flat, lo, width)
    else:  # j_n(0) = delta_n0
        band = (lo + np.arange(width)[:, None] == 0).astype(flat.dtype)
        e = np.zeros(band.shape, dtype=int)
        if np.any(live):
            band[:, live], e[:, live] = _miller_band(flat[live], lo[live], width)
    return _order_major(band, z.shape), \
        _order_major(e, z.shape) if np.ndim(e) else 0


def _yn_band(z, lo, width: int):
    """y_lo..y_{lo+width-1} by upward recurrence (stable for y) at every
    element of z as (mantissa, exponent), as _jn_band gives j_n: a row's
    running exponent as stored."""
    z, flat, lo = _band_arguments(z, lo, width)
    if np.any(z == 0):
        raise SingularityError("y_n singular at z=0")
    top = int(lo.max(initial=0)) + width - 1
    rows = _band_rows(lo, width)
    out = np.empty((width, flat.size), dtype=flat.dtype)
    stored = np.empty(out.shape, dtype=int)  # e of each stored row
    sin, cos = np.sin(flat), np.cos(flat)
    y = below = -cos / flat  # y_0
    e = np.zeros(flat.size, dtype=int)  # y_k's true value is y_k 2^e
    if top >= 1:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            y = -cos / flat**2 - sin / flat  # y_1
        tiny = ~np.isfinite(y)  # |z| below about 1e-154
        if np.any(tiny):  # y_0 split, and y_1 = (y_0 - sin z)/z beside it
            below[tiny], e[tiny] = _split(below[tiny])
            y[tiny] = (below[tiny] - _ldexp(sin[tiny], -e[tiny])) / flat[tiny]
    # |y_k| <= ((2k-1)/|z| + 1) max(|y_{k-1}|, |y_{k-2}|): the rescale test
    # waits until that bound from the larger start could pass the limit
    limit, skip = _rescaling(
        top, float(np.min(np.abs(flat), initial=np.inf)),
        math.log(max(np.max(np.abs(below), initial=1.0),
                     np.max(np.abs(y), initial=1.0))), np.arange(top))
    for k in range(top + 1):
        if k >= 2:  # y_k from y_{k-1} and y_{k-2}
            below, y = y, (2 * k - 1) / flat * y - below
        if k > skip:
            _rescale(y, below, limit, e)
        for row, run in rows.get(k, ()):
            out[row, run], stored[row, run] = (y if k else below)[run], e[run]
    band, e = _split(out, stored) if e.any() else (out, 0)
    return _order_major(band, z.shape), \
        _order_major(e, z.shape) if np.ndim(e) else 0


def spherical_jn_ladder(n_max: int, z) -> np.ndarray:
    """j_0(z)..j_nmax(z) at every element of z, shape z.shape + (n_max + 1,),
    float64 for real z and complex128 otherwise; zero where j_n lies below
    the double range."""
    _check_order(n_max)
    return _values(*_jn_band(z, 0, n_max + 1))


def spherical_yn_ladder(n_max: int, z) -> np.ndarray:
    """y_0(z)..y_nmax(z) by upward recurrence (stable for y), element-wise
    over z, shape z.shape + (n_max + 1,), float64 for real z and complex128
    otherwise; inf where y_n lies beyond the double range."""
    _check_order(n_max)
    return _values(*_yn_band(z, 0, n_max + 1))


def _riccati_band(z, band, orders):
    """(z f_n, z f_{n-1} - n f_n, exponent) at the orders n from a
    (mantissa, exponent) band of f_{n-1}, f_n, in the exponent of f_n, with
    z broadcast along the order axis."""
    (f, e), z = band, np.asarray(z)[..., None]
    lower, f = f[..., :-1], f[..., 1:]
    if np.ndim(e):
        lower, e = _ldexp(lower, e[..., :-1] - e[..., 1:]), e[..., 1:]
    return z * f, z * lower - orders * f, e


def _hankel(j, y):
    """h_n^(1) = j_n + i y_n from (mantissa, exponent) bands of j_n and y_n,
    both parts brought to the larger exponent."""
    (j, e_j), (y, e_y) = j, y
    if not (np.ndim(e_j) or np.ndim(e_y)):
        return j + 1j * y, 0
    e = np.maximum(e_j, e_y)
    return _ldexp(j, e_j - e) + 1j * _ldexp(y, e_y - e), e


def riccati_ladders(n_max: int, z):
    """(psi, psi', zeta, zeta') for orders 0..n_max at every element of z,
    each of shape z.shape + (n_max + 1,); psi and psi' are float64 for real
    z, zeta and zeta' always complex128.

    psi_n = z j_n, zeta_n = z h_n^(1); derivatives use
    psi'_n = z j_{n-1} - n j_n with j_{-1} = cos(z)/z (and h_{-1} = e^{iz}/z).
    Each is formed from the bands' mantissas before its exponent is applied,
    so it is finite wherever its own value is.  zeta_n is singular at z = 0,
    which raises SingularityError.
    """
    z = _check_arguments(z)
    _check_order(n_max)
    j = _jn_band(z, 0, n_max + 1)
    h = _hankel(j, _yn_band(z, 0, n_max + 1))
    out = ()
    for (f, e), f_minus1 in ((j, np.cos(z) / z), (h, np.exp(1j * z) / z)):
        e = np.pad(e, [(0, 0)] * z.ndim + [(1, 0)]) if np.ndim(e) else 0
        *pair, e = _riccati_band(z, (np.concatenate(
            (f_minus1[..., None], f), axis=-1), e), np.arange(n_max + 1))
        out += tuple(_values(v, e) for v in pair)
    return out
