import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath_oracle as mp_ref
from plasmon_cqed import specfun
from plasmon_cqed.errors import (
    InvalidArgumentError,
    SingularityError,
    UnsupportedOrderError,
)
from plasmon_cqed.specfun import (
    log_double_factorial,
    riccati_ladders,
    spherical_jn_ladder,
    spherical_yn_ladder,
)
from plasmon_cqed.verify import wronskian


def jn(n, z):
    return complex(spherical_jn_ladder(n, z)[n])


def hn(n, z):
    return complex(spherical_jn_ladder(n, z)[n] + 1j * spherical_yn_ladder(n, z)[n])


def riccati(n, z):
    """(psi_n, psi'_n, zeta_n, zeta'_n) at one argument."""
    return tuple(complex(ladder[n]) for ladder in riccati_ladders(n, z))


class TestDoubleFactorial:
    def test_numpy_integer_orders_are_exact(self):
        assert log_double_factorial(np.int64(99)) == log_double_factorial(99)

    @pytest.mark.parametrize("order", [2.0, 2.5, "3", None])
    def test_rejects_non_integer_orders(self, order):
        with pytest.raises(InvalidArgumentError, match="integer"):
            log_double_factorial(order)

    def test_rejects_below_convention(self):
        with pytest.raises(InvalidArgumentError):
            log_double_factorial(-2)


class TestSphericalBessel:
    def test_closed_form_j0(self):
        assert jn(0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-12)

    def test_small_argument_limit(self):
        # z^n/(2n+1)!! leading behaviour
        val = jn(3, 1e-4)
        assert val.real == pytest.approx(9.52380951851852e-15, rel=1e-10)

    def test_complex_value_against_series(self):
        val = jn(5, 2.0 + 0.5j)
        assert val == pytest.approx(0.0012755268915548847 + 0.0028231928670882462j,
                                    rel=1e-10)

    def test_series_agreement_moderate_arguments(self):
        # a 50-digit reference, so cancellation at large |z| cannot
        # contaminate it
        for n, z in [(0, 3.0), (7, 10.0 - 1.0j), (15, 4.0 + 0.3j), (2, 40.0),
                     (20, 50.0), (3, 30.0 + 2.0j)]:
            with mpmath.workdps(50):
                ref = complex(mp_ref.jn(n, mpmath.mpc(z)))
            assert jn(n, z) == pytest.approx(ref, rel=1e-10)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            spherical_jn_ladder(specfun.N_ORDER_MAX + 1, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(InvalidArgumentError):
            spherical_jn_ladder(1, complex(float("nan"), 0.0))


class TestSphericalHankel:
    def test_closed_form_h0(self):
        # h_0(z) = -i e^{iz}/z
        val = hn(0, 1.0)
        ref = -1j * cmath.exp(1j) / 1.0
        assert val == pytest.approx(ref, rel=1e-12)

    def test_small_argument_divergence(self):
        # h_n ~ -i (2n-1)!!/z^(n+1)
        val = hn(2, 1e-3)
        assert val.imag == pytest.approx(-3e9, rel=1e-4)

    def test_complex_value(self):
        val = hn(4, 1.5 + 0.2j)
        assert val == pytest.approx(-9.001077646861498 - 12.706783717253671j,
                                    rel=1e-9)

    def test_origin_is_singular(self):
        with pytest.raises(SingularityError):
            hn(0, 0.0)


class TestRiccati:
    def test_frozen_bundle(self):
        psi, psi_prime, zeta, zeta_prime = riccati(2, 1.0 + 1.0j)
        assert psi == pytest.approx(-0.11326018829129904 + 0.15129130943231914j,
                                    rel=1e-9)
        assert psi_prime == pytest.approx(0.09494960180600476 + 0.3925993747599943j,
                                          rel=1e-9)
        assert zeta == pytest.approx(-1.3701980201720196 - 0.4317643510933044j,
                                     rel=1e-9)
        assert zeta_prime == pytest.approx(1.6585931437163026 - 1.502156537297461j,
                                           rel=1e-9)

    def test_small_argument_psi_prime(self):
        # psi'_n ~ (n+1) z^n/(2n+1)!!
        psi_prime = riccati(1, 1e-3)[1]
        assert psi_prime.real == pytest.approx(2e-3 / 3.0, rel=1e-4)

    def test_small_argument_zeta_prime(self):
        # zeta'_n ~ i n (2n-1)!! / z^(n+1)
        zeta_prime = riccati(2, 1e-3)[3]
        assert zeta_prime.imag == pytest.approx(6e9, rel=1e-4)

    def test_psi0_at_pi(self):
        assert abs(riccati(0, math.pi)[0]) < 1e-12


@given(
    r=st.floats(min_value=0.1, max_value=20.0),
    im=st.floats(min_value=-1.0, max_value=1.0),
    n=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_wronskian_identity(r, im, n):
    assert wronskian(n, complex(r, im)) == pytest.approx(1.0, rel=1e-8)


@given(
    r=st.floats(min_value=0.1, max_value=20.0),
    im=st.floats(min_value=-1.5, max_value=1.5),
    n=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_recurrence_closure(r, im, n):
    z = complex(r, im)
    j = spherical_jn_ladder(n + 1, z)
    lhs = j[n - 1] + j[n + 1]
    rhs = (2 * n + 1) / z * j[n]
    scale = max(abs(lhs), abs(rhs), abs(j[n]))
    assert abs(lhs - rhs) <= 1e-8 * max(scale, 1e-30)


@pytest.mark.parametrize("n", range(7))
def test_small_argument_limits(n):
    z = 1e-3
    lead = z**n / math.prod(range(2 * n + 1, 0, -2))
    assert jn(n, z).real == pytest.approx(lead, rel=1e-4)
    if n >= 1:
        h = hn(n, z)
        assert h.imag == pytest.approx(
            -math.prod(range(2 * n - 1, 0, -2)) / z ** (n + 1), rel=1e-4)


def test_per_element_bands_equal_ladder_slices():
    # one call, each element reading its own orders lo..lo+1, against the
    # public ladder of that element alone up to n_max = lo + 1: a small
    # Miller element, Miller elements rescaled many times at high order, a
    # metal-interior argument, orders that do not ascend, a tiny element
    # (3e-8j, orders 5..6), and z = 0 and 1e-60
    z = np.array([1e-4 + 1e-5j, 0.05 + 0.01j, 0.3, 2.0 + 0.5j, 0.12 + 1.3j,
                  25.0 + 3.0j, 0.05 + 0.01j, 7.0, 3e-8j, 0.0, 1e-60])
    lo = np.array([3, 150, 118, 0, 40, 12, 2, 60, 5, 0, 1])
    m, e = specfun._jn_band(z, lo, 2)
    assert np.all(np.isfinite(m)) and np.all(m[e != 0] != 0)
    j = specfun._values(m, e)
    with np.errstate(over="ignore", invalid="ignore"):
        y = specfun._values(*specfun._yn_band(z[:-2], lo[:-2], 2))
        for i, (zi, n) in enumerate(zip(z, lo)):
            np.testing.assert_array_equal(
                j[i], spherical_jn_ladder(n + 1, zi)[n:])
            if i < len(y):  # y_n is singular at z = 0
                np.testing.assert_array_equal(
                    y[i], spherical_yn_ladder(n + 1, zi)[n:])
    np.testing.assert_array_equal(j[-2], [1.0, 0.0])
    # element 1 passes the rescale limit below its band, after its rows are
    # stored: its mantissas stay in range and the exponents carry j_150(0.05)
    # ~ 1e-510, which underflows to 0 as a double
    assert np.all(j[1] == 0) and np.all(e[1] < -1600)


def test_small_arguments_against_mpmath():
    # |z| from 1e-300 to 3e-2 at three phases, through a ladder ending at n
    # and one ending at order 200: Miller recurrences that rescale at every
    # step near 1e-300 and at a few steps near 3e-2, and values that underflow
    orders = (0, 1, 2, 5, 13, 40, 100, 200)
    tiny = np.finfo(float).tiny
    with mpmath.workdps(30):
        for r in np.logspace(-300, math.log10(3e-2), 40):
            for phase in (0.0, 0.3, -1.2):
                z = r * cmath.exp(1j * phase)
                full = spherical_jn_ladder(orders[-1], z)
                zz = mpmath.mpc(z)
                for n in orders:
                    ref = complex(mp_ref.jn(n, zz))
                    for got in (spherical_jn_ladder(n, z)[n], full[n]):
                        if abs(ref) >= tiny:
                            assert abs(got - ref) <= 1e-12 * abs(ref), (z, n)
                        else:
                            assert abs(got) < 1e-280, (z, n)


@pytest.mark.parametrize("z, dtype", [
    (0.7, np.float64),
    ([0.3, 2.0, 25.0], np.float64),
    (1e-9, np.float64),  # a Miller recurrence that rescales
    (-1e-9, np.float64),
    (np.float32(1.5), np.float64),
    (2, np.float64),
    (0.7 + 0j, np.complex128),
    (np.array([1e-9, 2.0], dtype=complex), np.complex128),
    (2.0 + 0.5j, np.complex128),
])
def test_ladders_keep_the_argument_dtype(z, dtype):
    # real arguments run in float64, complex ones (even with zero imaginary
    # part) in complex128; zeta_n = z h_n^(1) is complex either way
    j, y = spherical_jn_ladder(5, z), spherical_yn_ladder(5, z)
    psi, psi_prime, zeta, zeta_prime = riccati_ladders(5, z)
    assert [f.dtype for f in (j, y, psi, psi_prime)] == [dtype] * 4
    assert zeta.dtype == zeta_prime.dtype == np.complex128
    # the same values as the complex evaluation
    w = np.asarray(z, dtype=complex)
    for got, ref in ((j, spherical_jn_ladder(5, w)),
                     (y, spherical_yn_ladder(5, w))):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def test_real_yn_against_mpmath():
    z = np.array([0.05, 0.3, 1.0, 2.5, 7.0, 25.0, 60.0])
    ladder = spherical_yn_ladder(30, z)
    assert ladder.dtype == np.float64
    with mpmath.workdps(40):
        for i, zi in enumerate(z):
            for n in (0, 1, 2, 5, 10, 20, 30):
                ref = float(mp_ref.yn(n, zi))
                assert abs(ladder[i, n] - ref) <= 1e-12 * abs(ref), (zi, n)


def test_band_orders_are_checked():
    with pytest.raises(UnsupportedOrderError):
        specfun._jn_band([1.0, 2.0], [10, specfun.N_ORDER_MAX], 2)
    with pytest.raises(InvalidArgumentError):
        specfun._yn_band([1.0, 2.0], [-1, 3], 2)


def test_yn_band_below_the_double_range():
    # |z| below about 1e-154, where y_1 overflows: the band starts from y_0's
    # split, and its exponents carry y_n ~ (2n-1)!!/z^(n+1) far past 1e308
    z = np.array([1e-160, 1e-200 * cmath.exp(0.3j), 1e-300])
    m, e = specfun._yn_band(z, 0, 41)
    with mpmath.workdps(40):
        for i, zi in enumerate(z):
            for n in (0, 1, 2, 5, 40):
                ref = mp_ref.yn(n, mpmath.mpc(zi))
                got = mpmath.mpc(m[i, n]) * mpmath.mpf(2) ** int(e[i, n])
                assert abs(got - ref) <= 1e-12 * abs(ref), (zi, n)
