"""The array ladders and the array Green primitive against the scalar oracle
in scalar_oracle.py, element by element, plus mpmath spot checks of the
j_n ladder and of high-order Green terms.  The distance sweep's rows are
checked bitwise against one-geometry calls, and the per-order terms of mode
windows against the sweep's columns."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from mpmath_oracle import hn, jn, riccati_prime
from plasmon_cqed.errors import InvalidArgumentError
from plasmon_cqed.medium import Geometry, silver, wavenumbers
from plasmon_cqed.mie import (
    _green_mode_terms,
    green_rr_scattered,
    green_rr_sweep,
    green_rr_terms,
)
from plasmon_cqed.specfun import (
    _jn_band,
    riccati_ladders,
    spherical_jn_ladder,
    spherical_yn_ladder,
)

REL_TOL = 1e-12
# (radius nm, h nm, eps_b, n_max) whose Green evaluation at 2.8 eV reaches
# each route: the oracle's power series, where the package's Miller
# recurrence meets it; a Miller recurrence of the package that rescales; and
# orders whose zeta_n(k_b R) lies beyond the double range, where the
# package's exponents carry the terms
BRANCH_CASES = {
    "series": (0.05, 1.0, 1.0, 10),
    "rescale": (2.0, 1.0, 1.0, 120),
    "beyond-range": (8.0, 20.0, 1.0, 120),
}
# (radius nm, h values nm, eps_b, n_max) past the first order whose
# zeta_n(k_b R) overflows the double range at 2.2, 2.8 and 3.4 eV
BEYOND_RANGE_SWEEP = (8.0, [1.0, 5.0, 2.0, 20.0], 1.0, 120)
# found by hypothesis: B_63 sits at the edge of the normal double range, where
# products of two small ladder values drop into the subnormal range
SUBNORMAL_EDGE = (6.464677658766367, 1.0, 1.994140625, [3.8767312363072803], 63)
# (radius nm, h nm, eps_b, omegas eV, n_max) with eps_m near eps_b and k_m R
# ~ 3e-3, where a power-series lead z^n/(2n+1)!! formed as exp(n log z -
# log (2n+1)!!) puts the oracle 1.2e-12 off the Green terms at n = 18
SERIES_LEAD = (0.1, 1.0, 2.0, [4.0], 18)


def assert_matches(values, reference):
    """Part by part, the same non-finite pattern as the oracle, with each
    infinite part equal to the oracle's (so a nan shows); and every finite
    element within REL_TOL.

    Subnormal values carry fewer significant bits, so magnitudes below the
    smallest normal double are measured against that number instead.
    """
    values, reference = np.asarray(values), np.asarray(reference)
    for got, ref in ((values.real, reference.real),
                     (values.imag, reference.imag)):
        beyond = ~np.isfinite(ref)
        assert np.array_equal(~np.isfinite(got), beyond)
        assert np.array_equal(got[beyond], ref[beyond], equal_nan=True)
    finite = np.isfinite(reference)
    err = np.abs(values[finite] - reference[finite])
    scale = np.maximum(np.abs(reference[finite]), np.finfo(float).tiny)
    assert np.all(err <= REL_TOL * scale), float(np.max(err / scale))


@pytest.mark.parametrize("branch", sorted(BRANCH_CASES))
def test_branch_case_reaches_its_rule(branch):
    radius, h, eps_b, n_max = BRANCH_CASES[branch]
    geometry = Geometry.from_surface_distance(radius, h, eps_b)
    taken = set()
    oracle.green_terms(2.8, geometry, silver(), n_max, taken)
    wn = wavenumbers(geometry, silver(), 2.8)
    arguments = (wn.kb * radius, wn.km * radius, wn.kb * geometry.r_d)
    if any(np.ndim(_jn_band(z, 0, n_max + 1)[1]) for z in arguments):
        taken.add("rescale")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(riccati_ladders(n_max, arguments[0])[2])):
            taken.add("beyond-range")
    assert branch in taken


def _branch_example(branch):
    radius, h, eps_b, n_max = BRANCH_CASES[branch]
    return example(radius=radius, h=h, eps_b=eps_b, omegas=[2.2, 2.8, 3.4],
                   n_max=n_max)


@given(
    radius=st.floats(min_value=-1.3, max_value=1.78).map(lambda e: 10.0**e),
    h=st.floats(min_value=0.3, max_value=30.0),
    eps_b=st.floats(min_value=1.0, max_value=3.0),
    omegas=st.lists(st.floats(min_value=1.0, max_value=4.0), min_size=1,
                    max_size=4),
    n_max=st.integers(min_value=1, max_value=150),
)
@_branch_example("series")
@_branch_example("rescale")
@_branch_example("beyond-range")
@example(radius=SUBNORMAL_EDGE[0], h=SUBNORMAL_EDGE[1], eps_b=SUBNORMAL_EDGE[2],
         omegas=SUBNORMAL_EDGE[3], n_max=SUBNORMAL_EDGE[4])
@example(radius=SERIES_LEAD[0], h=SERIES_LEAD[1], eps_b=SERIES_LEAD[2],
         omegas=SERIES_LEAD[3], n_max=SERIES_LEAD[4])
@settings(max_examples=60, deadline=None)
def test_array_paths_match_scalar_oracle(radius, h, eps_b, omegas, n_max):
    geometry = Geometry.from_surface_distance(radius, h, eps_b)
    material = silver()
    omega = np.array(omegas)
    wn = wavenumbers(geometry, material, omega)
    with np.errstate(over="ignore"):
        for z in (wn.kb * radius, wn.km * radius, wn.kb * geometry.r_d):
            j = spherical_jn_ladder(n_max, z)
            y = spherical_yn_ladder(n_max, z)
            ladders = riccati_ladders(n_max, z)
            for i, zi in enumerate(z):
                assert_matches(j[i], oracle.jn_ladder(n_max, zi))
                assert_matches(y[i], oracle.yn_ladder(n_max, zi))
                for got, ref in zip(ladders, oracle.riccati_ladders(n_max, zi)):
                    assert_matches(got[i], ref)
    terms = green_rr_terms(omega, geometry, material, n_max)
    for i, w in enumerate(omega):
        reference = oracle.green_terms(w, geometry, material, n_max)
        assert_matches(terms[i], reference)
        assert_matches(green_rr_scattered(w, geometry, material, n_max).per_mode,
                       reference)


@given(
    radius=st.floats(min_value=-1.3, max_value=1.78).map(lambda e: 10.0**e),
    hs=st.lists(st.floats(min_value=0.3, max_value=60.0), min_size=1,
                max_size=4),
    eps_b=st.floats(min_value=1.0, max_value=3.0),
    omegas=st.lists(st.floats(min_value=1.0, max_value=4.0), min_size=1,
                    max_size=3),
    n_max=st.integers(min_value=1, max_value=150),
)
@example(radius=BEYOND_RANGE_SWEEP[0], hs=BEYOND_RANGE_SWEEP[1],
         eps_b=BEYOND_RANGE_SWEEP[2], omegas=[2.2, 2.8, 3.4],
         n_max=BEYOND_RANGE_SWEEP[3])
# found by hypothesis: one frequency and one order make each row a single
# element, where numpy's complex product skips the fused multiply-add that
# larger arrays use
@example(radius=1.0, hs=[1.0, 1.5], eps_b=1.0, omegas=[1.0], n_max=1)
# single-element rows again: sphere factors broadcast from one dimension
# fewer than the Hankel factors make numpy round the product differently,
# and the rows at h = 1 and 20 nm miss their one-geometry calls by an ulp
@example(radius=8.0, hs=[1.0, 2.0, 5.0, 10.0, 20.0], eps_b=1.0, omegas=[3.0],
         n_max=1)
@example(radius=SERIES_LEAD[0], hs=[SERIES_LEAD[1]], eps_b=SERIES_LEAD[2],
         omegas=SERIES_LEAD[3], n_max=SERIES_LEAD[4])
@settings(max_examples=30, deadline=None)
def test_sweep_rows_match_one_geometry_calls(radius, hs, eps_b, omegas, n_max):
    geometries = [Geometry.from_surface_distance(radius, h, eps_b) for h in hs]
    material = silver()
    omega = np.array(omegas)
    sweep = green_rr_sweep(omega, geometries, material, n_max)
    assert sweep.shape == (len(hs), omega.size, n_max)
    for row, geometry in zip(sweep, geometries):
        assert np.array_equal(row, green_rr_terms(omega, geometry, material,
                                                  n_max))
        for i, w in enumerate(omega):
            assert_matches(row[i], oracle.green_terms(w, geometry, material,
                                                      n_max))


# (radius nm, h values nm, windows as (order, lo eV, hi eV)) for the
# per-order terms: the fit windows of the first modes at R = 8, 20 and 50 nm,
# a tiny sphere whose k_b R and k_m R lie in the oracle's power-series
# region (the package takes Miller there), and orders past the first whose
# zeta_n(k_b R) overflows the double range
MODE_CASES = {
    "r8": (8.0, [1.0, 2.0, 5.0, 10.0, 20.0], [(n, 2.5 + 0.02 * n, 3.4)
                                              for n in range(1, 26)]),
    "r20": (20.0, [2.0, 5.0, 10.0], [(n, 2.4, 3.3) for n in range(1, 11)]),
    "r50": (50.0, [5.0, 15.0, 30.0], [(1, 2.2, 3.1), (2, 2.6, 3.2),
                                      (3, 2.7, 3.3), (4, 2.8, 3.4)]),
    "series": (0.05, [1.0, 0.3], [(1, 2.5, 3.4), (3, 2.6, 3.4),
                                  (10, 2.9, 3.6)]),
    "beyond-range": (8.0, [20.0, 1.0], [(1, 2.2, 3.4), (100, 2.8, 3.5),
                                        (120, 2.8, 3.5)]),
}


@pytest.mark.parametrize("case", sorted(MODE_CASES))
def test_mode_terms_equal_sweep_columns(case):
    radius, hs, windows = MODE_CASES[case]
    geometries = [Geometry.from_surface_distance(radius, h) for h in hs]
    material = silver()
    ns = np.array([n for n, *_ in windows])
    grids = np.array([np.linspace(lo, hi, 61) for _, lo, hi in windows])
    terms = _green_mode_terms(grids, ns[:, None], geometries, material)
    assert terms.shape == (len(hs),) + grids.shape
    for m, n in enumerate(ns):
        np.testing.assert_array_equal(
            terms[:, m],
            green_rr_sweep(grids[m], geometries, material, n)[..., n - 1])
    wn = wavenumbers(geometries[0], material, grids)
    # the oracle's power-series region
    series = np.abs(wn.km * radius) ** 2 < 1e-6 * (2 * ns[:, None] + 3)
    assert np.any(series) == (case == "series")
    with np.errstate(over="ignore"):
        zeta = riccati_ladders(int(ns.max()), wn.kb * radius)[2]
    beyond = [not np.all(np.isfinite(zeta[m, :, n])) for m, n in enumerate(ns)]
    assert any(beyond) == (case == "beyond-range")
    assert np.all(np.isfinite(terms))


@pytest.mark.parametrize("other", [
    Geometry(radius=9.0, eps_b=1.0, r_d=12.0),
    Geometry(radius=8.0, eps_b=1.5, r_d=12.0),
])
def test_sweep_rejects_a_second_sphere_or_none(other):
    geometry = Geometry.from_surface_distance(8.0, 2.0)
    with pytest.raises(InvalidArgumentError, match="sharing R and eps_b"):
        green_rr_sweep(np.linspace(2.5, 3.0, 5), [geometry, other], silver(), 5)
    with pytest.raises(InvalidArgumentError, match="sharing R and eps_b"):
        green_rr_sweep(2.8, [], silver(), 5)


def test_array_jn_against_mpmath():
    # a small element (the oracle's power-series region), real and complex
    # Miller elements, metal-interior values
    z = np.array([1e-3, 0.3, 2.0 + 0.5j, 7.0 - 0.4j, 0.12 + 1.3j, 0.4 + 2.5j,
                  25.0 + 3.0j])
    ladder = spherical_jn_ladder(30, z)
    with mpmath.workdps(40):
        for i, zi in enumerate(z):
            zz = mpmath.mpc(zi)
            for n in (0, 1, 2, 5, 10, 20, 30):
                ref = complex(jn(n, zz))
                assert abs(ladder[i, n] - ref) <= REL_TOL * abs(ref), (zi, n)


def test_green_terms_against_mpmath():
    # orders near and beyond the point where B_n leaves the normal double
    # range, where a directly formed B_n loses bits or underflows to zero
    cases = [(SUBNORMAL_EDGE[:3], SUBNORMAL_EDGE[3][0], (31, 63)),
             ((4.17, 6.96, 1.14), 1.45, (45, 53, 91)),
             ((0.17, 23.5, 1.01), 1.19, (37, 45)),
             # eps_m near eps_b, k_m R in the oracle's power-series region
             (SERIES_LEAD[:3], SERIES_LEAD[3][0], (1, 10, SERIES_LEAD[4])),
             # zeta_n(k_b R) and h_n(k_b r_d) beyond the double range
             *[((r, h, 1.0), 2.6, (100, 150, 200)) for r, h in
               ((8.0, 1.0), (8.0, 20.0), (50.0, 5.0), (80.0, 1.0), (80.0, 20.0))]]
    material = silver()
    with mpmath.workdps(40):
        for (radius, h, eps_b), w, orders in cases:
            geometry = Geometry.from_surface_distance(radius, h, eps_b)
            terms = green_rr_terms(w, geometry, material, max(orders))
            wn = wavenumbers(geometry, material, w)
            kb, km = mpmath.mpc(complex(wn.kb)), mpmath.mpc(complex(wn.km))
            zb, zm, x = kb * radius, km * radius, kb * geometry.r_d
            for n in orders:
                b = (kb**2 * jn(n, zb) * riccati_prime(jn, n, zm)
                     - km**2 * jn(n, zm) * riccati_prime(jn, n, zb)) / (
                    km**2 * jn(n, zm) * riccati_prime(hn, n, zb)
                    - kb**2 * hn(n, zb) * riccati_prime(jn, n, zm))
                ref = complex(1j * kb / (4 * mpmath.pi) * n * (n + 1) * (2 * n + 1)
                              * b * (hn(n, x) / x) ** 2)
                assert abs(terms[n - 1] - ref) <= REL_TOL * abs(ref), (radius, n)


@pytest.mark.parametrize("h", [1.0, 20.0])
def test_terms_are_finite_at_every_radius(h):
    # every order up to 200, from R = 1e-300 nm to k_b R ~ 5
    for radius in np.logspace(-300, math.log10(300.0), 31):
        geometry = Geometry.from_surface_distance(radius, h)
        assert np.all(np.isfinite(green_rr_terms(
            np.array([2.0, 2.6, 3.4]), geometry, silver(), 200))), radius


def test_ladder_shapes_follow_the_argument():
    assert spherical_jn_ladder(4, 1.5).shape == (5,)
    assert spherical_yn_ladder(4, [1.0, 2.0]).shape == (2, 5)
    psi, _, _, _ = riccati_ladders(3, np.ones((2, 3)))
    assert psi.shape == (2, 3, 4)
    assert green_rr_terms(np.linspace(2.5, 3.0, 7),
                          Geometry.from_surface_distance(8.0, 2.0),
                          silver(), 5).shape == (7, 5)
