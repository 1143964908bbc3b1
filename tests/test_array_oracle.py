"""The array ladders and the array Green primitive against the scalar oracle
in scalar_oracle.py, element by element, plus an mpmath spot check."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from plasmon_cqed.medium import Geometry, silver, wavenumbers
from plasmon_cqed.mie import green_rr_scattered, green_rr_terms
from plasmon_cqed.specfun import (
    riccati_ladders,
    spherical_jn_ladder,
    spherical_yn_ladder,
)

REL_TOL = 1e-12
# (radius nm, h nm, eps_b, n_max) whose Green evaluation takes each rule
BRANCH_CASES = {
    "series": (0.05, 1.0, 1.0, 10),
    "rescale": (2.0, 1.0, 1.0, 120),
    "fallback": (8.0, 20.0, 1.0, 80),
}


def assert_matches(values, reference):
    """Same overflow pattern, and every finite element within REL_TOL.

    Subnormal values carry fewer significant bits, so magnitudes below the
    smallest normal double are measured against that number instead.
    """
    values, reference = np.asarray(values), np.asarray(reference)
    finite = np.isfinite(reference)
    assert np.array_equal(np.isfinite(values), finite)
    err = np.abs(values[finite] - reference[finite])
    scale = np.maximum(np.abs(reference[finite]), np.finfo(float).tiny)
    assert np.all(err <= REL_TOL * scale), float(np.max(err / scale))


@pytest.mark.parametrize("branch", sorted(BRANCH_CASES))
def test_branch_case_reaches_its_rule(branch):
    radius, h, eps_b, n_max = BRANCH_CASES[branch]
    taken = set()
    with np.errstate(over="ignore", invalid="ignore"):
        oracle.green_terms(2.8, Geometry.from_surface_distance(radius, h, eps_b),
                           silver(), n_max, taken)
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
@_branch_example("fallback")
@settings(max_examples=60, deadline=None)
def test_array_paths_match_scalar_oracle(radius, h, eps_b, omegas, n_max):
    geometry = Geometry.from_surface_distance(radius, h, eps_b)
    material = silver()
    omega = np.array(omegas)
    wn = wavenumbers(geometry, material, omega)
    with np.errstate(over="ignore", invalid="ignore"):
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


def test_array_jn_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # series element, real and complex Miller elements, metal-interior values
    z = np.array([1e-3, 0.3, 2.0 + 0.5j, 7.0 - 0.4j, 0.12 + 1.3j, 0.4 + 2.5j,
                  25.0 + 3.0j])
    ladder = spherical_jn_ladder(30, z)
    with mpmath.workdps(40):
        for i, zi in enumerate(z):
            zz = mpmath.mpc(zi)
            for n in (0, 1, 2, 5, 10, 20, 30):
                ref = complex(mpmath.sqrt(mpmath.pi / (2 * zz))
                              * mpmath.besselj(n + 0.5, zz))
                assert abs(ladder[i, n] - ref) <= REL_TOL * abs(ref), (zi, n)


def test_ladder_shapes_follow_the_argument():
    assert spherical_jn_ladder(4, 1.5).shape == (5,)
    assert spherical_yn_ladder(4, [1.0, 2.0]).shape == (2, 5)
    psi, _, _, _ = riccati_ladders(3, np.ones((2, 3)))
    assert psi.shape == (2, 3, 4)
    assert green_rr_terms(np.linspace(2.5, 3.0, 7),
                          Geometry.from_surface_distance(8.0, 2.0),
                          silver(), 5).shape == (7, 5)
