import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasmon_cqed.constants import HBAR_C_EV_NM, HBAR_EV_S
from plasmon_cqed.errors import InvalidArgumentError, TableRangeError
from plasmon_cqed.medium import (
    EmitterSpec,
    Geometry,
    MaterialModel,
    dipole_from_radiative_rate,
    permittivity,
    radiative_rate,
    silver,
    wavenumbers,
)


class TestPermittivity:
    def test_silver_drude_value(self, ag):
        # direct complex evaluation oracle
        eps = permittivity(ag, 2.94)
        assert eps == pytest.approx(-1.2181990680068626 + 0.12521365730215986j,
                                    rel=1e-12)

    def test_lossless_zero_crossing(self):
        metal = MaterialModel.drude(4.0, 6.0, 0.0)
        assert permittivity(metal, 6.0 / 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_tabulated_midpoint(self):
        mat = MaterialModel.tabulated([(2.0, -5.0, 0.3), (3.0, -1.0, 0.5)])
        assert permittivity(mat, 2.5) == pytest.approx(-3.0 + 0.4j, rel=1e-14)

    def test_no_extrapolation(self):
        mat = MaterialModel.tabulated([(2.0, -5.0, 0.3), (3.0, -1.0, 0.5)])
        with pytest.raises(TableRangeError):
            permittivity(mat, 3.5)

    def test_tabulated_grid_leaving_the_table(self):
        from plasmon_cqed.mie import green_rr_terms

        mat = MaterialModel.tabulated([(2.0, -5.0, 0.3), (3.0, -1.0, 0.5)])
        geo = Geometry.from_surface_distance(8.0, 2.0)
        inside = np.linspace(2.0, 3.0, 11)
        np.testing.assert_array_equal(permittivity(mat, inside),
                                      [permittivity(mat, w) for w in inside])
        leaving = np.linspace(2.5, 3.5, 11)
        with pytest.raises(TableRangeError):
            permittivity(mat, leaving)
        with pytest.raises(TableRangeError):
            green_rr_terms(leaving, geo, mat, 3)

    def test_array_omega_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            permittivity(silver(), np.array([2.0, 0.0, 3.0]))

    def test_array_matches_scalar_drude(self, ag):
        grid = np.linspace(0.5, 4.0, 50)
        np.testing.assert_allclose(permittivity(ag, grid),
                                   [permittivity(ag, w) for w in grid],
                                   rtol=1e-15)
        wn = wavenumbers(Geometry(radius=5.0, eps_b=2.0, r_d=10.0), ag, grid)
        assert wn.km.shape == grid.shape and np.all(wn.km.imag >= 0)

    def test_table_file_ingestion(self, tmp_path):
        path = tmp_path / "eps.dat"
        path.write_text("# hbar_omega  re  im\n2.0 -5.0 0.3\n3.0 -1.0 0.5\n")
        mat = MaterialModel.from_file(path)
        assert permittivity(mat, 2.5) == pytest.approx(-3.0 + 0.4j)

    def test_decreasing_grid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            MaterialModel.tabulated([(3.0, -1.0, 0.5), (2.0, -5.0, 0.3)])

    @given(w=st.floats(min_value=0.2, max_value=7.0))
    @settings(max_examples=50, deadline=None)
    def test_drude_causality(self, w):
        assert permittivity(silver(), w).imag > 0


class TestWavenumbers:
    def test_k0_definition(self):
        geo = Geometry(radius=5.0, eps_b=1.0, r_d=10.0)
        wn = wavenumbers(geo, silver(), 1.9732698040)
        assert wn.k0 == pytest.approx(0.01, rel=1e-9)

    def test_resonance_wavelength(self):
        geo = Geometry(radius=5.0, eps_b=1.0, r_d=10.0)
        wn = wavenumbers(geo, silver(), 2.60)
        assert 2 * math.pi / wn.k0 == pytest.approx(477.0, abs=0.5)

    def test_branch_choice(self):
        metal = MaterialModel.tabulated([(1.0, -4.0, 0.0), (3.0, -4.0, 0.0)])
        geo = Geometry(radius=5.0, eps_b=1.0, r_d=10.0)
        wn = wavenumbers(geo, metal, 2.0)
        assert wn.km == pytest.approx(2j * wn.k0, rel=1e-12)


class TestEmitter:
    def test_zero_dipole_zero_rate(self):
        assert radiative_rate(2.0, 0.0) == 0.0

    def test_reference_rate_670nm(self):
        # SI evaluation oracle of the free-space rate formula
        w0 = 2 * math.pi * HBAR_C_EV_NM / 670.0
        rate = radiative_rate(w0, 3.4) / HBAR_EV_S
        assert rate == pytest.approx(1.2054e7, rel=1e-3)

    def test_quadratic_dipole_scaling(self):
        assert radiative_rate(2.0, 2.0) == pytest.approx(
            4 * radiative_rate(2.0, 1.0), rel=1e-14)

    def test_cubic_frequency_scaling(self):
        assert radiative_rate(3.0, 1.0) / radiative_rate(1.5, 1.0) == \
            pytest.approx(8.0, rel=1e-12)

    def test_background_index_scaling(self):
        assert radiative_rate(2.0, 1.0, n_b=1.5) == pytest.approx(
            1.5 * radiative_rate(2.0, 1.0), rel=1e-14)

    def test_lifetime_form_self_consistent(self, weak_emitter):
        geo = Geometry(radius=8.0, eps_b=1.0, r_d=13.0)
        g_rad = radiative_rate(weak_emitter.omega0, weak_emitter.d_eg, geo.n_b)
        assert g_rad / weak_emitter.eta == pytest.approx(weak_emitter.gamma0,
                                                         rel=1e-12)
        assert g_rad == pytest.approx(weak_emitter.gamma0_rad, rel=1e-12)
        assert weak_emitter.tau0_ns == pytest.approx(50.0, rel=1e-12)
        # the stated 3.4 D of the source scenario is not recovered: lifetime
        # inputs are primary and imply ~4.15 D
        assert weak_emitter.d_eg == pytest.approx(4.1548, rel=1e-3)

    def test_dipole_form(self):
        em = EmitterSpec.from_dipole(2.0, 5.0, gamma0_nr=1e-8)
        assert em.gamma0 == pytest.approx(radiative_rate(2.0, 5.0) + 1e-8, rel=1e-12)
        assert em.gamma0_rad == pytest.approx(radiative_rate(2.0, 5.0), rel=1e-12)

    def test_unit_round_trip(self):
        # a 12.5 ns lifetime is a rate of hbar/tau in eV, and back
        em = EmitterSpec.from_lifetime(2.0, 12.5, 0.8)
        assert em.gamma0 == pytest.approx(HBAR_EV_S / 12.5e-9, rel=1e-12)
        assert em.tau0_ns == pytest.approx(12.5, rel=1e-12)

    def test_quantum_yield_bounds(self):
        with pytest.raises(InvalidArgumentError):
            EmitterSpec(omega0=2.0, d_eg=1.0, eta=0.0, gamma0=1e-8)
        with pytest.raises(InvalidArgumentError):
            EmitterSpec(omega0=2.0, d_eg=1.0, eta=1.2, gamma0=1e-8)


class TestGeometry:
    def test_surface_distance(self):
        geo = Geometry.from_surface_distance(8.0, 2.0)
        assert geo.r_d == 10.0
        assert geo.h == 2.0

    def test_emitter_inside_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Geometry(radius=8.0, eps_b=1.0, r_d=7.0)

    def test_vacuum_background_floor(self):
        with pytest.raises(InvalidArgumentError):
            Geometry(radius=8.0, eps_b=0.5, r_d=10.0)


def test_lossless_table_zeroes_its_absorption():
    rows = [(2.0, -5.0, 0.3), (3.0, -1.0, 0.5)]
    lossless = MaterialModel.tabulated(rows).lossless()
    np.testing.assert_array_equal(lossless.table,
                                  [(2.0, -5.0, 0.0), (3.0, -1.0, 0.0)])


@pytest.mark.parametrize("call, message", [
    (lambda: MaterialModel(kind="lorentz"), "unknown material kind 'lorentz'"),
    (lambda: MaterialModel.drude(6.0, 0.0, 0.05), "Drude omega_p must be > 0"),
    (lambda: MaterialModel.drude(6.0, 7.9, -0.01), "Drude gamma_p must be >= 0"),
    (lambda: MaterialModel.tabulated([(2.0, -5.0, 0.3), (3.0, -1.0, -0.1)]),
     r"table Im\(eps\) must be >= 0"),
    (lambda: Geometry.from_surface_distance(0.0, 2.0), "radius must be > 0"),
    (lambda: dipole_from_radiative_rate(-1e-9, 2.5), "gamma_rad must be >= 0"),
    (lambda: EmitterSpec(omega0=0.0, d_eg=1.0, eta=1.0, gamma0=0.01),
     "omega0 must be > 0"),
    (lambda: EmitterSpec(omega0=2.5, d_eg=-1.0, eta=1.0, gamma0=0.01),
     "d_eg must be >= 0"),
    (lambda: EmitterSpec(omega0=2.5, d_eg=1.0, eta=1.0, gamma0=-0.01),
     "gamma0 must be >= 0"),
    (lambda: EmitterSpec.from_lifetime(2.5, 0.0, 0.9), "tau0 must be > 0"),
    (lambda: EmitterSpec.from_dipole(2.5, 1.0, -0.01),
     "gamma0_nr must be >= 0"),
], ids=["unknown-kind", "omega-p", "gamma-p", "table-gain", "radius",
        "gamma-rad", "omega0", "d-eg", "gamma0", "tau0", "gamma0-nr"])
def test_rejects_invalid_input(call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call()
