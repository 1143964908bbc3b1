import math

import numpy as np
import pytest

from plasmon_cqed.constants import HBAR_C_EV_NM
from plasmon_cqed.errors import InvalidArgumentError, NoResonanceError
from plasmon_cqed.medium import Geometry, MaterialModel, silver
from plasmon_cqed.mie import (
    green_rr_quasistatic,
    green_rr_scattered,
    green_rr_sweep,
    green_rr_terms,
    mie_coefficients,
    qs_coupling_strength,
    qs_mode_params,
    qs_polarizability,
    qs_resonance_frequency,
    radial_mode_fractions,
)
from plasmon_cqed.specfun import N_ORDER_MAX


class TestMieCoefficients:
    def test_vanishing_particle(self, ag):
        geo = Geometry(radius=1e-3, eps_b=1.0, r_d=1.0)
        assert abs(mie_coefficients(1, 2.8, geo, ag)) < 1e-12

    def test_quasistatic_agreement_small_sphere(self, ag, small_geometry):
        # B_n ~ i (n+1) k_b^(2n+1) alpha_n / (n (2n-1)!!(2n+1)!!)
        w = 2.9
        b = mie_coefficients(1, w, small_geometry, ag)
        alpha_qs, _ = qs_polarizability(1, w, small_geometry, ag)
        kb = w / HBAR_C_EV_NM
        b_qs = 1j * 2.0 / 3.0 * kb**3 * alpha_qs
        assert abs(b - b_qs) / abs(b) < 0.05

    def test_retardation_breaks_quasistatic(self, ag):
        geo = Geometry.from_surface_distance(50.0, 5.0)
        w = 2.6
        b = mie_coefficients(1, w, geo, ag)
        alpha_qs, _ = qs_polarizability(1, w, geo, ag)
        kb = w / HBAR_C_EV_NM
        b_qs = 1j * 2.0 / 3.0 * kb**3 * alpha_qs
        assert abs(b - b_qs) / abs(b) > 0.20


class TestScatteredGreen:
    def test_no_scatterer_limit(self, ag):
        geo = Geometry(radius=1e-3, eps_b=1.0, r_d=10.0)
        g = green_rr_scattered(2.8, geo, ag, 10)
        assert abs(g.total) < 1e-10

    def test_bright_mode_peak_position(self, ag, small_geometry):
        grid = np.linspace(2.6, 3.0, 801)
        vals = green_rr_terms(grid, small_geometry, ag, 1)[:, 0].imag
        peak = grid[int(np.argmax(vals))]
        assert peak == pytest.approx(2.79, abs=0.01)

    def test_per_mode_peaks_match_quasistatic(self, ag, small_geometry):
        for n in range(1, 4):
            qs = qs_mode_params(n, small_geometry, ag)
            grid = np.linspace(qs.omega_n - 0.2, qs.omega_n + 0.2, 801)
            vals = green_rr_terms(grid, small_geometry, ag, n)[:, n - 1].imag
            peak = grid[int(np.argmax(vals))]
            assert abs(peak - qs.omega_n) / qs.omega_n < 0.01

    def test_total_ldos_positive(self, ag, small_geometry):
        # Im G_S + Im G_0 > 0 with Im G_0 = k_b/6pi
        for w in np.linspace(1.5, 3.4, 40):
            g = green_rr_scattered(w, small_geometry, ag, 30)
            kb = w / HBAR_C_EV_NM
            assert g.total.imag + kb / (6 * math.pi) > 0

    def test_single_peaked_per_mode(self, ag, small_geometry):
        grid = np.linspace(2.3, 3.15, 400)
        for n in (1, 2, 3):
            vals = green_rr_terms(grid, small_geometry, ag, n)[:, n - 1].imag
            i_pk = int(np.argmax(vals))
            assert np.all(np.diff(vals[:i_pk + 1]) > 0)
            assert np.all(np.diff(vals[i_pk:]) < 0)


class TestRadialDecomposition:
    def test_point_dipole_limit(self):
        fr = radial_mode_fractions(10, 1e-3)
        assert fr[0] == pytest.approx(1.0, abs=1e-5)
        assert np.all(fr[1:] < 1e-6)

    def test_positive_terms(self):
        assert radial_mode_fractions(10, 2.0)[1] > 0


class TestQuasiStatic:
    def test_index_matching_kills_polarizability(self):
        metal = MaterialModel.tabulated([(1.0, 1.0, 0.0), (3.0, 1.0, 0.0)])
        geo = Geometry(radius=8.0, eps_b=1.0, r_d=10.0)
        alpha_qs, alpha_eff = qs_polarizability(1, 2.0, geo, metal)
        assert alpha_qs == 0
        assert alpha_eff == 0

    def test_lossless_simple_drude_peak(self):
        metal = MaterialModel.drude(1.0, 5.0, 0.0)
        geo = Geometry(radius=8.0, eps_b=1.0, r_d=10.0)
        grid = np.linspace(2.5, 3.2, 2001)
        mags = [abs(qs_polarizability(1, w, geo, metal)[0]) for w in grid]
        peak = grid[int(np.argmax(mags))]
        assert peak == pytest.approx(5.0 / math.sqrt(3.0), abs=2e-3)

    def test_silver_resonance_denominator_zero(self, ag):
        w1 = qs_resonance_frequency(1, ag, 1.0)
        assert w1 == pytest.approx(7.90 / math.sqrt(8.0), abs=2e-3)

    def test_resonances_increase_and_accumulate(self, ag, small_geometry):
        omegas = [qs_mode_params(n, small_geometry, ag).omega_n
                  for n in range(1, 9)]
        assert all(b > a for a, b in zip(omegas, omegas[1:]))
        bound = 7.90 / math.sqrt(6.0 + 1.0)
        assert all(w < bound for w in omegas)

    def test_no_resonance_for_dielectric_like_model(self):
        # permittivity never reaches -2 inside the bracket
        metal = MaterialModel.drude(1.0, 0.15, 0.0)
        with pytest.raises(NoResonanceError):
            qs_resonance_frequency(1, metal, 1.0)

    def test_simple_drude_mode_frequencies(self):
        metal = MaterialModel.drude(1.0, 5.0, 0.0)
        geo = Geometry(radius=8.0, eps_b=1.0, r_d=10.0)
        mode = qs_mode_params(2, geo, metal)
        assert mode.omega_n == pytest.approx(5.0 * math.sqrt(2.0 / 5.0), rel=1e-5)

    def test_radiative_width_scaling(self, ag):
        # Gamma_rad ~ R^3 at fixed omega for the dipolar mode
        geo1 = Geometry(radius=8.0, eps_b=1.0, r_d=20.0)
        geo2 = Geometry(radius=16.0, eps_b=1.0, r_d=40.0)
        m1 = qs_mode_params(1, geo1, ag)
        m2 = qs_mode_params(1, geo2, ag)
        assert m2.gamma_rad / m1.gamma_rad == pytest.approx(8.0, rel=1e-6)

    def test_radiative_width_matches_exact_double_factorials(self, ag):
        # the log-space prefactor against exact integers, where they fit a float
        geo = Geometry.from_surface_distance(50.0, 2.0)
        for n in range(1, 80):
            mode = qs_mode_params(n, geo, ag)
            k0r = mode.omega_n / HBAR_C_EV_NM * geo.radius
            exact = mode.omega_res * (n + 1) * k0r ** (2 * n + 1) / (
                n * math.prod(range(2 * n - 1, 0, -2))
                * math.prod(range(2 * n + 1, 0, -2)))
            assert mode.gamma_rad == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("eps_b", [1.0, 1.77])
    @pytest.mark.parametrize("radius", [8.0, 20.0])
    def test_width_is_the_polarizability_linewidth(self, ag, eps_b, radius):
        # Gamma_n against the FWHM of |alpha_1^eff|^2, whose radiation
        # correction is taken at k_b = n_b omega/(hbar c); with the vacuum k0
        # Gamma_rad is n_b^3 too small (25% of the FWHM at eps_b 1.77, 20 nm)
        geo = Geometry.from_surface_distance(radius, 2.0, eps_b)
        mode = qs_mode_params(1, geo, ag)
        grid = np.linspace(mode.omega_n - 0.3, mode.omega_n + 0.3, 60001)
        power = np.abs(qs_polarizability(1, grid, geo, ag)[1]) ** 2
        above = grid[power >= 0.5 * power.max()]
        assert above[-1] - above[0] == pytest.approx(mode.gamma_n, rel=1e-2)

    def test_numpy_integer_order(self, ag, small_geometry):
        # int64 arithmetic would wrap (2n-1)!!(2n+1)!! around
        for n in (1, 25, 40):
            assert qs_mode_params(np.int64(n), small_geometry,
                                  ag) == qs_mode_params(n, small_geometry, ag)

    def test_coupling_distance_law(self, ag):
        geo1 = Geometry(radius=8.0, eps_b=1.0, r_d=10.0)
        geo2 = Geometry(radius=8.0, eps_b=1.0, r_d=12.0)
        g1 = qs_coupling_strength(qs_mode_params(1, geo1, ag), geo1, 1.0)
        g2 = qs_coupling_strength(qs_mode_params(1, geo2, ag), geo2, 1.0)
        assert g2 / g1 == pytest.approx((10.0 / 12.0) ** 3, rel=1e-9)

    def test_coupling_is_linear_in_dipole(self, ag, small_geometry):
        mode = qs_mode_params(1, small_geometry, ag)
        g1 = qs_coupling_strength(mode, small_geometry, 1.0)
        assert g1 > 0
        assert qs_coupling_strength(mode, small_geometry, 2.0) == pytest.approx(
            2.0 * g1, rel=1e-12)
        assert qs_coupling_strength(mode, small_geometry, 0.0) == 0.0

    @pytest.mark.parametrize("radius", [8.0, 50.0])
    def test_finite_up_to_the_order_cap(self, ag, radius):
        # the radiative prefactor overflowed from n = 85 and the coupling's
        # separate powers of R and r_d from n = 178 at R = 50 nm
        geo = Geometry.from_surface_distance(radius, 2.0)
        for n in range(1, N_ORDER_MAX + 1):
            mode = qs_mode_params(n, geo, ag)
            g = qs_coupling_strength(mode, geo, 1.0)
            assert all(math.isfinite(v) for v in (
                mode.omega_n, mode.omega_res, mode.gamma_rad, mode.gamma_n, g))
            assert mode.gamma_n >= ag.gamma_p and g >= 0.0


class TestGreenQuasistatic:
    def test_on_resonance_value(self, ag, small_geometry):
        from plasmon_cqed.constants import DIPOLE_SQ_OVER_EPS0

        mode = qs_mode_params(1, small_geometry, ag)
        g_qs = green_rr_quasistatic(mode.omega_n, small_geometry, ag, 1)
        k0 = mode.omega_n / HBAR_C_EV_NM
        g = qs_coupling_strength(mode, small_geometry, 1.0)
        expected = g**2 * 2.0 / mode.gamma_n / (k0**2 * DIPOLE_SQ_OVER_EPS0)
        assert abs(g_qs.real) < 1e-9 * abs(g_qs.imag)
        assert g_qs.imag == pytest.approx(expected, rel=1e-9)


GEOMETRY = Geometry.from_surface_distance(8.0, 2.0)


@pytest.mark.parametrize("call, message", [
    (lambda: mie_coefficients(0, 2.9, GEOMETRY, silver()),
     "Mie order starts at n=1"),
    (lambda: qs_polarizability(0, 2.9, GEOMETRY, silver()),
     "multipole order starts at n=1"),
    (lambda: green_rr_sweep(2.9, [GEOMETRY], silver(), 0),
     "n_max must be >= 1"),
    (lambda: radial_mode_fractions(5, [1.0, 0.0]), "k_b r_d must be > 0"),
], ids=["mie-order", "qs-order", "n-max", "zero-distance"])
def test_rejects_invalid_input(call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call()
