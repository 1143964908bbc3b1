import dataclasses
import math

import numpy as np
import pytest

import scalar_oracle as oracle
from conftest import synthetic_modes
from plasmon_cqed.constants import HBAR_C_EV_NM
from plasmon_cqed.coupling import ModeParams, extract_modes
from plasmon_cqed.errors import UnsupportedOrderError
from plasmon_cqed.heff import build_fano, build_standard, evolve
from plasmon_cqed.medium import EmitterSpec, Geometry
from plasmon_cqed.mie import green_rr_quasistatic, green_rr_terms
from plasmon_cqed.specfun import N_ORDER_MAX
from plasmon_cqed.weak import (
    adiabatic_rates,
    broadened_rate,
    fano_adiabatic,
    fermi_rate,
    purcell_factors,
)


def one_mode(omega_n, gamma, g, **kw):
    return ModeParams(n=1, omega_n=omega_n, gamma_n=gamma, g=g, **kw)


class TestAdiabatic:
    def test_on_resonance_closed_form(self):
        em = EmitterSpec(omega0=2.8, d_eg=1.0, eta=1.0, gamma0=1e-4)
        rep = adiabatic_rates([one_mode(2.8, 0.05, 0.01)], em)
        assert rep.lamb_shift == pytest.approx(0.0, abs=1e-15)
        assert rep.gamma_tot == pytest.approx(1e-4 + 4 * 0.01**2 / 0.05, rel=1e-12)

    def test_quadratic_coupling_scaling(self):
        em = EmitterSpec(omega0=2.7, d_eg=1.0, eta=1.0, gamma0=1e-4)
        r1 = adiabatic_rates([one_mode(2.9, 0.05, 0.01)], em)
        r2 = adiabatic_rates([one_mode(2.9, 0.05, 0.02)], em)
        assert r2.gamma_n[0] == pytest.approx(4 * r1.gamma_n[0], rel=1e-12)

    def test_lamb_shift_antisymmetry(self):
        gamma, g, wn = 0.05, 0.01, 2.8
        for x in (0.01, 0.05, 0.27):
            up = adiabatic_rates([one_mode(wn, gamma, g)],
                                 EmitterSpec(omega0=wn + x, d_eg=1.0, eta=1.0,
                                             gamma0=1e-4))
            dn = adiabatic_rates([one_mode(wn, gamma, g)],
                                 EmitterSpec(omega0=wn - x, d_eg=1.0, eta=1.0,
                                             gamma0=1e-4))
            assert up.lamb_shift == pytest.approx(-dn.lamb_shift, rel=1e-12)

    def test_green_function_lamb_shift_identity(self, ag, small_geometry):
        # delta_omega / gamma0 = -eta (3pi/k_b) Re G with the first-order
        # resonance Green function reproduces the mode-sum form; needs a
        # dipole-consistent emitter since gamma0 enters both sides
        em = EmitterSpec.from_dipole(2.85, 1.0)
        from plasmon_cqed.mie import qs_coupling_strength, qs_mode_params

        qs = qs_mode_params(1, small_geometry, ag)
        mode = one_mode(qs.omega_n, qs.gamma_n,
                        qs_coupling_strength(qs, small_geometry, em.d_eg))
        direct = adiabatic_rates([mode], em).lamb_shift
        g_qs = green_rr_quasistatic(em.omega0, small_geometry, ag)
        kb = em.omega0 / HBAR_C_EV_NM
        from_green = -em.eta * (3 * math.pi / kb) * g_qs.real * em.gamma0
        assert from_green == pytest.approx(direct, rel=1e-10)


class TestPurcell:
    def test_inverse_gamma0_scaling(self):
        m = [one_mode(2.8, 0.05, 0.01)]
        f1 = purcell_factors(m, EmitterSpec(omega0=2.8, d_eg=1.0, eta=1.0,
                                            gamma0=1e-4)).purcell[0]
        f2 = purcell_factors(m, EmitterSpec(omega0=2.8, d_eg=1.0, eta=1.0,
                                            gamma0=2e-4)).purcell[0]
        assert f1 == pytest.approx(2 * f2, rel=1e-12)

    def test_on_resonance_equals_adiabatic(self):
        em = EmitterSpec(omega0=2.8, d_eg=1.0, eta=1.0, gamma0=1e-4)
        m = [one_mode(2.8, 0.05, 0.01)]
        rep = purcell_factors(m, em)
        adiab = adiabatic_rates(m, em)
        assert rep.gamma_n[0] == pytest.approx(adiab.gamma_n[0], rel=1e-12)
        assert rep.purcell[0] == pytest.approx(adiab.gamma_n[0] / em.gamma0,
                                               rel=1e-12)

    def test_lossy_purcell_identity(self):
        # F_p = (Gamma_rad/Gamma) F_rad on resolved modes with eta = 1
        em = EmitterSpec(omega0=2.8, d_eg=1.0, eta=1.0, gamma0=1e-4)
        m = [one_mode(2.8, 0.05, 0.01, gamma_rad=0.03, gamma_nr=0.02, alpha=0.1)]
        rep = purcell_factors(m, em)
        assert rep.purcell[0] == pytest.approx(
            0.03 / 0.05 * rep.purcell_rad[0], rel=1e-12)


class TestFermi:
    def test_vacuum_limit(self, weak_emitter):
        geo = Geometry(radius=1e-3, eps_b=1.0, r_d=13.0)
        from plasmon_cqed.medium import silver

        assert fermi_rate(weak_emitter.omega0, [geo], silver(),
                          weak_emitter)[0] == pytest.approx(1.0, abs=1e-9)

    def test_weak_coupling_trio_consistency(self, ag, weak_emitter):
        geo = Geometry.from_surface_distance(8.0, 5.0)
        [fermi] = fermi_rate(weak_emitter.omega0, [geo], ag, weak_emitter)
        modes = extract_modes(20, geo, ag, weak_emitter)
        adiab = adiabatic_rates(modes, weak_emitter).enhancement
        assert abs(fermi - adiab) / fermi < 0.05
        # dynamics route
        ham = build_standard(modes, weak_emitter)
        gamma_guess = adiab * weak_emitter.gamma0
        times = np.linspace(0, 4 / gamma_guess, 120)
        psi0 = np.zeros(21, complex)
        psi0[0] = 1
        pops = np.array([abs(s.c_e) ** 2 for s in evolve(ham, psi0, times)])
        slope = np.polyfit(times, np.log(pops), 1)[0]
        dyn = -slope / weak_emitter.gamma0
        assert abs(dyn - fermi) / fermi < 0.05
        assert abs(dyn - adiab) / adiab < 0.05

    def test_eta_zero_is_unity(self, ag):
        geo = Geometry.from_surface_distance(8.0, 5.0)
        em = EmitterSpec(omega0=1.85, d_eg=4.0, eta=1e-12, gamma0=1e-8)
        assert fermi_rate(em.omega0, [geo], ag, em)[0] == \
            pytest.approx(1.0, abs=1e-9)

    def test_sweep_rows_equal_one_geometry_calls(self, ag, weak_emitter):
        # the figure suite's distance sweep, one green_rr_sweep call summed to
        # the order that its closest emitter (h = 2 nm) sets
        geos = [Geometry.from_surface_distance(8.0, h)
                for h in (2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 14.0, 20.0)]
        omega0 = weak_emitter.omega0
        sweep = fermi_rate(omega0, geos, ag, weak_emitter)
        assert sweep.shape == (len(geos),)
        rho = max(g.radius / g.r_d for g in geos)
        order = next(n for n in range(1, N_ORDER_MAX)
                     if ((n + 1) / 2) ** 2 * rho ** (2 * n - 2) <= 1e-14)
        for geo, rate in zip(geos, sweep):
            terms = green_rr_terms(omega0, geo, ag, order)
            kb = geo.n_b * omega0 / HBAR_C_EV_NM
            total = np.sum(terms)
            assert rate == 1.0 + weak_emitter.eta * 6 * math.pi / kb * total.imag
            # a farther emitter alone stops at its own, lower order
            [alone] = fermi_rate(omega0, [geo], ag, weak_emitter)
            assert alone == pytest.approx(rate, rel=1e-13)

    @pytest.mark.parametrize("rho", [0.29, 0.62, 0.8, 0.89, 0.91])
    def test_sum_matches_the_oracle_at_the_order_cap(self, ag, weak_emitter, rho):
        # a fixed n_max = 30 was 7.6e-5 low at rho = 0.8
        geo = Geometry(radius=8.0, eps_b=1.0, r_d=8.0 / rho)
        omega0 = weak_emitter.omega0
        terms = oracle.green_terms(omega0, geo, ag, N_ORDER_MAX)
        kb = geo.n_b * omega0 / HBAR_C_EV_NM
        expected = 1.0 + weak_emitter.eta * 6 * math.pi / kb * np.sum(terms).imag
        [rate] = fermi_rate(omega0, [geo], ag, weak_emitter)
        assert rate == pytest.approx(expected, rel=1e-12)

    def test_small_gap_sum_matches_the_oracle(self, ag, weak_emitter):
        # R = 40 nm at h = 3 nm (R/r_d = 40/43) sums past the old 200-order cap
        geo = Geometry.from_surface_distance(40.0, 3.0)
        rho = geo.radius / geo.r_d
        order = next(n for n in range(1, N_ORDER_MAX)
                     if ((n + 1) / 2) ** 2 * rho ** (2 * n - 2) <= 1e-14)
        assert order > 200
        omega0 = weak_emitter.omega0
        terms = oracle.green_terms(omega0, geo, ag, order)
        kb = geo.n_b * omega0 / HBAR_C_EV_NM
        expected = 1.0 + weak_emitter.eta * 6 * math.pi / kb * np.sum(terms).imag
        [rate] = fermi_rate(omega0, [geo], ag, weak_emitter)
        assert rate == pytest.approx(expected, rel=1e-12)

    def test_unconverged_sum_raises_naming_the_gap(self, ag, weak_emitter):
        # h = 0.05 nm (below R/86) needs about 3,800 orders, past the cap
        geos = [Geometry.from_surface_distance(8.0, h) for h in (5.0, 0.05)]
        with pytest.raises(UnsupportedOrderError, match="h = 0.05 nm"):
            fermi_rate(weak_emitter.omega0, geos, ag, weak_emitter)


class TestBroadened:
    def test_narrow_emitter_limit(self):
        em = EmitterSpec(omega0=2.82, d_eg=1.0, eta=1.0, gamma0=1e-7)
        m = [one_mode(2.8, 0.05, 0.01)]
        broad = broadened_rate(m, em)[0]
        adiab = adiabatic_rates(m, em).gamma_n[0]
        assert broad == pytest.approx(adiab, rel=1e-4)

    def test_equal_width_on_resonance(self):
        gamma = 4e-2
        em = EmitterSpec(omega0=2.8, d_eg=1.0, eta=1.0, gamma0=gamma)
        m = [one_mode(2.8, gamma, 0.01)]
        assert broadened_rate(m, em)[0] == pytest.approx(2 * 0.01**2 / gamma,
                                                         rel=1e-12)

    def test_is_adiabatic_rate_with_summed_widths(self):
        rng = np.random.default_rng(17)
        em = EmitterSpec(omega0=2.6, d_eg=5.0, eta=0.8, gamma0=0.03)
        modes = synthetic_modes(rng, 6)
        wider = [dataclasses.replace(m, gamma_n=em.gamma0 + m.gamma_n)
                 for m in modes]
        np.testing.assert_allclose(broadened_rate(modes, em),
                                   adiabatic_rates(wider, em).gamma_n,
                                   rtol=1e-13, atol=0)

    def test_convolution_quadrature_oracle(self):
        gamma0, gamma_n, g, wn, w0 = 3e-3, 0.05, 0.01, 2.80, 2.83
        em = EmitterSpec(omega0=w0, d_eg=1.0, eta=1.0, gamma0=gamma0)
        closed = broadened_rate([one_mode(wn, gamma_n, g)], em)[0]
        w = np.linspace(w0 - 3.0, w0 + 3.0, 2000001)
        emitter_line = gamma0 / (2 * math.pi) / ((w - w0) ** 2 + gamma0**2 / 4)
        mode_line = g**2 * gamma_n / ((w - wn) ** 2 + gamma_n**2 / 4)
        quad = float(np.trapezoid(emitter_line * mode_line, w))
        assert closed == pytest.approx(quad, rel=1e-6)


class TestSelfEnergy:
    @pytest.mark.parametrize("seed", range(4))
    def test_rates_are_the_heff_self_energy_at_omega0(self, seed):
        # term n of sum_n H_0n H_n0 / (u - H_nn) at u = 0 (the emitter
        # frequency): its real part shifts the line, -2 Im is the rate
        rng = np.random.default_rng(seed)
        em = EmitterSpec(omega0=2.4 + 0.4 * rng.random(), d_eg=5.0, eta=0.8,
                         gamma0=0.002)
        modes = synthetic_modes(rng, 1 + seed * 3, fano=True, emitter=em)
        for report, ham in ((adiabatic_rates(modes, em), build_standard(modes, em)),
                            (fano_adiabatic(modes, em),
                             build_fano(modes, em, "general"))):
            h = ham.matrix
            terms = h[0, 1:] * h[1:, 0] / -np.diagonal(h)[1:]
            np.testing.assert_allclose(report.gamma_n, -2.0 * terms.imag,
                                       rtol=1e-13, atol=0)
            assert report.lamb_shift == pytest.approx(np.sum(terms.real),
                                                      rel=1e-13)
            assert report.gamma_tot == pytest.approx(
                em.gamma0 - 2.0 * np.sum(terms.imag), rel=1e-13)


class TestFanoAdiabatic:
    def test_alpha_zero_identity(self):
        rng = np.random.default_rng(3)
        em = EmitterSpec(omega0=2.6, d_eg=5.0, eta=0.8, gamma0=0.001)
        modes = [ModeParams(n=m.n, omega_n=m.omega_n, gamma_n=m.gamma_n, g=m.g,
                            gamma_rad=m.gamma_n, gamma_nr=0.0, alpha=0.0)
                 for m in synthetic_modes(rng, 4)]
        plain = adiabatic_rates(modes, em)
        fano = fano_adiabatic(modes, em)
        assert fano.gamma_tot == pytest.approx(plain.gamma_tot, rel=1e-14)
        assert fano.lamb_shift == pytest.approx(plain.lamb_shift, rel=1e-14)

    def test_dip_location_root(self):
        mode = one_mode(2.6, 0.25, 1e-4, gamma_rad=0.25, gamma_nr=0.0,
                        alpha=-0.476)
        # the Fano bracket 1 - alpha^2/4 + 2 alpha Q (w - w_n)/w_n vanishes at
        q = mode.omega_n / mode.gamma_n
        w_dip = mode.omega_n * (1.0 - (1 - mode.alpha**2 / 4)
                                / (2 * mode.alpha * q))
        em = EmitterSpec(omega0=w_dip, d_eg=1.0, eta=1.0, gamma0=1e-9)
        assert fano_adiabatic([mode], em).gamma_n[0] == pytest.approx(0.0,
                                                                      abs=1e-18)
        # rate is suppressed past the dip (alpha < 0: blue side)
        assert w_dip > mode.omega_n
        em2 = EmitterSpec(omega0=w_dip + 0.05, d_eg=1.0, eta=1.0, gamma0=1e-9)
        assert fano_adiabatic([mode], em2).gamma_n[0] < 0

    def test_matches_weak_coupling_dynamics(self):
        # adiabatic elimination of the Fano H_eff vs the closed form
        em = EmitterSpec(omega0=2.62, d_eg=5.0, eta=1.0, gamma0=2e-5)
        g0n = em.gamma0_rad * 0.8
        grad = 0.20
        g = 2.5e-3
        mode = one_mode(2.60, grad, g, gamma_rad=grad, gamma_nr=0.0,
                        alpha=-math.sqrt(g0n * grad) / g)
        rep = fano_adiabatic([mode], em)
        ham = build_fano([mode], em, variant="general")
        times = np.linspace(0, 1.5 / rep.gamma_tot, 200)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        pops = np.array([abs(s.c_e) ** 2
                         for s in evolve(ham, psi0, times)])
        slope = np.polyfit(times, np.log(pops), 1)[0]
        assert -slope == pytest.approx(rep.gamma_tot, rel=0.02)
