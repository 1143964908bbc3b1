"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  `python tests/test_acceptance.py` gives the standalone
report; under pytest each criterion is its own test."""

import math
import sys
import time

import numpy as np

from plasmon_cqed.constants import HBAR_C_EV_NM, HBAR_EV_S
from plasmon_cqed.coupling import (
    ModeParams,
    extract_modes,
    fano_rate_model,
    fit_fano_rate,
    fit_lorentzians,
    lorentzian_kappa2,
    rate_spectrum_lsp,
)
from plasmon_cqed.heff import (
    build_fano,
    build_standard,
    eigendecompose,
    evolve,
    flip_coupling_gauge,
    polarization_spectrum,
    radiated_spectrum,
)
from plasmon_cqed.lindblad import (
    build_dissipators,
    build_liouvillian,
    build_state_space,
    build_system_hamiltonian,
    effective_hamiltonian_from_lindblad,
    evolve_master,
    pure_state,
    single_excitation_projection,
)
from plasmon_cqed.medium import EmitterSpec, Geometry, radiative_rate, silver
from plasmon_cqed.verify import (
    arrowhead_secular_residual,
    check_qs_resonance,
    check_sum_rule,
)

STRONG_DIPOLE_D = 24.5
_REPORT = []


def _record(name, passed, detail, elapsed):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail} ({elapsed:.1f} s)"
    _REPORT.append(line)
    print(line)
    return passed


def criterion_1_small_mnp_linewidths():
    start = time.perf_counter()
    geo = Geometry.from_surface_distance(8.0, 2.0)
    em = EmitterSpec(omega0=2.94, d_eg=STRONG_DIPOLE_D, eta=1e-6, gamma0=0.015)
    modes = extract_modes(6, geo, silver(), em)
    widths = np.array([m.gamma_n for m in modes])
    within = np.abs(widths - 0.051) / 0.051 <= 0.10
    elapsed = time.perf_counter() - start
    ok = bool(np.all(within)) and elapsed < 30.0
    detail = ("fitted widths meV " + ", ".join(f"{w*1e3:.1f}" for w in widths)
              + " vs 51 +- 10%")
    assert _record("criterion-1 small-MNP linewidths", ok, detail, elapsed)


def criterion_2_strong_coupling():
    start = time.perf_counter()
    geo = Geometry.from_surface_distance(8.0, 2.0)
    em = EmitterSpec(omega0=2.94, d_eg=STRONG_DIPOLE_D, eta=1e-6, gamma0=0.015)
    modes = extract_modes(25, geo, silver(), em)
    ham = build_standard(modes, em)
    dressed = eigendecompose(ham)
    assert len(dressed.eigenvalues) == 26
    order = np.argsort(-np.abs(dressed.weights))
    split = abs(dressed.frequencies[order[0]] - dressed.frequencies[order[1]])

    grid = np.linspace(2.4, 3.4, 2001)
    pol = polarization_spectrum(ham, grid)
    peaks = sorted(
        (i for i in range(1, 2000)
         if pol.values[i] > pol.values[i - 1]
         and pol.values[i] > pol.values[i + 1]),
        key=lambda i: -pol.values[i])[:2]
    peak_sep = abs(grid[peaks[0]] - grid[peaks[1]])
    rad = radiated_spectrum(ham, grid, geo, silver())
    c1_peak = grid[int(np.argmax(rad.lsp1_population))]

    elapsed = time.perf_counter() - start
    ok = (abs(split - 0.144) <= 0.10 * 0.144
          and abs(peak_sep - 0.144) <= 0.10 * 0.144
          and abs(c1_peak - 2.79) <= 0.030
          and elapsed < 60.0)
    detail = (f"splitting {split*1e3:.1f} meV, peak sep {peak_sep*1e3:.1f} meV "
              f"(144 +- 10%), |C1|^2 peak {c1_peak:.3f} eV (2.79 +- 0.03)")
    assert _record("criterion-2 strong coupling", ok, detail, elapsed)


def criterion_3_weak_coupling():
    start = time.perf_counter()
    omega0 = 2 * math.pi * HBAR_C_EV_NM / 670.0
    em = EmitterSpec.from_lifetime(omega0, 50.0, 0.9)
    geo = Geometry.from_surface_distance(8.0, 5.0)
    from plasmon_cqed.weak import adiabatic_rates, fermi_rate

    [fermi] = fermi_rate(omega0, [geo], silver(), em)
    modes = extract_modes(20, geo, silver(), em)
    adiab = adiabatic_rates(modes, em).enhancement

    ham = build_standard(modes, em)
    times = np.linspace(0.0, 4.0 / (adiab * em.gamma0), 150)
    psi0 = np.zeros(21, complex)
    psi0[0] = 1
    pops = np.array([abs(s.c_e) ** 2 for s in evolve(ham, psi0, times)])
    slope = float(np.polyfit(times, np.log(pops), 1)[0])
    dynamic = -slope / em.gamma0
    lifetime_ns = HBAR_EV_S / (-slope) / 1e-9

    routes = {"fermi": fermi, "adiabatic": adiab, "dynamics": dynamic}
    elapsed = time.perf_counter() - start
    ok = all(abs(v - 30.0) <= 0.15 * 30.0 for v in routes.values())
    pairs = [(a, b) for a in routes.values() for b in routes.values()]
    ok = ok and all(abs(a - b) / max(a, b) <= 0.05 for a, b in pairs)
    ok = ok and abs(lifetime_ns - 1.7) <= 0.15 * 1.7 and elapsed < 60.0
    detail = (f"gamma_tot/gamma0 fermi {fermi:.2f} / adiabatic {adiab:.2f} / "
              f"dynamics {dynamic:.2f} (30 +- 15%, pairwise <= 5%), "
              f"lifetime {lifetime_ns:.2f} ns (1.7 +- 15%)")
    assert _record("criterion-3 weak coupling", ok, detail, elapsed)


def criterion_4_fano_regime():
    start = time.perf_counter()
    ag = silver()
    lossless = ag.lossless()
    grid = np.linspace(2.2, 3.1, 301)
    results = {}
    for h in (30.0, 15.0):
        geo = Geometry.from_surface_distance(50.0, h)
        em = EmitterSpec.from_dipole(2.60, 1.0)
        [mode_free] = fit_fano_rate(
            grid, rate_spectrum_lsp(1, grid, [geo], lossless), 1, [geo], em)
        [mode_lossy] = fit_fano_rate(
            grid, rate_spectrum_lsp(1, grid, [geo], ag), 1, [geo], em,
            frozen=[mode_free])
        g0_res = radiative_rate(mode_free.omega_n, em.d_eg, geo.n_b)
        f_rad = 4 * mode_free.g**2 / (g0_res * mode_free.gamma_rad)
        gamma_tot = mode_lossy.gamma_rad + mode_lossy.gamma_nr
        f_p = 4 * mode_free.g**2 / (g0_res * gamma_tot)
        results[h] = {
            "q_f": 2.0 / mode_free.alpha,
            "f_rad": f_rad,
            "gamma_nr": mode_lossy.gamma_nr,
            "f_p": f_p,
            "identity": abs(f_p - mode_lossy.gamma_rad / gamma_tot * f_rad),
        }
    elapsed = time.perf_counter() - start
    r30, r15 = results[30.0], results[15.0]
    ok = (abs(r30["q_f"] + 4.2) <= 0.15 * 4.2
          and abs(r30["f_rad"] - 14.2) <= 0.15 * 14.2
          and abs(r15["f_rad"] - 40.7) <= 0.15 * 40.7
          and abs(r30["gamma_nr"] - 0.040) <= 0.25 * 0.040
          and abs(r30["f_p"] - 12.2) <= 0.15 * 12.2
          and abs(r15["f_p"] - 35.1) <= 0.15 * 35.1
          and r30["identity"] <= 1e-10 and r15["identity"] <= 1e-10
          and elapsed < 120.0)
    detail = (f"q_F {r30['q_f']:.2f} (-4.2 +- 15%), F_rad {r30['f_rad']:.1f}/"
              f"{r15['f_rad']:.1f} (14.2/40.7 +- 15%), Gamma1_nr "
              f"{r30['gamma_nr']*1e3:.1f} meV (40 +- 25%), F_p {r30['f_p']:.1f}/"
              f"{r15['f_p']:.1f} (12.2/35.1 +- 15%), identity residual "
              f"{max(r30['identity'], r15['identity']):.1e}")
    assert _record("criterion-4 Fano regime", ok, detail, elapsed)


def criterion_5_quasistatic_exactness():
    # omega_p sqrt(n/(2n+1)) for a lossless Drude metal to 1e-6, and the
    # closed form's residual in its own permittivity, lossy metals included
    start = time.perf_counter()
    result = check_qs_resonance()
    assert _record("criterion-5 quasi-static exactness", result.passed,
                   result.detail, time.perf_counter() - start)


def criterion_6_sum_rule():
    # sum gamma0n/gamma0_rad = 1 to 1e-6 over 60 orders
    start = time.perf_counter()
    result = check_sum_rule()
    assert _record("criterion-6 sum rule", result.passed, result.detail,
                   time.perf_counter() - start)


def _random_fano_modes(rng, n_modes, emitter):
    fractions = rng.dirichlet(np.ones(n_modes + 1))[:n_modes]
    modes = []
    for k in range(n_modes):
        gamma_rad = 0.02 + 0.05 * rng.random()
        gamma_nr = 0.005 + 0.02 * rng.random()
        g = 0.01 + 0.05 * rng.random()
        alpha = math.sqrt(fractions[k] * emitter.gamma0_rad * gamma_rad) / g
        if rng.random() < 0.5:
            alpha = -alpha
        modes.append(ModeParams(n=k + 1, omega_n=2.3 + 0.6 * rng.random(),
                                gamma_n=gamma_rad + gamma_nr, g=g,
                                gamma_rad=gamma_rad, gamma_nr=gamma_nr,
                                alpha=alpha))
    return modes


def criterion_7_route_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_pop = worst_trace = worst_pos = 0.0
    worst_biortho = worst_secular = worst_gauge = worst_alpha0 = 0.0
    for _ in range(20):
        emitter = EmitterSpec(omega0=2.5, d_eg=8.0,
                              eta=0.5 + 0.4 * rng.random(),
                              gamma0=0.004 + 0.01 * rng.random())
        n_modes = int(rng.integers(1, 6))
        modes = _random_fano_modes(rng, n_modes, emitter)
        space = build_state_space(n_modes)
        h_s = build_system_hamiltonian(modes, emitter, space)
        times = np.linspace(0.0, 150.0, 13)
        psi0 = np.zeros(n_modes + 1, complex)
        psi0[0] = 1
        for kind in ("standard", "fano_radiative", "fano_full"):
            dis = build_dissipators(kind, modes, emitter, space)
            liou = build_liouvillian(h_s, dis, space)
            states = evolve_master(liou, pure_state(space, 1), times)
            ham = effective_hamiltonian_from_lindblad(h_s, dis)
            amps = evolve(ham, psi0, times)
            for s, a in zip(states, amps):
                psi = np.concatenate(([a.c_e], a.c_n))
                worst_pop = max(worst_pop, float(np.max(np.abs(
                    single_excitation_projection(s)
                    - np.outer(psi, psi.conj())))))
                worst_trace = max(worst_trace, abs(np.trace(s.rho).real - 1.0))
                worst_pos = max(worst_pos, -float(np.min(
                    np.linalg.eigvalsh(0.5 * (s.rho + s.rho.conj().T)))))

        # spectral-structure sub-criteria on the standard Hamiltonian
        ham = build_standard(modes, emitter)
        dressed = eigendecompose(ham)
        gram = dressed.left.conj().T @ dressed.right
        worst_biortho = max(worst_biortho, float(np.max(np.abs(
            gram - np.eye(n_modes + 1)))))
        worst_secular = max(worst_secular,
                            max(arrowhead_secular_residual(ham.matrix, lam)
                                for lam in dressed.eigenvalues))
        signs = rng.choice([-1.0, 1.0], size=n_modes)
        lam1 = np.sort_complex(dressed.eigenvalues)
        lam2 = np.sort_complex(
            eigendecompose(flip_coupling_gauge(ham, signs)).eigenvalues)
        worst_gauge = max(worst_gauge, float(np.max(np.abs(lam1 - lam2))))

        # alpha -> 0 reduction is matrix-exact
        zeroed = [ModeParams(n=m.n, omega_n=m.omega_n, gamma_n=m.gamma_n,
                             g=m.g, gamma_rad=m.gamma_n, gamma_nr=0.0,
                             alpha=0.0) for m in modes]
        worst_alpha0 = max(worst_alpha0, float(np.max(np.abs(
            build_fano(zeroed, emitter, "general").matrix
            - build_standard(zeroed, emitter).matrix))))
    elapsed = time.perf_counter() - start
    ok = (worst_pop <= 1e-6 and worst_trace <= 1e-9 and worst_pos <= 1e-9
          and worst_biortho <= 1e-10 and worst_secular <= 1e-8
          and worst_gauge <= 1e-10 and worst_alpha0 == 0.0)
    detail = (f"pop dev {worst_pop:.1e} (<=1e-6), trace {worst_trace:.1e} "
              f"(<=1e-9), positivity {worst_pos:.1e} (<=1e-9), biortho "
              f"{worst_biortho:.1e} (<=1e-10), secular {worst_secular:.1e} "
              f"(<=1e-8), gauge {worst_gauge:.1e} (<=1e-10), alpha0 "
              f"{worst_alpha0:.1e} (exact)")
    assert _record("criterion-7 route equivalence", ok, detail, elapsed)


def criterion_8_fitter_roundtrip():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    # 50 Lorentzian draws of (omega_n, Gamma_n, g), fitted as one batch
    truth = np.array([(2.3 + 0.8 * rng.random(), 0.01 + 0.1 * rng.random(),
                       10 ** (-3 + 2 * rng.random())) for _ in range(50)])
    wn, gamma = truth[:, :1], truth[:, 1:2]
    grids = np.linspace(wn - 5 * gamma, wn + 5 * gamma, 121, axis=-1)[:, 0]
    fits = fit_lorentzians([1] * len(truth), grids,
                           lorentzian_kappa2(grids, wn, gamma, truth[:, 2:]))
    for fitted in fits:
        if not isinstance(fitted, ModeParams):
            raise fitted
    fitted = np.array([[f.omega_n, f.gamma_n, f.g] for f in fits])
    worst_lor = float(np.max(np.abs(fitted - truth) / truth))
    worst_fano = 0.0
    geo = Geometry.from_surface_distance(50.0, 30.0)
    em = EmitterSpec.from_dipole(2.6, 1.0)
    for _ in range(50):
        wn = 2.45 + 0.3 * rng.random()
        gamma_rad = 0.12 + 0.25 * rng.random()
        g = (1 if rng.random() < 0.5 else -1) * 10 ** (-4.5 + rng.random())
        grid = np.linspace(wn - 3 * gamma_rad, wn + 3 * gamma_rad, 121)
        data = fano_rate_model(grid, 1, geo, em, wn, gamma_rad, g)
        [fitted] = fit_fano_rate(grid, [data], 1, [geo], em)
        sign = 1.0 if fitted.alpha >= 0 else -1.0
        worst_fano = max(worst_fano,
                         abs(fitted.omega_n - wn) / wn,
                         abs(fitted.gamma_rad - gamma_rad) / gamma_rad,
                         abs(sign * fitted.g - g) / abs(g))
    elapsed = time.perf_counter() - start
    ok = worst_lor <= 1e-6 and worst_fano <= 1e-6
    detail = (f"100 draws: Lorentzian worst rel err {worst_lor:.1e}, "
              f"Fano worst rel err {worst_fano:.1e} (<= 1e-6)")
    assert _record("criterion-8 fitter round-trip", ok, detail, elapsed)


test_criterion_1 = criterion_1_small_mnp_linewidths
test_criterion_2 = criterion_2_strong_coupling
test_criterion_3 = criterion_3_weak_coupling
test_criterion_4 = criterion_4_fano_regime
test_criterion_5 = criterion_5_quasistatic_exactness
test_criterion_6 = criterion_6_sum_rule
test_criterion_7 = criterion_7_route_equivalence
test_criterion_8 = criterion_8_fitter_roundtrip


def main():
    failures = 0
    for fn in (criterion_1_small_mnp_linewidths, criterion_2_strong_coupling,
               criterion_3_weak_coupling, criterion_4_fano_regime,
               criterion_5_quasistatic_exactness, criterion_6_sum_rule,
               criterion_7_route_equivalence, criterion_8_fitter_roundtrip):
        try:
            fn()
        except AssertionError:
            failures += 1
    print(f"\n{8 - failures}/8 acceptance criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
