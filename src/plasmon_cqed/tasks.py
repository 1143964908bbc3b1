"""Scenario task graph: material -> Mie -> fits -> H_eff -> dynamics /
spectra / rates -> Lindblad, plus the paper-figure reproduction suite.

Each task writes CSV data files with a JSON sidecar of fitted and derived
parameters through a RunWriter, so a failed task can remove its partial
outputs and the manifest can checksum everything that was kept.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__
from .constants import HBAR_C_EV_NM, HBAR_EV_FS, HBAR_EV_S
from .coupling import (
    extract_mode_sweep,
    extract_modes,
    fit_fano_rate,
    fano_rate_model,
    kappa_spectra,
    rate_spectrum_lsp,
)
from .errors import SchemaError
from .heff import (
    build_standard,
    eigendecompose,
    evolve,
    polarization_spectrum,
    radiated_spectrum,
)
from .lindblad import (
    build_dissipators,
    build_liouvillian,
    build_state_space,
    build_system_hamiltonian,
    effective_hamiltonian_from_lindblad,
    evolve_master,
    _heff_deviation,
    pure_state,
)
from .medium import EmitterSpec, Geometry, MaterialModel, radiative_rate, silver
from .output import RunWriter
from .scenario import Scenario
from .weak import adiabatic_rates, broadened_rate, fermi_rate, purcell_factors

# Paper-anchored reference points used by the figure suite and its summary.
STRONG_COUPLING_DIPOLE_D = 24.5   # calibrated to the 144 meV splitting
STRONG_COUPLING_GAMMA0_EV = 0.015
STRONG_COUPLING_OMEGA0_EV = 2.94
WEAK_COUPLING_WAVELENGTH_NM = 670.0
WEAK_COUPLING_TAU0_NS = 50.0
WEAK_COUPLING_ETA = 0.9
FANO_FIT_WINDOW_EV = (2.2, 3.1)

REFERENCE_VALUES = {
    "splitting_mev": (144.0, 0.10),
    "peak_separation_mev": (144.0, 0.10),
    "c1_peak_ev": (2.79, 0.030 / 2.79),
    "gamma_ratio": (30.0, 0.15),
    "lifetime_ns": (1.7, 0.15),
    "q_fano": (-4.2, 0.15),
    "f_rad_h30": (14.2, 0.15),
    "f_rad_h15": (40.7, 0.15),
    "gamma1_nr_mev": (40.0, 0.25),
    "f_p_h30": (12.2, 0.15),
    "f_p_h15": (35.1, 0.15),
}


def _mode_row(mode, emitter):
    return {
        "n": mode.n,
        "omega_n_ev": mode.omega_n,
        "gamma_n_ev": mode.gamma_n,
        "g_ev": mode.g,
        "detuning_ev": mode.omega_n - emitter.omega0,
        "gamma_rad_ev": mode.gamma_rad,
        "gamma_nr_ev": mode.gamma_nr,
        "alpha": mode.alpha,
        "fit_residual": mode.fit_residual,
    }


def _emitter_payload(emitter: EmitterSpec, geometry: Geometry):
    g_rad = radiative_rate(emitter.omega0, emitter.d_eg, geometry.n_b)
    return {
        "omega0_ev": emitter.omega0,
        "d_eg_debye": emitter.d_eg,
        "eta": emitter.eta,
        "gamma0_ev": emitter.gamma0,
        "tau0_ns": emitter.tau0_ns,
        "dipole_implied_gamma0_rad_ev": g_rad,
        "dipole_implied_gamma0_ev": g_rad / emitter.eta,
    }


def _write_kappa_spectra(writer: RunWriter, name, grid, n_modes, geometry,
                         material, emitter, comments):
    """CSV of |kappa_wn|^2 for n = 1..n_modes on the grid, one column per mode."""
    spectra = kappa_spectra(n_modes, grid, geometry, material, emitter)
    writer.csv(name,
               ["omega_ev"] + [f"kappa2_lsp{n}_ev" for n in range(1, n_modes + 1)],
               np.column_stack((grid, spectra.T)), comments=comments)


def task_spectra(sc: Scenario, writer: RunWriter):
    _write_kappa_spectra(
        writer, "spectra.csv", sc.omega_grid.build(), sc.n_modes, sc.geometry,
        sc.material, sc.emitter,
        ["coupling spectra hbar^2|kappa_wn|^2 (eV)",
         f"R={sc.geometry.radius} nm, h={sc.geometry.h} nm"])


def task_fit(sc: Scenario, writer: RunWriter):
    modes = extract_modes(sc.n_modes, sc.geometry, sc.material, sc.emitter)
    writer.json("modes.json", {
        "emitter": _emitter_payload(sc.emitter, sc.geometry),
        "modes": [_mode_row(m, sc.emitter) for m in modes],
    })
    writer.csv(
        "modes.csv",
        ["n", "omega_n_ev", "gamma_n_ev", "g_ev", "detuning_ev", "fit_residual"],
        [[m.n, m.omega_n, m.gamma_n, m.g, m.omega_n - sc.emitter.omega0,
          m.fit_residual] for m in modes],
        comments=["Lorentzian mode parameters (eV)"])
    return modes


def _spectrum_peaks(values):
    """Indices of the strict interior maxima, highest first, ties in grid order."""
    inner = values[1:-1]
    peaks = np.flatnonzero((inner > values[:-2]) & (inner > values[2:])) + 1
    return peaks[np.argsort(-values[peaks], kind="stable")]


def _dressed_spectra(modes, emitter, grid, geometry, material):
    """Standard H_eff of the modes, its dressed set, the polarization and
    radiated spectra on the grid, and the scalars read off them: the
    splitting of the two states with the largest emitter weight, the
    separation of the two highest polarization peaks (0 with fewer than two)
    and the |C_1(w)|^2 peak."""
    ham = build_standard(modes, emitter)
    dressed = eigendecompose(ham)
    pol = polarization_spectrum(ham, grid)
    rad = radiated_spectrum(ham, grid, geometry, material)
    m1, m2 = np.argsort(-np.abs(dressed.weights))[:2]
    peaks = _spectrum_peaks(pol.values)
    scalars = {
        "dominant_states": [int(m1) + 1, int(m2) + 1],
        "splitting_ev": abs(dressed.frequencies[m1] - dressed.frequencies[m2]),
        "polarization_peak_separation_ev":
            abs(grid[peaks[0]] - grid[peaks[1]]) if len(peaks) >= 2 else 0.0,
        "c1_peak_ev": float(grid[int(np.argmax(rad.lsp1_population))]),
    }
    return dressed, pol, rad, scalars


def task_dressed(sc: Scenario, writer: RunWriter):
    modes = task_fit(sc, writer)
    grid = sc.omega_grid.build()
    dressed, pol, rad, scalars = _dressed_spectra(
        modes, sc.emitter, grid, sc.geometry, sc.material)
    weight_table = dressed.weight_table()
    columns = ["m", "omega_abs_ev", "gamma_m_ev", "weight_m0_sq"] + \
        [f"weight_lsp{m.n}" for m in modes]
    rows = []
    for m in range(len(dressed.eigenvalues)):
        rows.append([m + 1, sc.emitter.omega0 + dressed.frequencies[m],
                     dressed.widths[m], abs(dressed.weights[m])]
                    + list(weight_table[m, 1:]))
    writer.csv("dressed.csv", columns, rows,
               comments=["dressed states: lambda_m = omega_m - i gamma_m/2",
                         "weight_m0_sq is |m0|^2 in the biorthogonal gauge"])
    writer.csv("polarization.csv", ["omega_ev", "p"],
               list(zip(grid, pol.values)),
               comments=["near-field polarization spectrum"])
    writer.csv("radiated.csv",
               ["omega_ev", "p_rad", "lsp1_population", "gamma_rad_ev"],
               list(zip(grid, rad.p_rad, rad.lsp1_population, rad.gamma_rad)),
               comments=["far-field power and |C_1(w)|^2 proxy"])
    payload = {"n_states": len(dressed.eigenvalues), **scalars}
    writer.json("dressed.json", payload)
    return payload


def task_dynamics(sc: Scenario, writer: RunWriter):
    modes = extract_modes(sc.n_modes, sc.geometry, sc.material, sc.emitter)
    ham = build_standard(modes, sc.emitter)
    times_fs = sc.time_grid.build()
    psi0 = np.zeros(sc.n_modes + 1, dtype=complex)
    psi0[0] = 1.0
    states = evolve(ham, psi0, times_fs / HBAR_EV_FS)
    columns = ["t_fs", "pop_e"] + [f"pop_lsp{m.n}" for m in modes] + ["norm_sq"]
    rows = [[t] + [abs(s.c_e) ** 2] + [abs(c) ** 2 for c in s.c_n] + [s.norm_sq]
            for t, s in zip(times_fs, states)]
    writer.csv("populations.csv", columns, rows,
               comments=["single-excitation amplitudes |C|^2 vs time"])


def task_rates(sc: Scenario, writer: RunWriter):
    modes = extract_modes(sc.n_modes, sc.geometry, sc.material, sc.emitter)
    adiab = adiabatic_rates(modes, sc.emitter)
    [fermi] = fermi_rate(sc.emitter.omega0, [sc.geometry], sc.material, sc.emitter)
    broad = broadened_rate(modes, sc.emitter)
    writer.csv(
        "rates.csv",
        ["n", "omega_n_ev", "gamma_n_ev", "g_ev", "purcell_fp", "quality_q",
         "gamma_n_adiabatic_ev", "gamma_n_broadened_ev"],
        [[m.n, m.omega_n, m.gamma_n, m.g, adiab.purcell[i], adiab.quality[i],
          adiab.gamma_n[i], broad[i]] for i, m in enumerate(modes)],
        comments=["per-mode weak-coupling rate budget (eV)"])
    payload = {
        "emitter": _emitter_payload(sc.emitter, sc.geometry),
        "lamb_shift_ev": adiab.lamb_shift,
        "gamma_tot_ev": adiab.gamma_tot,
        "enhancement_adiabatic": adiab.enhancement,
        "enhancement_fermi": fermi,
        "lifetime_ns": HBAR_EV_S / adiab.gamma_tot / 1e-9,
    }
    writer.csv("rates_summary.csv", ["key", "value"],
               [[k, v] for k, v in payload.items() if k != "emitter"],
               comments=["scenario-level rate report"])
    writer.json("rates.json", payload)
    return payload


def _fano_fit(material: MaterialModel, omega0: float, geometry: Geometry, grid):
    """Two-stage Fano fit of the LSP_1 rate on the grid: a lossless fit, then
    a lossy refit of Gamma_nr with {omega_1, Gamma_rad, g} frozen.

    Returns the columns (lossless rate, its fit, lossy rate, its fit) and the
    scalar report, including the Purcell identity F_p = Gamma_rad/Gamma F_rad.
    """
    emitter = EmitterSpec.from_dipole(omega0, 1.0, 0.0, geometry.n_b)
    data_f = rate_spectrum_lsp(1, grid, geometry, material.lossless())
    mode_f = fit_fano_rate(grid, data_f, 1, geometry, emitter)
    data_l = rate_spectrum_lsp(1, grid, geometry, material)
    mode_l = fit_fano_rate(grid, data_l, 1, geometry, emitter, frozen=mode_f)
    sign = 1.0 if (mode_f.alpha or 0) >= 0 else -1.0
    columns = (
        data_f,
        fano_rate_model(grid, 1, geometry, emitter, mode_f.omega_n,
                        mode_f.gamma_rad, sign * mode_f.g),
        data_l,
        fano_rate_model(grid, 1, geometry, emitter, mode_l.omega_n,
                        mode_l.gamma_rad, sign * mode_l.g, mode_l.gamma_nr),
    )
    # the lossy fit froze g and Gamma_rad; an emitter at omega_1 is on resonance
    purcell = purcell_factors([mode_l], EmitterSpec.from_dipole(
        mode_f.omega_n, emitter.d_eg, 0.0, geometry.n_b))
    f_rad, f_p = float(purcell.purcell_rad[0]), float(purcell.purcell[0])
    return columns, {
        "omega1_ev": mode_f.omega_n,
        "gamma1_rad_ev": mode_f.gamma_rad,
        "g1_ev": mode_f.g,
        "alpha1": mode_f.alpha,
        "q_fano": 2.0 / mode_f.alpha,
        "f_rad": f_rad,
        "gamma1_nr_ev": mode_l.gamma_nr,
        "f_p": f_p,
        "purcell_identity_residual": abs(
            f_p - mode_l.gamma_rad / mode_l.gamma_n * f_rad),
        "fit_residual_lossless": mode_f.fit_residual,
        "fit_residual_lossy": mode_l.fit_residual,
    }


def task_fano(sc: Scenario, writer: RunWriter):
    grid = sc.omega_grid.build()
    columns, payload = _fano_fit(sc.material, sc.emitter.omega0, sc.geometry, grid)
    writer.csv(
        "fano_rate.csv",
        ["omega_ev", "lambda_nm", "rate_lossless", "fit_lossless",
         "rate_lossy", "fit_lossy"],
        [[w, 2 * math.pi * HBAR_C_EV_NM / w] + [c[i] for c in columns]
         for i, w in enumerate(grid)],
        comments=["normalized decay rate into LSP_1 and its Fano fits"])
    writer.json("fano.json", payload)
    return payload


def task_lindblad(sc: Scenario, writer: RunWriter):
    import time

    n_modes = sc.n_modes
    modes = extract_modes(n_modes, sc.geometry, sc.material, sc.emitter)
    space = build_state_space(n_modes)
    h_s = build_system_hamiltonian(modes, sc.emitter, space)
    dis = build_dissipators("standard", modes, sc.emitter, space)
    liou = build_liouvillian(h_s, dis, space)
    times_fs = sc.time_grid.build()
    t0 = time.perf_counter()
    states = evolve_master(liou, pure_state(space, 1), times_fs / HBAR_EV_FS)
    t_master = time.perf_counter() - t0

    ham = effective_hamiltonian_from_lindblad(h_s, dis)
    psi0 = np.zeros(n_modes + 1, dtype=complex)
    psi0[0] = 1.0
    t0 = time.perf_counter()
    amps = evolve(ham, psi0, times_fs / HBAR_EV_FS)
    t_heff = time.perf_counter() - t0
    writer.note(f"lindblad/heff runtime ratio {t_master / max(t_heff, 1e-9):.1f} "
                f"(Liouville dimension {(n_modes + 2) ** 2}, propagated by one "
                f"column of the sector propagator of side {n_modes + 1}; "
                f"H_eff side {n_modes + 1})")
    deviation = _heff_deviation(states, amps)

    columns = ["t_fs", "pop_ground", "pop_e"] + \
        [f"pop_lsp{m.n}" for m in modes] + ["trace"]
    rows = [[t] + [s.population(k) for k in range(space.dim)] + [s.trace]
            for t, s in zip(times_fs, states)]
    writer.csv("lindblad_populations.csv", columns, rows,
               comments=["master-equation populations (standard dissipators)"])
    payload = {
        "n_modes": n_modes,
        "liouville_dimension": (n_modes + 2) ** 2,
        "heff_dimension": n_modes + 1,
        "max_population_deviation": deviation,
    }
    writer.json("lindblad.json", payload)
    return payload


def _strong_coupling_inputs():
    geometry = Geometry.from_surface_distance(8.0, 2.0)
    emitter = EmitterSpec(omega0=STRONG_COUPLING_OMEGA0_EV,
                          d_eg=STRONG_COUPLING_DIPOLE_D,
                          eta=1e-6, gamma0=STRONG_COUPLING_GAMMA0_EV)
    return geometry, emitter


def _weak_coupling_emitter():
    omega0 = 2 * math.pi * HBAR_C_EV_NM / WEAK_COUPLING_WAVELENGTH_NM
    return EmitterSpec.from_lifetime(omega0, WEAK_COUPLING_TAU0_NS,
                                     WEAK_COUPLING_ETA)


def _check(value, key):
    ref, tol = REFERENCE_VALUES[key]
    ok = abs(value - ref) <= abs(ref) * tol
    return {"value": value, "reference": ref, "tolerance": tol, "pass": bool(ok)}


def figure_suite(sc: Scenario, writer: RunWriter):
    """Reproduce the data behind the figure set and compare the extracted
    scalars against their reference values."""
    material = silver()
    writer.note("figure suite uses Drude silver regardless of scenario material")
    writer.note("coupling-spectra MNP radius assumed 8 nm (unstated in source)")
    writer.note(f"strong-coupling dipole calibrated to {STRONG_COUPLING_DIPOLE_D} D")
    summary = {}

    # -- coupling spectra, small particle (R=8, h=2), n = 1..6
    geometry, sc_emitter = _strong_coupling_inputs()
    _write_kappa_spectra(writer, "fig2.csv", np.linspace(2.4, 3.2, 401), 6,
                         geometry, material, sc_emitter,
                         ["coupling spectra, R=8 nm, h=2 nm"])

    # -- coupling strength and mode width vs surface distance
    h_values = [1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 14.0, 18.0]
    per_h = extract_mode_sweep(
        4, [Geometry.from_surface_distance(8.0, h) for h in h_values],
        material, sc_emitter)
    writer.csv(
        "fig3.csv",
        ["h_nm"] + [f"two_g_lsp{n}_mev" for n in range(1, 5)]
        + [f"gamma_lsp{n}_mev" for n in range(1, 5)],
        [[h] + [2e3 * m.g for m in modes] + [1e3 * m.gamma_n for m in modes]
         for h, modes in zip(h_values, per_h)],
        comments=["coupling strength 2*hbar*g_n and width vs surface distance"])

    # -- strong coupling: dressed states, polarization, far field
    modes25 = extract_modes(25, geometry, material, sc_emitter)
    grid_pol = np.linspace(2.4, 3.4, 2001)
    _, pol, rad, scalars = _dressed_spectra(modes25, sc_emitter, grid_pol,
                                            geometry, material)
    writer.csv("fig4b.csv", ["omega_ev", "p", "p_normalized"],
               list(zip(grid_pol, pol.values, pol.values / pol.values.max())),
               comments=["polarization spectrum, omega0 = 2.94 eV, N = 25"])
    writer.csv("fig5.csv",
               ["omega_ev", "p_rad_normalized", "lsp1_population_normalized"],
               list(zip(grid_pol, rad.p_rad / rad.p_rad.max(),
                        rad.lsp1_population / rad.lsp1_population.max())),
               comments=["far-field power and LSP_1 population proxy"])
    summary["splitting_mev"] = _check(scalars["splitting_ev"] * 1e3,
                                      "splitting_mev")
    summary["peak_separation_mev"] = _check(
        scalars["polarization_peak_separation_ev"] * 1e3, "peak_separation_mev")
    summary["c1_peak_ev"] = _check(scalars["c1_peak_ev"], "c1_peak_ev")

    # -- weak coupling: decay dynamics and distance sweep
    wk_emitter = _weak_coupling_emitter()
    h_wk = (2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 14.0, 20.0)
    geos_wk = [Geometry.from_surface_distance(8.0, h) for h in h_wk]
    modes_by_h = extract_mode_sweep(20, geos_wk, material, wk_emitter)
    modes_wk = modes_by_h[h_wk.index(5.0)]
    adiab = adiabatic_rates(modes_wk, wk_emitter)
    times_ns = np.linspace(0.0, 8.0, 161)
    psi0 = np.zeros(21, dtype=complex)
    psi0[0] = 1.0
    states = evolve(build_standard(modes_wk, wk_emitter), psi0,
                    times_ns * 1e-9 / HBAR_EV_S)
    pops = np.array([abs(s.c_e) ** 2 for s in states])
    writer.csv("fig6a.csv", ["t_ns", "pop_e"], list(zip(times_ns, pops)),
               comments=["excited-state dynamics, R=8 nm, h=5 nm"])
    slope = np.polyfit(times_ns[pops > 1e-12] * 1e-9 / HBAR_EV_S,
                       np.log(pops[pops > 1e-12]), 1)[0]
    lifetime_ns = HBAR_EV_S / (-slope) / 1e-9
    summary["gamma_ratio"] = _check(adiab.enhancement, "gamma_ratio")
    summary["lifetime_ns"] = _check(lifetime_ns, "lifetime_ns")

    fermi = fermi_rate(wk_emitter.omega0, geos_wk, material, wk_emitter)
    sweep = [[h, adiabatic_rates(modes, wk_emitter).enhancement, f]
             for h, modes, f in zip(h_wk, modes_by_h, fermi)]
    writer.csv("fig6b.csv", ["h_nm", "gamma_ratio_adiabatic", "gamma_ratio_fermi"],
               sweep, comments=["normalized decay rate vs surface distance"])

    # -- large particle: leaky coupling spectra (R=50, h=5)
    _write_kappa_spectra(writer, "fig8.csv", np.linspace(2.0, 3.2, 401), 6,
                         Geometry.from_surface_distance(50.0, 5.0), material,
                         sc_emitter,
                         ["coupling spectra, R=50 nm, h=5 nm (LSP_1 asymmetric)"])

    # -- Fano fits at R=50 for h = 30 and h = 15
    grid_f = np.linspace(*FANO_FIT_WINDOW_EV, 301)
    results = {}
    fig9_cols = {}
    for h in (30.0, 15.0):
        fig9_cols[h], results[h] = _fano_fit(
            material, sc_emitter.omega0, Geometry.from_surface_distance(50.0, h),
            grid_f)
    writer.csv(
        "fig9.csv",
        ["omega_ev", "lambda_nm",
         "h30_lossless_rate", "h30_lossless_fit", "h30_lossy_rate", "h30_lossy_fit",
         "h15_lossless_rate", "h15_lossless_fit", "h15_lossy_rate", "h15_lossy_fit"],
        [[w, 2 * math.pi * HBAR_C_EV_NM / w]
         + [c[i] for c in fig9_cols[30.0]]
         + [c[i] for c in fig9_cols[15.0]]
         for i, w in enumerate(grid_f)],
        comments=["normalized LSP_1 decay rate and Fano fits, R=50 nm"])

    summary["q_fano"] = _check(results[30.0]["q_fano"], "q_fano")
    summary["f_rad_h30"] = _check(results[30.0]["f_rad"], "f_rad_h30")
    summary["f_rad_h15"] = _check(results[15.0]["f_rad"], "f_rad_h15")
    summary["gamma1_nr_mev"] = _check(results[30.0]["gamma1_nr_ev"] * 1e3,
                                      "gamma1_nr_mev")
    summary["f_p_h30"] = _check(results[30.0]["f_p"], "f_p_h30")
    summary["f_p_h15"] = _check(results[15.0]["f_p"], "f_p_h15")
    summary["purcell_identity_residual"] = {
        "value": max(results[h]["purcell_identity_residual"] for h in results),
        "reference": 0.0,
        "tolerance": 1e-10,
        "pass": bool(all(results[h]["purcell_identity_residual"] <= 1e-10
                         for h in results)),
    }
    summary["all_pass"] = bool(all(
        v["pass"] for v in summary.values() if isinstance(v, dict)))
    writer.json("summary.json", summary)
    return summary


TASK_RUNNERS = {
    "spectra": task_spectra,
    "fit": task_fit,
    "dressed": task_dressed,
    "dynamics": task_dynamics,
    "rates": task_rates,
    "fano": task_fano,
    "lindblad": task_lindblad,
    "figure-suite": figure_suite,
}


def run_scenario(sc: Scenario, out_dir: str | None = None):
    """Execute the scenario task, manifest everything written, and return the
    manifest path.  Partial outputs are removed on failure."""
    import time

    target = out_dir or sc.out_dir
    writer = RunWriter(target)
    runner = TASK_RUNNERS.get(sc.task)
    if runner is None:
        raise SchemaError("run.task", f"unknown task {sc.task!r}")
    start = time.perf_counter()
    try:
        runner(sc, writer)
    except Exception:
        writer.discard_all()
        raise
    writer.manifest(sc.raw, __version__, time.perf_counter() - start)
    return writer
