"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed (plus, for the scenario files,
the output directory they are written to), so the same seed gives the same
inputs.  The package under test only ever sees the generated files and values.

Scenario batch: one pass is a fixed template of slots.  A slot fixes the task
and the work size (mode count, grid points); the seed draws the physics
(material, geometry, emitter, grid bounds) and the order of the slots.  Fixing
the sizes per slot keeps the cost of a pass nearly independent of the seed,
while the drawn geometries differ from slot to slot, so Green-function values
are rarely reused across scenarios.  One slot has fixed physics
(WEAK_LINDBLAD): a scenario the package rejects today.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Drude silver as the package quotes it (eps_inf, hbar omega_p, hbar gamma_p in eV).
SILVER = (6.0, 7.90, 0.051)
TABLE_FILE = "silver_drude_table.txt"
TABLE_GRID_EV = (1.0, 4.5, 351)  # 0.01 eV spacing, covers every scenario grid

# Tasks whose runner fits modes; on a tabulated material the package rejects
# these today (exit 3), and the benchmark counts them as failed operations.
MODE_FITTING_TASKS = ("fit", "dressed", "dynamics", "rates", "lindblad")

# Fixed (not seeded) Lindblad scenario that the package rejects today.  The
# emitter is weakly coupled, so rho changes slowly and RK45 steps up to the
# stability limit of the fast coherences; a parasitic anti-hermitian part of
# rho then grows until the step control (an RMS norm over all elements, atol
# 1e-13) reacts, here to ~1.6e-12, past the 1e-12 hermiticity check (exit 3).
# The same happens in a run that goes on long after the emitter has decayed.
# Seeded Lindblad slots therefore draw strongly coupled, damped emitters over
# short windows (hermiticity error below 1e-16 in 1,100 draws), so the
# number of failed operations does not depend on the seed, and this slot keeps
# the defect in every pass.
WEAK_LINDBLAD = {
    "material": {"kind": "drude", "eps_inf": 6.0, "omega_p_ev": 7.9,
                 "gamma_p_ev": 0.051},
    "geometry": {"radius_nm": 8.7, "eps_b": 1.74, "h_nm": 8.0},
    "emitter": {"omega0_ev": 2.7, "tau0_ns": 20.0, "eta": 0.7},
    "omega_grid": {"min_ev": 2.3, "max_ev": 3.6},
    "max_fs": 700.0,
}


@dataclass(frozen=True)
class Slot:
    task: str
    n_modes: int
    points: int
    # "drude", "tabulated", "fano" (R = 50 nm Drude silver) or "weak"
    # (the fixed WEAK_LINDBLAD scenario)
    material: str


def known_failure(slot: Slot) -> bool:
    """Slots the package rejects today; each fails in every pass."""
    return ((slot.material == "tabulated" and slot.task in MODE_FITTING_TASKS)
            or slot.material == "weak")


# One pass of the scenario-batch workload.  Sizes are chosen so that the
# slowest quarter of the operations costs about the same (0.35-0.5 s on the
# reference host): the tail percentile then lands on a plateau and does not
# jump between operation kinds from seed to seed.
BATCH_TEMPLATE = (
    Slot("spectra", 3, 1001, "drude"),
    Slot("spectra", 12, 201, "drude"),
    Slot("spectra", 6, 401, "drude"),
    Slot("fit", 3, 201, "drude"),
    Slot("fit", 8, 201, "drude"),
    Slot("fit", 12, 201, "drude"),
    Slot("dressed", 6, 2001, "drude"),
    Slot("dressed", 12, 1001, "drude"),
    Slot("dressed", 9, 201, "drude"),
    Slot("dynamics", 4, 401, "drude"),
    Slot("dynamics", 10, 201, "drude"),
    Slot("rates", 5, 201, "drude"),
    Slot("rates", 12, 201, "drude"),
    Slot("lindblad", 6, 201, "drude"),
    Slot("lindblad", 8, 201, "drude"),
    Slot("lindblad", 4, 201, "weak"),
    Slot("fano", 1, 301, "fano"),
    Slot("fano", 1, 401, "fano"),
    Slot("fano", 1, 301, "fano"),
    Slot("spectra", 4, 501, "tabulated"),
    Slot("spectra", 8, 251, "tabulated"),
    Slot("fit", 6, 201, "tabulated"),
    Slot("dressed", 6, 1001, "tabulated"),
    Slot("dynamics", 6, 201, "tabulated"),
    Slot("rates", 6, 201, "tabulated"),
    Slot("lindblad", 4, 201, "tabulated"),
)

# Smallest mix that still reaches every code path kind; used by the smoke tests.
TINY_BATCH_TEMPLATE = (
    Slot("spectra", 2, 201, "drude"),
    Slot("fit", 2, 201, "drude"),
    Slot("lindblad", 2, 201, "drude"),
    Slot("fano", 1, 201, "fano"),
    Slot("spectra", 2, 201, "tabulated"),
    Slot("fit", 2, 201, "tabulated"),
)


def drude_table(eps_inf: float, omega_p: float, gamma_p: float,
                grid_ev=TABLE_GRID_EV) -> np.ndarray:
    """Rows (hbar omega eV, Re eps, Im eps) sampled from a Drude permittivity."""
    w = np.linspace(*grid_ev)
    eps = eps_inf - omega_p**2 / (w**2 + 1j * gamma_p * w)
    return np.column_stack([w, eps.real, eps.imag])


def write_table(path: str, rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# Drude silver sampled on a uniform grid\n")
        fh.write("# hbar_omega_eV  Re_eps  Im_eps\n")
        for w, re, im in rows:
            fh.write(f"{w:.6f} {re:.12g} {im:.12g}\n")


def _dipolar_resonance(eps_inf, omega_p, eps_b):
    """Lossless Drude estimates of the LSP_1 and the high-order (n -> inf) lines."""
    return (omega_p / np.sqrt(eps_inf + 2.0 * eps_b),
            omega_p / np.sqrt(eps_inf + eps_b))


def _emitter(rng, omega0, dipole_form: bool):
    if dipole_form:
        return {"omega0_ev": omega0,
                "d_eg_debye": float(rng.uniform(5.0, 25.0)),
                "gamma0_nr_ev": float(rng.uniform(0.0, 0.02))}
    return {"omega0_ev": omega0,
            "tau0_ns": float(rng.uniform(5.0, 50.0)),
            "eta": float(rng.uniform(0.5, 1.0))}


def scenario_for_slot(rng, slot: Slot, index: int, table_ref: str) -> dict:
    """Draw the physics of one scenario; the slot fixes task and work size."""
    if slot.material == "weak":
        fixed = WEAK_LINDBLAD
        return _scenario(fixed["material"], fixed["geometry"], fixed["emitter"],
                         dict(fixed["omega_grid"], points=slot.points),
                         fixed["max_fs"], slot, index)
    if slot.material == "fano":
        eps_inf, omega_p, gamma_p = SILVER
        material = {"kind": "drude", "eps_inf": eps_inf, "omega_p_ev": omega_p,
                    "gamma_p_ev": gamma_p}
        geometry = {"radius_nm": 50.0, "eps_b": 1.0,
                    "h_nm": float(rng.uniform(15.0, 30.0))}
        grid = {"min_ev": float(rng.uniform(2.15, 2.25)),
                "max_ev": float(rng.uniform(3.05, 3.15)), "points": slot.points}
        emitter = _emitter(rng, float(rng.uniform(2.4, 2.8)), True)
        max_fs = rng.uniform(300.0, 700.0)
    else:
        if slot.material == "tabulated":
            eps_inf, omega_p, gamma_p = SILVER
            material = {"kind": "tabulated", "file": table_ref}
        else:
            eps_inf = float(rng.uniform(5.0, 7.0))
            omega_p = float(rng.uniform(7.6, 8.3))
            gamma_p = float(rng.uniform(0.04, 0.08))
            material = {"kind": "drude", "eps_inf": eps_inf,
                        "omega_p_ev": omega_p, "gamma_p_ev": gamma_p}
        # Lindblad runs get close gaps, strong damped emitters and short
        # windows (see WEAK_LINDBLAD).
        lindblad = slot.task == "lindblad"
        eps_b = float(rng.uniform(1.0, 1.77))
        geometry = {"radius_nm": float(rng.uniform(6.0, 12.0)), "eps_b": eps_b,
                    "h_nm": float(rng.uniform(1.5, 5.0 if lindblad else 10.0))}
        w1, w_inf = _dipolar_resonance(eps_inf, omega_p, eps_b)
        grid = {"min_ev": float(w1 - rng.uniform(0.3, 0.5)),
                "max_ev": float(w_inf + rng.uniform(0.2, 0.4)),
                "points": slot.points}
        omega0 = float(rng.uniform(w1 - 0.1, w_inf + 0.1))
        if lindblad:
            emitter = {"omega0_ev": omega0,
                       "d_eg_debye": float(rng.uniform(15.0, 25.0)),
                       "gamma0_nr_ev": float(rng.uniform(0.01, 0.02))}
        else:
            # every third emitter is given by lifetime and yield, the rest by dipole
            emitter = _emitter(rng, omega0, index % 3 != 0)
        max_fs = rng.uniform(*((150.0, 300.0) if lindblad else (300.0, 700.0)))
    return _scenario(material, geometry, emitter, grid, float(max_fs), slot, index)


def _scenario(material, geometry, emitter, grid, max_fs, slot, index) -> dict:
    return {
        "material": material,
        "geometry": geometry,
        "emitter": emitter,
        "run": {
            "task": slot.task,
            "n_modes": slot.n_modes,
            "omega_grid": grid,
            "time_grid": {"min_fs": 0.0, "max_fs": max_fs, "points": 400},
            "out_dir": f"out/scenario_{index:03d}",
        },
    }


def write_scenario_batch(seed: int, directory: str, template=BATCH_TEMPLATE):
    """Write the tabulated-silver table and one JSON file per template slot.

    Returns [(path, slot)] in run order.  Scenario files name the table by its
    path relative to the current directory, which is where the CLI resolves it.
    """
    os.makedirs(directory, exist_ok=True)
    table_path = os.path.join(directory, TABLE_FILE)
    write_table(table_path, drude_table(*SILVER))
    table_ref = os.path.relpath(table_path)
    rng = np.random.default_rng([seed, 1])
    order = rng.permutation(len(template))
    batch = []
    for index, k in enumerate(order):
        slot = template[int(k)]
        scenario = scenario_for_slot(rng, slot, index, table_ref)
        path = os.path.join(directory, f"scenario_{index:03d}_{slot.task}.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(scenario, fh, indent=1, sort_keys=True)
            fh.write("\n")
        batch.append((path, slot))
    return batch


@dataclass(frozen=True)
class OpenSystemInputs:
    """Seeded inputs of the open-system sweep (R = 8 nm, fitted once)."""

    h_nm: float
    d_eg_debye: float
    gamma0_nr_ev: float
    fit_modes: int
    detunings_ev: tuple   # emitter omega0 - fitted omega_1, one per sweep row
    n_values: tuple
    kinds: tuple
    grid_points: int
    time_points: int


def open_system_inputs(seed: int, scale: str = "full") -> OpenSystemInputs:
    """Stratified detunings: one draw near the middle of each of equal
    sub-intervals of (0.05, 0.45) eV above LSP_1.  Emitters below LSP_1 are
    excluded because the collective Fano channels then carry more radiative
    weight than the free-space rate allows, which the package rejects by
    design.  Detuning, gap and dipole ranges are narrow because the RK45 step
    count grows with detuning and coupling strength; with a full draw per
    sub-interval and 18-22 D dipoles the sweep's RK45 work varied by +-13%
    from seed to seed."""
    rng = np.random.default_rng([seed, 2])
    rows = 3 if scale == "full" else 1
    width = 0.40 / rows
    detunings = tuple(float(0.05 + (k + rng.uniform(0.4, 0.6)) * width)
                      for k in range(rows))
    return OpenSystemInputs(
        h_nm=float(rng.uniform(2.0, 2.4)),
        d_eg_debye=float(rng.uniform(19.0, 21.0)),
        gamma0_nr_ev=float(rng.uniform(0.005, 0.02)),
        fit_modes=12 if scale == "full" else 3,
        detunings_ev=detunings,
        n_values=(4, 8, 12) if scale == "full" else (2, 3),
        kinds=("standard", "fano_radiative", "fano_full"),
        grid_points=2001 if scale == "full" else 201,
        time_points=400 if scale == "full" else 50,
    )
