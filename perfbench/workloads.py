"""The three benchmark workloads.

Each workload has the same shape:
  prepare()          input generation and one-time set-up (timed as set-up);
  operations()       the input set, one entry per operation;
  run(op, out_dir)   one operation, the only timed part;
  check(op, out_dir, result) -> Outcome, outside the timing.

Why these three (see BENCHMARK.json): figure-suite is almost all
specfun/medium/mie time with heavy reuse of the same frequencies;
scenario-batch is many short CLI runs at distinct geometries, so fixed
per-run costs show and Green values are rarely reused; open-system is a
library-level H_eff/Lindblad sweep that does no Green evaluation once set up.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import generate
# Layer functions are called through their modules, so the tracer's wrappers
# (installed on module attributes) see every call.
from plasmon_cqed import cli, coupling, heff, lindblad, medium, output, weak
from plasmon_cqed.constants import HBAR_EV_FS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
# fig*.csv columns must match the reference captured from the figure suite to
# within this share of the column's largest magnitude.  Loose enough for a
# re-implementation that changes rounding or the least-squares solver, tight
# enough that any change of physics or of a fitted mode shows.
FIGURE_TOL = 1e-3
# Same tolerance as verify.check_lindblad_equivalence.
LINDBLAD_TOL = 1e-6
# Same tolerance as the figure suite's purcell_identity_residual check.
PURCELL_IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class Outcome:
    status: str        # "ok", "error" (error exit) or "wrong" (failed a check)
    digest: str        # hash of the outputs, compared across passes and traces
    detail: str = ""


def _quiet_cli(argv):
    """cli.main with its stdout/stderr captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _digest_outputs(out_dir) -> str:
    """Hash of every output file except the manifest (it carries wall time)."""
    digest = hashlib.sha256()
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            if name == "run_manifest.json":
                continue
            digest.update(name.encode())
            with open(os.path.join(out_dir, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _last_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1][:300] if lines else ""


def read_figure_csv(path):
    """(header, float matrix) of a CSV written by output.write_csv."""
    with open(path, encoding="utf-8") as fh:
        rows = [r for r in csv.reader(ln for ln in fh if not ln.startswith("#"))]
    return rows[0], np.array(rows[1:], dtype=float)


def compare_figure_csv(path, reference_path, tol=FIGURE_TOL):
    """Problems found comparing one figure CSV against its reference."""
    header, data = read_figure_csv(path)
    ref_header, ref = read_figure_csv(reference_path)
    name = os.path.basename(path)
    if header != ref_header or data.shape != ref.shape:
        return [f"{name}: columns or shape differ from the reference"]
    problems = []
    for k, column in enumerate(header):
        scale = float(np.max(np.abs(ref[:, k])))
        err = float(np.max(np.abs(data[:, k] - ref[:, k])))
        if not err <= tol * scale:
            problems.append(f"{name}:{column} off by {err:.3g} (scale {scale:.3g})")
    return problems


class FigureSuite:
    """configs/figure_suite.json through cli.main; fixed inputs, seed unused."""

    name = "figure-suite"

    def __init__(self, root, workdir, seed, scale="full"):
        del workdir, seed, scale
        self.config = os.path.join(root, "configs", "figure_suite.json")

    def prepare(self):
        with open(self.config, encoding="utf-8") as fh:
            json.load(fh)

    def operations(self):
        return [self.config]

    def run(self, op, out_dir):
        return _quiet_cli(["run", op, "--out", out_dir])

    def check(self, op, out_dir, result):
        code, err = result
        digest = _digest_outputs(out_dir)
        if code != 0:
            return Outcome("error", digest, f"exit {code}: {_last_line(err)}")
        problems = list(output.validate_manifest(out_dir))
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            if not json.load(fh).get("all_pass"):
                problems.append("summary.json all_pass is false")
        references = sorted(f for f in os.listdir(REFERENCE_DIR)
                            if f.startswith("fig") and f.endswith(".csv"))
        produced = sorted(f for f in os.listdir(out_dir)
                          if f.startswith("fig") and f.endswith(".csv"))
        if produced != references:
            problems.append(f"figure files {produced} != reference {references}")
        for name in set(produced) & set(references):
            problems += compare_figure_csv(os.path.join(out_dir, name),
                                           os.path.join(REFERENCE_DIR, name))
        if problems:
            return Outcome("wrong", digest, "; ".join(problems))
        return Outcome("ok", digest)


class ScenarioBatch:
    """Seeded scenario JSON files, each run through cli.main in turn."""

    name = "scenario-batch"

    def __init__(self, root, workdir, seed, scale="full"):
        del root
        self.seed = seed
        self.directory = os.path.join(workdir, "scenarios")
        self.template = (generate.BATCH_TEMPLATE if scale == "full"
                         else generate.TINY_BATCH_TEMPLATE)
        self.batch = []

    def prepare(self):
        self.batch = generate.write_scenario_batch(self.seed, self.directory,
                                                   self.template)

    def operations(self):
        return self.batch

    def run(self, op, out_dir):
        path, _ = op
        return _quiet_cli(["run", path, "--out", out_dir])

    def check(self, op, out_dir, result):
        _, slot = op
        code, err = result
        digest = _digest_outputs(out_dir)
        if code != 0:
            return Outcome("error", digest,
                           f"{slot.task}/{slot.material} exit {code}: {_last_line(err)}")
        problems = [f"checksum mismatch: {name}"
                    for name in output.validate_manifest(out_dir)]
        if slot.task == "lindblad":
            with open(os.path.join(out_dir, "lindblad.json"), encoding="utf-8") as fh:
                dev = json.load(fh)["max_population_deviation"]
            if not dev <= LINDBLAD_TOL:
                problems.append(f"lindblad deviation {dev:.3g} > {LINDBLAD_TOL}")
        if slot.task == "fano":
            with open(os.path.join(out_dir, "fano.json"), encoding="utf-8") as fh:
                res = json.load(fh)["purcell_identity_residual"]
            if not res <= PURCELL_IDENTITY_TOL:
                problems.append(f"Purcell identity residual {res:.3g}")
        if problems:
            return Outcome("wrong", digest, "; ".join(problems))
        return Outcome("ok", digest)


class OpenSystem:
    """Library-level sweep over (emitter detuning, N, dissipator kind) at one
    seeded R = 8 nm geometry whose modes are fitted once in prepare()."""

    name = "open-system"
    RADIUS_NM = 8.0

    def __init__(self, root, workdir, seed, scale="full"):
        del root, workdir
        self.inputs = generate.open_system_inputs(seed, scale)
        self.material = medium.silver()
        self.geometry = medium.Geometry.from_surface_distance(
            self.RADIUS_NM, self.inputs.h_nm)
        self.modes = []
        self.points = []
        self.grid = np.linspace(2.4, 3.4, self.inputs.grid_points)
        self.times = np.linspace(0.0, 500.0, self.inputs.time_points) / HBAR_EV_FS

    def _emitter(self, omega0):
        return medium.EmitterSpec.from_dipole(
            omega0, self.inputs.d_eg_debye, self.inputs.gamma0_nr_ev,
            self.geometry.n_b)

    def prepare(self):
        inputs = self.inputs
        fit_emitter = self._emitter(2.9)
        modes = coupling.extract_modes(inputs.fit_modes, self.geometry,
                                       self.material, fit_emitter)
        self.modes = [coupling.with_fano_split(m, self.geometry, fit_emitter)
                      for m in modes]
        omega1 = self.modes[0].omega_n
        self.points = [(omega1 + d, n, kind) for d in inputs.detunings_ev
                       for n in inputs.n_values for kind in inputs.kinds]

    def operations(self):
        return self.points

    def run(self, op, out_dir):
        del out_dir
        omega0, n, kind = op
        emitter = self._emitter(omega0)
        modes = self.modes[:n]
        if kind == "standard":
            ham = heff.build_standard(modes, emitter)
        else:
            variant = "radiative_only" if kind == "fano_radiative" else "general"
            ham = heff.build_fano(modes, emitter, variant)
        psi0 = np.zeros(n + 1, dtype=complex)
        psi0[0] = 1.0
        dressed = heff.eigendecompose(ham)
        amps = heff.evolve(ham, psi0, self.times)
        pol = heff.polarization_spectrum(ham, self.grid)
        rad = heff.radiated_spectrum(ham, self.grid, self.geometry, self.material)
        reports = [weak.adiabatic_rates(modes, emitter),
                   weak.purcell_factors(modes, emitter),
                   weak.fano_adiabatic(modes, emitter)]
        broad = weak.broadened_rate(modes, emitter)

        space = lindblad.build_state_space(n)
        h_s = lindblad.build_system_hamiltonian(modes, emitter, space)
        dis = lindblad.build_dissipators(kind, modes, emitter, space)
        liou = lindblad.build_liouvillian(h_s, dis, space)
        states = lindblad.evolve_master(liou, lindblad.pure_state(space, 1),
                                        self.times)
        cross = heff.evolve(lindblad.effective_hamiltonian_from_lindblad(h_s, dis),
                            psi0, self.times)
        deviation = 0.0
        for s, a in zip(states, cross):
            psi = np.concatenate(([a.c_e], a.c_n))
            deviation = max(deviation, float(np.max(np.abs(
                lindblad.single_excitation_projection(s)
                - np.outer(psi, psi.conj())))))
        arrays = [dressed.eigenvalues, pol.values, rad.p_rad, rad.lsp1_population,
                  broad, np.array([[a.c_e, *a.c_n] for a in amps]),
                  np.array([s.rho for s in states])]
        for report in reports:
            arrays += [np.array([report.lamb_shift, report.gamma_tot]),
                       report.gamma_n, report.purcell]
        return deviation, arrays

    def check(self, op, out_dir, result):
        del op, out_dir
        deviation, arrays = result
        digest = hashlib.sha256()
        for a in arrays:
            digest.update(np.ascontiguousarray(a).tobytes())
        digest.update(repr(deviation).encode())
        finite = all(np.all(np.isfinite(a)) for a in arrays)
        if not deviation <= LINDBLAD_TOL or not finite:
            return Outcome("wrong", digest.hexdigest(),
                           f"Lindblad/H_eff deviation {deviation:.3g}, "
                           f"finite outputs {finite}")
        return Outcome("ok", digest.hexdigest())


WORKLOADS = {w.name: w for w in (FigureSuite, ScenarioBatch, OpenSystem)}
