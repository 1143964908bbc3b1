"""Scenario configuration: JSON-compatible nested blocks, schema-validated
before any computation, unknown keys rejected with their dotted field path."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import MIN_GRID_POINTS
from .errors import SchemaError
from .medium import EmitterSpec, Geometry, MaterialModel

MAX_N_MODES = 200  # bounds a run's cost: fits, H_eff and Lindblad grow with it
TASKS = ("spectra", "fit", "dressed", "dynamics", "rates", "fano", "lindblad",
         "figure-suite")


def _require_mapping(block, path):
    if not isinstance(block, dict):
        raise SchemaError(path, "expected an object")
    return block


def _check_keys(block, path, allowed):
    for key in block:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown key")


def _number(block, path, key, *, required=True, default=None, positive=False,
            nonnegative=False):
    if key not in block:
        if required:
            raise SchemaError(f"{path}.{key}", "missing required value")
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}.{key}", f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(f"{path}.{key}", f"must be finite, got {value}")
    if positive and not value > 0:
        raise SchemaError(f"{path}.{key}", f"must be > 0, got {value}")
    if nonnegative and value < 0:
        raise SchemaError(f"{path}.{key}", f"must be >= 0, got {value}")
    return value


def _integer(block, path, key, *, default, minimum=None):
    if key not in block:
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}.{key}", f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    return value


def _construct(path, factory, *args):
    """factory(*args), its input errors (a rejected value, a value of the
    wrong type, a derived rate out of range, an unreadable or malformed
    file) reported as a SchemaError on path."""
    try:
        return factory(*args)
    except (ArithmeticError, TypeError, ValueError, OSError) as exc:
        raise SchemaError(path, f"{type(exc).__name__}: {exc}") from exc


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    points: int

    def build(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class Scenario:
    material: MaterialModel
    geometry: Geometry
    emitter: EmitterSpec
    task: str
    n_modes: int
    omega_grid: GridSpec
    time_grid: GridSpec
    out_dir: str
    raw: dict = field(repr=False, default_factory=dict)


def _parse_material(block) -> MaterialModel:
    block = _require_mapping(block, "material")
    kind = block.get("kind")
    if kind == "drude":
        _check_keys(block, "material", {"kind", "eps_inf", "omega_p_ev", "gamma_p_ev"})
        return MaterialModel.drude(
            _number(block, "material", "eps_inf", positive=True),
            _number(block, "material", "omega_p_ev", positive=True),
            _number(block, "material", "gamma_p_ev", nonnegative=True),
        )
    if kind == "tabulated":
        _check_keys(block, "material", {"kind", "file", "table"})
        if "file" in block:
            return _construct("material.file", MaterialModel.from_file,
                              block["file"])
        if "table" in block:
            return _construct("material.table", MaterialModel.tabulated,
                              block["table"])
        raise SchemaError("material", "tabulated material needs 'file' or 'table'")
    raise SchemaError("material.kind", f"expected 'drude' or 'tabulated', got {kind!r}")


def _parse_geometry(block) -> Geometry:
    block = _require_mapping(block, "geometry")
    _check_keys(block, "geometry", {"radius_nm", "eps_b", "h_nm"})
    radius = _number(block, "geometry", "radius_nm", positive=True)
    h = _number(block, "geometry", "h_nm", positive=True)
    eps_b = _number(block, "geometry", "eps_b", required=False, default=1.0)
    if eps_b < 1:
        raise SchemaError("geometry.eps_b", f"must be >= 1, got {eps_b}")
    return _construct("geometry", Geometry.from_surface_distance, radius, h, eps_b)


def _parse_emitter(block, geometry: Geometry) -> EmitterSpec:
    block = _require_mapping(block, "emitter")
    _check_keys(block, "emitter",
                {"omega0_ev", "tau0_ns", "eta", "d_eg_debye", "gamma0_nr_ev"})
    omega0 = _number(block, "emitter", "omega0_ev", positive=True)
    lifetime_form = "tau0_ns" in block or "eta" in block
    dipole_form = "d_eg_debye" in block or "gamma0_nr_ev" in block
    if lifetime_form and dipole_form:
        raise SchemaError("emitter", "give either {tau0_ns, eta} or "
                                     "{d_eg_debye, gamma0_nr_ev}, not both")
    if lifetime_form:
        tau0 = _number(block, "emitter", "tau0_ns", positive=True)
        eta = _number(block, "emitter", "eta", positive=True)
        if eta > 1:
            raise SchemaError("emitter.eta", f"must be in (0, 1], got {eta}")
        return _construct("emitter", EmitterSpec.from_lifetime,
                          omega0, tau0, eta, geometry.n_b)
    if dipole_form:
        d_eg = _number(block, "emitter", "d_eg_debye", positive=True)
        g_nr = _number(block, "emitter", "gamma0_nr_ev", required=False,
                       default=0.0, nonnegative=True)
        return _construct("emitter", EmitterSpec.from_dipole,
                          omega0, d_eg, g_nr, geometry.n_b)
    raise SchemaError("emitter", "give either {tau0_ns, eta} or "
                                 "{d_eg_debye, gamma0_nr_ev}")


def _parse_grid(block, path, *, lo_key, hi_key, positive_lo,
                default) -> GridSpec:
    """A linspace grid block, default where it is absent; positive_lo asks
    lo_key > 0 (frequencies), otherwise lo_key >= 0 (times)."""
    if block is None:
        return default
    block = _require_mapping(block, path)
    _check_keys(block, path, {lo_key, hi_key, "points"})
    lo = _number(block, path, lo_key, positive=positive_lo, nonnegative=True)
    hi = _number(block, path, hi_key, positive=True)
    if hi <= lo:
        raise SchemaError(f"{path}.{hi_key}", "grid upper bound must exceed lower")
    points = _integer(block, path, "points", default=200, minimum=2)
    return GridSpec(lo=lo, hi=hi, points=points)


def _check_task_grid(task, grid: GridSpec, material: MaterialModel) -> None:
    """The fano fit's point floor, and a table that covers run.omega_grid
    for the tasks that evaluate on that grid itself."""
    if task == "fano" and grid.points < MIN_GRID_POINTS:
        raise SchemaError("run.omega_grid.points", f"the fano fit needs >= "
                          f"{MIN_GRID_POINTS} points, got {grid.points}")
    table = material.table if task in ("spectra", "fano") else None
    if table is not None and not table[0, 0] <= grid.lo < grid.hi <= table[-1, 0]:
        raise SchemaError("run.omega_grid", f"{grid.lo}-{grid.hi} eV is outside "
                          f"the material table's {table[0, 0]}-{table[-1, 0]} eV")


def parse_scenario(data: dict) -> Scenario:
    data = _require_mapping(data, "<root>")
    _check_keys(data, "<root>", {"material", "geometry", "emitter", "run"})
    for key in ("material", "geometry", "emitter", "run"):
        if key not in data:
            raise SchemaError(key, "missing required block")
    material = _parse_material(data["material"])
    geometry = _parse_geometry(data["geometry"])
    emitter = _parse_emitter(data["emitter"], geometry)

    run = _require_mapping(data["run"], "run")
    _check_keys(run, "run", {"task", "n_modes", "omega_grid", "time_grid", "out_dir"})
    task = run.get("task")
    if task not in TASKS:
        raise SchemaError("run.task", f"expected one of {TASKS}, got {task!r}")
    n_modes = _integer(run, "run", "n_modes", default=6, minimum=1)
    if n_modes > MAX_N_MODES:
        raise SchemaError("run.n_modes", f"must be <= {MAX_N_MODES}, got {n_modes}")
    omega_grid = _parse_grid(run.get("omega_grid"), "run.omega_grid",
                             lo_key="min_ev", hi_key="max_ev", positive_lo=True,
                             default=GridSpec(2.2, 3.2, 400))
    time_grid = _parse_grid(run.get("time_grid"), "run.time_grid",
                            lo_key="min_fs", hi_key="max_fs", positive_lo=False,
                            default=GridSpec(0.0, 500.0, 400))
    _check_task_grid(task, omega_grid, material)
    out_dir = run.get("out_dir", "out")
    if not isinstance(out_dir, str):
        raise SchemaError("run.out_dir", "expected a string path")
    return Scenario(
        material=material,
        geometry=geometry,
        emitter=emitter,
        task=task,
        n_modes=n_modes,
        omega_grid=omega_grid,
        time_grid=time_grid,
        out_dir=out_dir,
        raw=data,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError("<config>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError("<config>", f"invalid JSON in {path}: {exc}") from exc
    return parse_scenario(data)
