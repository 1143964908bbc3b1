"""Robustness probe: schema-valid scenarios drawn over the documented input
ranges, run through cli.main in process.  Whatever the draw, a run exits 0,
2 or 3; an exit-2 run names a field, an exit-3 run its task, and an exit-0
run writes only finite numbers under a manifest that checks out."""

import csv
import json
import math
import os
import re

import numpy as np
import pytest

from plasmon_cqed.cli import main
from plasmon_cqed.output import validate_manifest
from plasmon_cqed.scenario import TASKS

PROBE_TASKS = [t for t in TASKS if t != "figure-suite"]
DRAWS = 49
FIELD = re.compile(r"configuration error: (material|geometry|emitter|run|--out)\b")


def _grid(rng, lo, hi, lo_key, hi_key):
    a, b = np.sort(rng.uniform(lo, hi, 2))
    return {lo_key: float(a), hi_key: float(b), "points": int(rng.integers(2, 402))}


def draw_scenario(rng, task: str, index: int) -> dict:
    """One scenario over README's ranges: R 2-100 nm, h 0.3-60 nm, eps_b 1-4,
    gamma_p exactly 0 in a third of draws, both emitter forms, n_modes 1-40,
    grids of 2-401 points."""
    gamma_p = 0.0 if index % 3 == 0 else float(rng.uniform(0.005, 0.3))
    if index % 2:
        emitter = {"tau0_ns": float(rng.uniform(1.0, 100.0)),
                   "eta": float(rng.uniform(0.1, 1.0))}
    else:
        emitter = {"d_eg_debye": float(rng.uniform(1.0, 30.0)),
                   "gamma0_nr_ev": float(rng.uniform(0.0, 0.05))}
    emitter["omega0_ev"] = float(rng.uniform(1.5, 3.5))
    return {
        "material": {"kind": "drude", "eps_inf": float(rng.uniform(1.0, 8.0)),
                     "omega_p_ev": float(rng.uniform(5.0, 10.0)),
                     "gamma_p_ev": gamma_p},
        "geometry": {"radius_nm": float(rng.uniform(2.0, 100.0)),
                     "eps_b": float(rng.uniform(1.0, 4.0)),
                     "h_nm": float(np.exp(rng.uniform(math.log(0.3), math.log(60.0))))},
        "emitter": emitter,
        "run": {"task": task, "n_modes": int(rng.integers(1, 41)),
                "omega_grid": _grid(rng, 1.5, 4.0, "min_ev", "max_ev"),
                "time_grid": _grid(rng, 0.0, 1000.0, "min_fs", "max_fs"),
                "out_dir": "out"},
    }


_rng = np.random.default_rng(20261020)
SCENARIOS = [draw_scenario(_rng, PROBE_TASKS[i % len(PROBE_TASKS)], i)
             for i in range(DRAWS)]


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _csv_numbers(path):
    with open(path, encoding="utf-8") as fh:
        for row in csv.reader(ln for ln in fh if not ln.startswith("#")):
            for cell in row:
                try:
                    yield float(cell)
                except ValueError:  # the header and text columns
                    pass


@pytest.mark.filterwarnings("ignore:.*negative wings:UserWarning")
@pytest.mark.parametrize("index", range(DRAWS),
                         ids=[f"{i:02d}-{s['run']['task']}"
                              for i, s in enumerate(SCENARIOS)])
def test_drawn_scenario_exits_cleanly(tmp_path, capsys, index):
    scenario = SCENARIOS[index]
    task = scenario["run"]["task"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = str(tmp_path / "out")
    code = main(["run", str(path), "--out", out])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    if code == 2:
        assert FIELD.search(err), err
        return
    if code == 3:
        assert f"numerical failure in task {task!r}" in err, err
        return
    assert validate_manifest(out) == []
    for name in os.listdir(out):
        if name.endswith(".csv"):
            values = list(_csv_numbers(os.path.join(out, name)))
        else:
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                values = list(_numbers(json.load(fh)))
        assert all(math.isfinite(v) for v in values), name
    if task == "lindblad":
        with open(os.path.join(out, "lindblad.json"), encoding="utf-8") as fh:
            assert json.load(fh)["max_population_deviation"] <= 1e-6


@pytest.mark.parametrize("radius", [500.0, 3000.0])
@pytest.mark.parametrize("task", ["fit", "rates"])
def test_large_sphere_exits_3_naming_its_task(tmp_path, capsys, task, radius):
    # the quasi-static fit windows of such spheres reach k_b R of 1e4 (500 nm)
    # to 1e21 (3000 nm), past the Bessel-argument cap; the Miller recurrence
    # would otherwise start at that order
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                          "strong_coupling.json")
    with open(config, encoding="utf-8") as fh:
        scenario = json.load(fh)
    scenario["geometry"]["radius_nm"] = radius
    scenario["run"]["task"] = task
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"numerical failure in task {task!r}" in err, err
