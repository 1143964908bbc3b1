"""The input generator is a pure function of the seed."""

import json
import os
from collections import Counter

import numpy as np

import generate


def _snapshot(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_same_seed_writes_identical_files(workdir):
    first = generate.write_scenario_batch(7, workdir)
    files = _snapshot(workdir)
    second = generate.write_scenario_batch(7, workdir)
    assert first == second
    assert _snapshot(workdir) == files
    assert len(files) == len(generate.BATCH_TEMPLATE) + 1  # + the table


def test_other_seed_draws_other_scenarios(workdir):
    a = os.path.join(workdir, "a")
    b = os.path.join(workdir, "b")
    generate.write_scenario_batch(7, a)
    generate.write_scenario_batch(8, b)
    scenarios_a = {k: v for k, v in _snapshot(a).items() if k.endswith(".json")}
    scenarios_b = {k: v for k, v in _snapshot(b).items() if k.endswith(".json")}
    assert scenarios_a != scenarios_b


def test_every_seed_keeps_the_slot_mix(workdir):
    for seed in (1, 2):
        batch = generate.write_scenario_batch(seed, os.path.join(workdir, str(seed)))
        assert Counter(slot for _, slot in batch) == Counter(generate.BATCH_TEMPLATE)


def test_open_system_inputs_are_deterministic():
    assert generate.open_system_inputs(3) == generate.open_system_inputs(3)
    assert generate.open_system_inputs(3) != generate.open_system_inputs(4)
    detunings = generate.open_system_inputs(3).detunings_ev
    assert all(0.05 <= d <= 0.45 for d in detunings)


def test_table_samples_drude_silver(workdir):
    path = os.path.join(workdir, "table.txt")
    generate.write_table(path, generate.drude_table(*generate.SILVER))
    rows = np.loadtxt(path, comments="#")
    eps_inf, omega_p, gamma_p = generate.SILVER
    w = rows[:, 0]
    eps = eps_inf - omega_p**2 / (w**2 + 1j * gamma_p * w)
    np.testing.assert_allclose(rows[:, 1], eps.real, rtol=1e-11)
    np.testing.assert_allclose(rows[:, 2], eps.imag, rtol=1e-11)


def test_known_failing_lindblad_scenario_does_not_follow_the_seed(workdir):
    scenarios = []
    for seed in (1, 2):
        batch = generate.write_scenario_batch(seed, os.path.join(workdir, str(seed)))
        (path,) = [p for p, slot in batch if slot.material == "weak"]
        with open(path, encoding="utf-8") as fh:
            scenario = json.load(fh)
        del scenario["run"]["out_dir"]  # names the slot's place in the pass
        scenarios.append(scenario)
    assert scenarios[0] == scenarios[1]
    assert sum(map(generate.known_failure, generate.BATCH_TEMPLATE)) == 6
