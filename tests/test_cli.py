import glob
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from plasmon_cqed.cli import main
from plasmon_cqed.errors import SchemaError
from plasmon_cqed.output import sha256_file, validate_manifest
from plasmon_cqed.scenario import TASKS, GridSpec, parse_scenario
from plasmon_cqed.tasks import TASK_RUNNERS


def base_config(task="fit", **run_extra):
    run = {
        "task": task,
        "n_modes": 3,
        "omega_grid": {"min_ev": 2.4, "max_ev": 3.2, "points": 200},
        "time_grid": {"min_fs": 0.0, "max_fs": 300.0, "points": 100},
        "out_dir": "out",
    }
    run.update(run_extra)
    return {
        "material": {"kind": "drude", "eps_inf": 6.0, "omega_p_ev": 7.90,
                     "gamma_p_ev": 0.051},
        "geometry": {"radius_nm": 8.0, "eps_b": 1.0, "h_nm": 2.0},
        "emitter": {"omega0_ev": 2.94, "d_eg_debye": 24.5,
                    "gamma0_nr_ev": 0.015},
        "run": run,
    }


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def drude_silver_table():
    """Drude silver of base_config sampled every 0.01 eV over 1.0-4.5 eV, as
    rows (hbar omega eV, Re eps, Im eps)."""
    w = np.linspace(1.0, 4.5, 351)
    eps = 6.0 - 7.90**2 / (w**2 + 1j * 0.051 * w)
    return np.column_stack([w, eps.real, eps.imag]).tolist()


class TestSchema:
    def test_negative_radius_names_field(self):
        cfg = base_config()
        cfg["geometry"]["radius_nm"] = -3.0
        with pytest.raises(SchemaError) as err:
            parse_scenario(cfg)
        assert "geometry.radius_nm" in str(err.value)

    def test_unknown_key_rejected_with_path(self):
        cfg = base_config()
        cfg["emitter"]["polarization"] = "radial"
        with pytest.raises(SchemaError) as err:
            parse_scenario(cfg)
        assert "emitter.polarization" in str(err.value)

    def test_conflicting_emitter_forms(self):
        cfg = base_config()
        cfg["emitter"]["tau0_ns"] = 50.0
        with pytest.raises(SchemaError):
            parse_scenario(cfg)

    def test_unknown_task(self):
        cfg = base_config(task="render")
        with pytest.raises(SchemaError) as err:
            parse_scenario(cfg)
        assert "run.task" in str(err.value)

    def test_every_task_has_a_runner(self):
        assert set(TASKS) == set(TASK_RUNNERS)

    def test_documented_defaults(self):
        cfg = base_config()
        del cfg["geometry"]["eps_b"], cfg["emitter"]["gamma0_nr_ev"]
        for key in ("n_modes", "omega_grid", "time_grid"):
            del cfg["run"][key]
        sc = parse_scenario(cfg)
        assert sc.geometry.eps_b == 1.0
        assert sc.emitter.eta == 1.0
        assert sc.n_modes == 6
        assert sc.omega_grid == GridSpec(2.2, 3.2, 400)
        assert sc.time_grid == GridSpec(0.0, 500.0, 400)
        cfg["run"]["omega_grid"] = {"min_ev": 2.4, "max_ev": 3.2}
        assert parse_scenario(cfg).omega_grid == GridSpec(2.4, 3.2, 200)

    def test_lifetime_emitter_accepted(self):
        cfg = base_config()
        cfg["emitter"] = {"omega0_ev": 1.85, "tau0_ns": 50.0, "eta": 0.9}
        sc = parse_scenario(cfg)
        assert sc.emitter.tau0_ns == pytest.approx(50.0, rel=1e-12)


class TestCliExitCodes:
    def test_schema_violation_exit_2(self, tmp_path, capsys):
        cfg = base_config()
        cfg["geometry"]["radius_nm"] = -3.0
        code = main(["run", write_config(tmp_path, cfg)])
        assert code == 2
        assert "geometry.radius_nm" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["spectra", "dressed"])
    def test_zero_frequency_grid_exit_2(self, tmp_path, capsys, task):
        cfg = base_config(task=task)
        cfg["run"]["omega_grid"]["min_ev"] = 0
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 2
        assert "run.omega_grid.min_ev" in capsys.readouterr().err
        # a time grid from 0 stays valid
        assert parse_scenario(base_config()).time_grid.lo == 0.0

    @pytest.mark.parametrize("block, value, field", [
        ("geometry", {"radius_nm": math.nan}, "geometry.radius_nm"),
        ("geometry", {"eps_b": math.inf}, "geometry.eps_b"),
        ("geometry", {"eps_b": math.nan}, "geometry.eps_b"),
        ("geometry", {"h_nm": 10**400}, "geometry.h_nm"),
        ("emitter", {"omega0_ev": 1.85, "tau0_ns": 5e-324, "eta": 0.9},
         "emitter"),
        ("material", {"file": "missing.txt"}, "material.file"),
        ("material", {"file": "words.txt"}, "material.file"),
        ("material", {"table": [[2.9, -10.0, 0.3]]}, "material.table"),
        ("material", {"table": [[3.0, -8.0, 0.3], [2.0, -20.0, 0.5]]},
         "material.table"),
        ("material", {"table": [[2.0, -20.0, 0.5], [3.0, math.nan, 0.3]]},
         "material.table"),
        ("material", {"table": {"eV": [2.0, 3.0]}}, "material.table"),
        ("emitter", [2.94, 24.5], "emitter"),
        ("geometry", {"radius_nm": "8"}, "geometry.radius_nm"),
        ("material", {"kind": "drude", "eps_inf": 6.0, "omega_p_ev": 7.9,
                      "gamma_p_ev": -0.1}, "material.gamma_p_ev"),
        ("run", {"n_modes": 2.5}, "run.n_modes"),
        ("run", {"n_modes": 0}, "run.n_modes"),
        ("run", {"omega_grid": {"min_ev": 2.4, "max_ev": 3.2, "points": 1}},
         "run.omega_grid.points"),
        ("run", {"omega_grid": {"min_ev": 2.4, "max_ev": 3.2, "points": True}},
         "run.omega_grid.points"),
        ("material", {}, "material"),
        ("material", {"kind": "lorentz"}, "material.kind"),
        ("geometry", {"eps_b": 0.5}, "geometry.eps_b"),
        ("emitter", {"omega0_ev": 1.85, "tau0_ns": 50.0, "eta": 1.5},
         "emitter.eta"),
        ("emitter", {"omega0_ev": 1.85, "tau0_ns": 50.0}, "emitter.eta"),
        ("emitter", {"omega0_ev": 2.94}, "emitter"),
        ("run", {"omega_grid": {"min_ev": 2.4, "max_ev": 2.4}},
         "run.omega_grid.max_ev"),
        ("run", {"out_dir": 5}, "run.out_dir"),
    ], ids=["nan-radius", "inf-eps_b", "nan-eps_b", "huge-integer-h",
            "subnormal-tau0", "missing-file",
            "non-numeric-file", "one-row-table", "descending-table",
            "nan-table", "object-table", "list-emitter", "string-radius",
            "negative-gamma_p", "fractional-n_modes", "zero-n_modes",
            "one-point-grid", "boolean-points", "tabulated-without-data",
            "unknown-material-kind", "eps_b-below-1", "eta-above-1",
            "missing-eta", "emitter-without-form", "empty-grid-range",
            "integer-out_dir"])
    def test_bad_value_exit_2_names_field(self, tmp_path, capsys, block,
                                          value, field):
        # JSON as Python writes it accepts NaN and Infinity; a material
        # file or table the constructors reject is a configuration error too
        (tmp_path / "words.txt").write_text("2.0 minus-ten 0.5\n")
        cfg = base_config()
        if block in ("geometry", "run"):  # geometry and run values edit
            value = {**cfg[block], **value}  # the block, the others replace it
        elif block == "material":  # a material tabulated unless given
            value = {"kind": "tabulated", **value}
            if "file" in value:
                value["file"] = str(tmp_path / value["file"])
        cfg[block] = value
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 2
        assert field in capsys.readouterr().err

    def test_missing_run_block_exit_2(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["run"]
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 2
        assert "run: missing required block" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["spectra", "fit"])
    def test_n_modes_beyond_the_order_cap_exit_2(self, tmp_path, capsys,
                                                 task):
        cfg = base_config(task=task, n_modes=201)
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 2
        assert "run.n_modes" in capsys.readouterr().err

    @pytest.mark.parametrize("task, points, rows, field", [
        ("fano", 20, slice(None), "run.omega_grid.points"),
        ("spectra", 200, slice(100, 250), "run.omega_grid"),
        ("fano", 200, slice(100, 250), "run.omega_grid"),
    ], ids=["fano-below-50-points", "spectra-off-table", "fano-off-table"])
    def test_task_grid_exit_2(self, tmp_path, capsys, task, points, rows, field):
        # decided by the scenario alone, before any Green work; the table
        # rows 100-249 span 2.0-3.49 eV, above the grid's lower end
        cfg = base_config(task=task, omega_grid={"min_ev": 1.5, "max_ev": 3.0,
                                                 "points": points})
        cfg["material"] = {"kind": "tabulated", "table": drude_silver_table()[rows]}
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 2
        assert f"configuration error: {field}:" in capsys.readouterr().err

    def test_fit_task_at_high_mode_count(self, tmp_path):
        # the quasi-static window estimate overflowed from n = 85 (exit 1)
        out = str(tmp_path / "out")
        cfg = base_config(n_modes=90)
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 0
        with open(os.path.join(out, "modes.json")) as fh:
            assert len(json.load(fh)["modes"]) == 90

    def test_small_gap_rates_exit_0(self, tmp_path):
        # R = 40 nm at h = 3 nm: the golden-rule sum runs to 293 orders
        from plasmon_cqed.weak import fermi_rate

        cfg = base_config(task="rates")
        cfg["geometry"].update(radius_nm=40.0, h_nm=3.0)
        cfg["emitter"] = {"omega0_ev": 1.8505104238, "tau0_ns": 50.0, "eta": 0.9}
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 0
        with open(os.path.join(out, "rates.json")) as fh:
            payload = json.load(fh)
        sc = parse_scenario(cfg)
        assert payload["enhancement_fermi"] == fermi_rate(
            sc.emitter.omega0, [sc.geometry], sc.material, sc.emitter)[0]

    def test_unconverged_green_sum_exit_3(self, tmp_path, capsys):
        # below a gap of about R/86 the golden-rule sum does not converge
        # within the order cap
        cfg = base_config(task="rates")
        cfg["geometry"]["h_nm"] = 0.05
        cfg["emitter"] = {"omega0_ev": 1.8505104238, "tau0_ns": 50.0, "eta": 0.9}
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 3
        err = capsys.readouterr().err
        assert "numerical failure in task 'rates'" in err
        assert "h = 0.05 nm" in err
        assert glob.glob(os.path.join(out, "rates*")) == []

    def test_fano_resonance_off_the_grid_exit_3(self, tmp_path, capsys):
        # the lossless LSP_1 optimum, 3.037 eV, lies above a 2.10-2.60 eV
        # grid: no Gamma_rad, q_F or F_rad is reported from such a fit
        cfg = base_config(task="fano", n_modes=1, omega_grid={
            "min_ev": 2.10, "max_ev": 2.60, "points": 401})
        cfg["material"] = {"kind": "drude", "eps_inf": 5.0, "omega_p_ev": 8.5,
                           "gamma_p_ev": 0.151}
        cfg["geometry"] = {"radius_nm": 36.3, "eps_b": 1.0, "h_nm": 4.0}
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 3
        err = capsys.readouterr().err
        assert "numerical failure in task 'fano'" in err
        assert "LSP_1 at h=4 nm" in err and "outside the grid" in err
        assert glob.glob(os.path.join(out, "fano*")) == []

    def test_mode_window_missing_its_peak_exit_3(self, tmp_path, capsys):
        # low-loss metal in a dense background: the quasi-static window of
        # LSP_2 (2.2598-2.3049 eV) lies above the retarded peak, and the
        # fit would settle on the tail at 2.2345 eV; LSP_1's leaky wings are
        # clamped with a warning first
        cfg = base_config(n_modes=2)
        cfg["material"] = {"kind": "drude", "eps_inf": 5.56, "omega_p_ev": 7.76,
                           "gamma_p_ev": 0.00058}
        cfg["geometry"] = {"radius_nm": 24.6, "eps_b": 4.0, "h_nm": 1.04}
        out = str(tmp_path / "out")
        with pytest.warns(UserWarning, match="negative wings"):
            code = main(["run", write_config(tmp_path, cfg), "--out", out])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure in task 'fit'" in err
        assert "LSP_2 at h=1.04 nm" in err
        assert "outside its window" in err
        assert glob.glob(os.path.join(out, "modes*")) == []

    @pytest.mark.parametrize("via", ["--out", "run.out_dir"])
    def test_unusable_output_directory_exit_2(self, tmp_path, capsys, via):
        # a directory cannot be made below a regular file
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        target = str(blocker / "out")
        cfg = base_config(task="spectra", out_dir=target)
        argv = ["run", write_config(tmp_path, cfg)]
        if via == "--out":
            cfg["run"]["out_dir"] = str(tmp_path / "unused")
            argv = ["run", write_config(tmp_path, cfg), "--out", target]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {via}: cannot create output directory" in err
        assert "Traceback" not in err

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2

    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == 2
        assert "configuration error: <config>: cannot read" in \
            capsys.readouterr().err

    def test_fit_task_end_to_end(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["run", write_config(tmp_path, base_config()), "--out", out])
        assert code == 0
        with open(os.path.join(out, "modes.json")) as fh:
            payload = json.load(fh)
        widths = [m["gamma_n_ev"] for m in payload["modes"]]
        assert len(widths) == 3
        for w in widths:
            assert abs(w - 0.051) / 0.051 < 0.10
        assert validate_manifest(out) == []

    def test_manifest_names_a_changed_output(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = base_config(task="spectra")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 0
        path = os.path.join(out, "spectra.csv")
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[-2] ^= 1  # one byte of the last value
        with open(path, "wb") as fh:
            fh.write(data)
        assert validate_manifest(out) == ["spectra.csv"]

    def test_failure_removes_partial_outputs(self, tmp_path, monkeypatch):
        # force a numerical failure mid-task and confirm cleanup
        import plasmon_cqed.tasks as tasks

        def boom(*a, **k):
            from plasmon_cqed.errors import NumericalFailureError
            raise NumericalFailureError("synthetic failure")

        cfg = base_config(task="dressed")
        out = str(tmp_path / "out")
        monkeypatch.setattr(tasks, "_emission_spectra", boom)
        code = main(["run", write_config(tmp_path, cfg), "--out", out])
        assert code == 3
        leftovers = [f for f in os.listdir(out)] if os.path.isdir(out) else []
        assert leftovers == []


class TestParserReuse:
    def test_each_call_parses_afresh(self, tmp_path, capsys):
        from plasmon_cqed import __version__, cli

        config = write_config(tmp_path, base_config(task="spectra"))
        bad = base_config(task="spectra")
        bad["geometry"]["radius_nm"] = -3.0
        bad_config = write_config(tmp_path, bad, name="bad.json")
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", config, "--out", out_a]) == 0
        assert main(["run", bad_config]) == 2
        assert "geometry.radius_nm" in capsys.readouterr().err
        assert main(["run", config, "--out", out_b]) == 0
        assert f"wrote 1 files to {out_b}" in capsys.readouterr().out
        assert sorted(os.listdir(out_a)) == sorted(os.listdir(out_b))
        assert validate_manifest(out_b) == []
        assert cli.build_parser() is cli.build_parser()
        for _ in range(2):
            with pytest.raises(SystemExit) as done:
                main(["--version"])
            assert done.value.code == 0
            assert capsys.readouterr().out.strip() == __version__


class TestVerifyFlag:
    def test_every_check_passes_before_the_task(self, tmp_path, capsys):
        from plasmon_cqed.verify import ALL_CHECKS

        out = tmp_path / "out"
        code = main(["run", write_config(tmp_path, base_config()), "--verify",
                     "--out", str(out)])
        assert code == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("[")]
        assert len(lines) == len(ALL_CHECKS)
        assert all(line.startswith("[PASS] ") for line in lines)
        assert (out / "modes.json").exists()

    def test_raising_check_exits_3_naming_it(self, tmp_path, capsys,
                                             monkeypatch):
        from plasmon_cqed import verify
        from plasmon_cqed.errors import ContractViolationError

        def check_broken_route():
            raise ContractViolationError("density matrix 6 not positive semidefinite")

        monkeypatch.setattr(verify, "ALL_CHECKS",
                            (verify.check_drude, check_broken_route))
        out = tmp_path / "out"
        code = main(["run", write_config(tmp_path, base_config()), "--verify",
                     "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert "[PASS] drude-permittivity" in captured.out
        assert "[FAIL] check_broken_route: ContractViolationError: density " \
            "matrix 6" in captured.out
        assert "check_broken_route" in captured.err
        assert not out.exists()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = base_config(task="spectra")
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert main(["run", write_config(tmp_path, cfg), "--out", out1]) == 0
        assert main(["run", write_config(tmp_path, cfg), "--out", out2]) == 0
        data1 = open(os.path.join(out1, "spectra.csv"), "rb").read()
        data2 = open(os.path.join(out2, "spectra.csv"), "rb").read()
        assert data1 == data2

    def test_figure_suite_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, base_config(task="figure-suite"))
        outs = [str(tmp_path / side) for side in ("a", "b")]
        for out in outs:
            assert main(["run", cfg, "--out", out]) == 0
        names = sorted(name for name in os.listdir(outs[0])
                       if name.startswith("fig") and name.endswith(".csv"))
        assert len(names) == 8
        for name in names + ["summary.json"]:
            with open(os.path.join(outs[0], name), "rb") as fh1, \
                    open(os.path.join(outs[1], name), "rb") as fh2:
                assert fh1.read() == fh2.read(), name


class TestTasks:
    def test_spectra_task_on_a_short_grid(self, tmp_path):
        # the 50-point floor belongs to the fits, not to a coupling table
        cfg = base_config(task="spectra")
        cfg["run"]["omega_grid"]["points"] = 20
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 0
        data = np.loadtxt(os.path.join(out, "spectra.csv"), delimiter=",",
                          skiprows=3)
        assert data.shape == (20, 1 + 3)

    def test_dynamics_task_traces(self, tmp_path):
        cfg = base_config(task="dynamics")
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 0
        data = np.loadtxt(os.path.join(out, "populations.csv"), delimiter=",",
                          skiprows=2)
        assert data.shape[1] == 1 + 1 + 3 + 1
        norms = data[:, -1]
        assert np.all(np.diff(norms) <= 1e-12)

    def test_rates_task(self, tmp_path):
        cfg = base_config(task="rates")
        cfg["geometry"]["h_nm"] = 5.0
        cfg["emitter"] = {"omega0_ev": 1.8505104238, "tau0_ns": 50.0, "eta": 0.9}
        cfg["run"]["n_modes"] = 15
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 0
        with open(os.path.join(out, "rates.json")) as fh:
            payload = json.load(fh)
        assert payload["enhancement_fermi"] == pytest.approx(
            payload["enhancement_adiabatic"], rel=0.05)

    def test_dressed_task_outputs(self, tmp_path):
        cfg = base_config(task="dressed")
        cfg["run"]["omega_grid"] = {"min_ev": 2.5, "max_ev": 3.3, "points": 400}
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 0
        rows = np.loadtxt(os.path.join(out, "dressed.csv"), delimiter=",",
                          skiprows=3)
        assert rows.shape[0] == 4  # N + 1 dressed states
        with open(os.path.join(out, "dressed.json")) as fh:
            payload = json.load(fh)
        assert payload["n_states"] == 4
        assert payload["splitting_ev"] > 0

    def test_figure_suite_summary_passes(self, tmp_path):
        cfg = base_config(task="figure-suite")
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 0
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["all_pass"] is True
        for name in ("fig2.csv", "fig3.csv", "fig4b.csv", "fig5.csv",
                     "fig6a.csv", "fig6b.csv", "fig8.csv", "fig9.csv"):
            assert os.path.exists(os.path.join(out, name))

    def test_lindblad_task_trace_column(self, tmp_path):
        cfg = base_config(task="lindblad")
        cfg["run"]["n_modes"] = 2
        cfg["run"]["time_grid"] = {"min_fs": 0.0, "max_fs": 150.0, "points": 40}
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 0
        data = np.loadtxt(os.path.join(out, "lindblad_populations.csv"),
                          delimiter=",", skiprows=2)
        np.testing.assert_allclose(data[:, -1], 1.0, atol=1e-9)
        with open(os.path.join(out, "lindblad.json")) as fh:
            payload = json.load(fh)
        assert payload["max_population_deviation"] < 1e-6

    @pytest.mark.parametrize("task", ["lindblad", "dynamics"])
    def test_task_builds_no_per_time_states(self, tmp_path, monkeypatch, task):
        # the tasks read the trajectory stacks: the one initial DensityMatrix
        # is the only per-state object they build
        from plasmon_cqed.heff import AmplitudeState
        from plasmon_cqed.lindblad import DensityMatrix

        built = {AmplitudeState: 0, DensityMatrix: 0}
        for cls in built:
            def counted(self, *a, _cls=cls, _init=cls.__init__, **k):
                built[_cls] += 1
                _init(self, *a, **k)
            monkeypatch.setattr(cls, "__init__", counted)
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, base_config(task=task)),
                     "--out", out]) == 0
        assert built[AmplitudeState] == 0
        assert built[DensityMatrix] <= 1

    def test_lindblad_task_takes_every_mode(self, tmp_path):
        cfg = base_config(task="lindblad")
        cfg["run"]["n_modes"] = 12
        cfg["run"]["time_grid"] = {"min_fs": 0.0, "max_fs": 150.0, "points": 40}
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 0
        with open(os.path.join(out, "lindblad_populations.csv")) as fh:
            header = [line for line in fh if not line.startswith("#")][0]
        assert [c for c in header.strip().split(",")
                if c.startswith("pop_lsp")] == [f"pop_lsp{n}" for n in range(1, 13)]
        with open(os.path.join(out, "lindblad.json")) as fh:
            payload = json.load(fh)
        assert payload["n_modes"] == 12
        assert payload["max_population_deviation"] <= 1e-6

    @pytest.mark.parametrize("task", ["spectra", "fit", "dressed", "dynamics",
                                      "rates", "lindblad"])
    def test_tabulated_material_tasks(self, tmp_path, capsys, task):
        # as documented: the coupling table runs, the tasks that need the
        # quasi-static mode model refuse a table
        cfg = base_config(task=task)
        cfg["material"] = {"kind": "tabulated", "table": drude_silver_table()}
        out = str(tmp_path / "out")
        code = main(["run", write_config(tmp_path, cfg), "--out", out])
        if task == "spectra":
            assert code == 0
            return
        assert code == 3
        assert "quasi-static closed forms assume a Drude metal" in \
            capsys.readouterr().err

    def test_fano_task_on_a_tabulated_material(self, tmp_path):
        # the lossless counterpart of a table is the table with Im eps = 0;
        # silver tabulated every 0.01 eV gives the Drude scalars
        with open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "configs", "fano_r50.json")) as fh:
            cfg = json.load(fh)
        payloads = {}
        for kind in ("drude", "tabulated"):
            if kind == "tabulated":
                cfg["material"] = {"kind": "tabulated",
                                   "table": drude_silver_table()}
            out = str(tmp_path / kind)
            assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 0
            with open(os.path.join(out, "fano.json")) as fh:
                payloads[kind] = json.load(fh)
        for key in ("omega1_ev", "gamma1_rad_ev", "q_fano", "f_rad",
                    "gamma1_nr_ev", "f_p"):
            assert payloads["tabulated"][key] == pytest.approx(
                payloads["drude"][key], rel=5e-3), key

    def test_fano_g1_is_the_configured_dipoles(self, tmp_path):
        # the Fano model does not depend on d (gamma0 and gamma0n scale as
        # d^2, g as d): the fits are those of a 1 D dipole, and g1 scales
        with open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "configs", "fano_r50.json")) as fh:
            cfg = json.load(fh)
        payloads = {}
        for d in (1.0, 4.0):
            cfg["emitter"]["d_eg_debye"] = d
            out = str(tmp_path / f"d{d:g}")
            assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 0
            with open(os.path.join(out, "fano.json")) as fh:
                payloads[d] = json.load(fh)
        one, four = payloads[1.0], payloads[4.0]
        assert four["g1_ev"] == pytest.approx(4.0 * one["g1_ev"], rel=1e-12)
        assert four.keys() == one.keys()
        for key in one.keys() - {"g1_ev"}:
            assert four[key] == pytest.approx(one[key], rel=1e-12), key

    def test_weak_coupling_lindblad_passes(self, tmp_path):
        # weakly coupled emitter over a window long after its decay: an
        # adaptive stepper let rho drift past the hermiticity check (exit 3)
        cfg = {
            "material": {"kind": "drude", "eps_inf": 6.0, "omega_p_ev": 7.9,
                         "gamma_p_ev": 0.051},
            "geometry": {"radius_nm": 8.7, "eps_b": 1.74, "h_nm": 8.0},
            "emitter": {"omega0_ev": 2.7, "tau0_ns": 20.0, "eta": 0.7},
            "run": {
                "task": "lindblad",
                "n_modes": 4,
                "omega_grid": {"min_ev": 2.3, "max_ev": 3.6, "points": 201},
                "time_grid": {"min_fs": 0.0, "max_fs": 700.0, "points": 400},
                "out_dir": "out",
            },
        }
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out]) == 0
        with open(os.path.join(out, "lindblad.json")) as fh:
            payload = json.load(fh)
        assert payload["max_population_deviation"] <= 1e-6


SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, "configs", "*.json")))


def test_configs_are_shipped():
    assert len(SHIPPED_CONFIGS) >= 4


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=os.path.basename)
def test_shipped_config_runs(tmp_path, config):
    out = str(tmp_path / "out")
    assert main(["run", config, "--out", out]) == 0
    assert validate_manifest(out) == []


# SHA-256 of every output of the shipped configs but run_manifest.json, whose
# wall clock varies.  A change that moves an output updates its digest here
# and says why in CHANGES.md.
SHIPPED_OUTPUT_DIGESTS = {
    "fano_r50.json": {
        "fano.json":
            "45fe4ae5d8a424b3b81652ab52c6026689576e45a71363a835c5763e588d2294",
        "fano_rate.csv":
            "730eacafcda7c6db590009171ef0afe6a8b13063b34607e13d2381f60b6700dd",
    },
    "figure_suite.json": {
        "fig2.csv":
            "9a289398ba23aa1312da819251cf58dbc4cb02fdd013e0c77819e15397678a01",
        "fig3.csv":
            "62d39de276ce388b7e29a6ee0bdd026fb04c4bcf57ccb5dcd07ef71f8be6926e",
        "fig4b.csv":
            "005115da5c22b5480c1d3be9c1bcd578ad852c49b810f8a76a51573e606e19ea",
        "fig5.csv":
            "27d09646d473c0fd2dfec3b06614898578e04a9bf6bace36a678b8ab8efdf794",
        "fig6a.csv":
            "5e9bf448a64a100550bf3b8d4d27f0d9a98487e0274be7e0be68e7ccd41c89f5",
        "fig6b.csv":
            "f4fcbc7cb4acc200960fb5d28e57672da888bc463fd1b013d79e406d4d6c5d3e",
        "fig8.csv":
            "916a7b6e2df122b689a20eeeb53b41101db3028d69f7b661b9f85bb8636ff2df",
        "fig9.csv":
            "0f870be0b97006bb08bfc537f4706c65bcd5e4dac8c5b4ce094091f8227e2164",
        "summary.json":
            "1d5bfd592bf3d026276c017f2da87250f2cc326dbfae911a25d1d1cd5dc54bdb",
    },
    "strong_coupling.json": {
        "dressed.csv":
            "e22a3296d1f3fdb182378d324eafc5f092b1b69e5cea7d6fa028985bd0990846",
        "dressed.json":
            "2a040a5deeee6debe64233f22173dffffbc67c8588e9b08dd1403d98d7a98007",
        "modes.csv":
            "552d5cb8444adcf6e93cef91782879cf5eaeb2422dbd020388cf6faa2b01efab",
        "modes.json":
            "485453c3e8a3bf9bf273b2e3c8fde3b96848961dd1aba1ec2e66006fd638eb0c",
        "polarization.csv":
            "3738cfefc09cb00dfeb4fd1d45a75215fc481846a52debafc34b255eda5a6ca3",
        "radiated.csv":
            "89e114357a27dd16e16e26b0c038c50894fdeb0b89131591f0cce7e1e8e6f0ac",
    },
    "weak_coupling.json": {
        "rates.csv":
            "5b14578cd81ad285cb4980a4495b83f53cddbab4ecc7a8bf06596cac92998f58",
        "rates.json":
            "f450d6a762707614fb4efbd12ee02cddeb16a815981936caba12fc14c5882f1a",
        "rates_summary.csv":
            "ab664c4e3d39d1abe5fd15a57107c329a53bfb3f8b8eb76c107372d463b805fd",
    },
}


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=os.path.basename)
def test_shipped_config_outputs_keep_their_bytes(tmp_path, config):
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out)]) == 0
    assert {name: sha256_file(out / name) for name in os.listdir(out)
            if name != "run_manifest.json"} == \
        SHIPPED_OUTPUT_DIGESTS[os.path.basename(config)]


def test_cold_mode_fit_run_imports_no_minpack(tmp_path):
    # a fresh interpreter, as a user's CLI run: importing scipy.optimize
    # costs a cold run about 0.3 s and 40 MB, and the mode fits do not need it
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                          "strong_coupling.json")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    script = ("import sys\n"
              "from plasmon_cqed import cli\n"
              f"code = cli.main(['run', {config!r}, '--out', {str(tmp_path)!r}])\n"
              "print(code, 'scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == ["0", "False"]
    assert os.path.isfile(tmp_path / "modes.json")
