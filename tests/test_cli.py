"""Config loading and end-to-end command runs of the CLI."""

import argparse
import csv
import dataclasses
import json

import numpy as np
import pytest

from plaquectrl import cli
from plaquectrl.params import ModelParameters


def _decoupled_overrides():
    pd = ModelParameters().decoupled()
    keys = ("k1", "k2", "r1", "r2", "mu1", "mu2", "lam", "M0", "beta")
    return {k: str(getattr(pd, k)) for k in keys}


class TestConfig:
    def test_defaults_without_file(self):
        cfg = cli.load_config()
        assert cfg.grid["N"] == 8 and cfg.grid["M"] == 8
        assert cfg.parameters == ModelParameters()

    def test_file_and_override_precedence(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("[grid]\nN = 4\nM = 4\n[parameters]\neps = 0.02\n")
        cfg = cli.load_config(str(f), overrides={"M": "6"})
        assert cfg.grid["N"] == 4
        assert cfg.grid["M"] == 6
        assert cfg.parameters.eps == 0.02

    def test_unknown_section_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("[misc]\nx = 1\n")
        with pytest.raises(cli.ConfigError, match="section"):
            cli.load_config(str(f))

    def test_percent_is_literal(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text(f"[run]\noutput_dir = {tmp_path}/o%d\n")
        assert cli.load_config(str(f)).run["output_dir"] == f"{tmp_path}/o%d"

    def test_default_section_rejected(self, tmp_path, capsys):
        f = tmp_path / "run.cfg"
        f.write_text("[DEFAULT]\nL0 = 0.5\n")
        assert cli.main(["solve-direct", "--config", str(f)]) == 2
        err = capsys.readouterr().err
        assert "invalid input" in err and "unknown config section [DEFAULT]" in err

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("[grid]\nQ = 3\n")
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.load_config(str(f))

    def test_invalid_values_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.load_config(overrides={"N": "abc"})
        with pytest.raises(cli.ConfigError):
            cli.load_config(overrides={"N": "0"})
        with pytest.raises(cli.ConfigError, match="unknown configuration key"):
            cli.load_config(overrides={"method": "magic"})
        with pytest.raises(cli.ConfigError):
            cli.load_config(overrides={"eps": "-0.5"})
        # every key is converted by the type of its default, parameters included
        bad = [{"k1": "abc"}, {"K1": "nan"}, {"fp_max_iter": "2.5"},
               {"fp_tol": "nan"}, {"sqp_tol": "-1e-6"}, {"shoot_tol": "inf"},
               {"grad_step": "0"}, {"rk4_steps": "1"}, {"study_grids": "2x"},
               {"sweep_pairs": ","}]
        for overrides in bad:
            with pytest.raises(cli.ConfigError):
                cli.load_config(overrides=overrides)

    def test_parameter_guard_is_surfaced(self):
        with pytest.raises(cli.ConfigError, match="delta"):
            cli.load_config(overrides={"delta": "-0.005", "H0": "0.005"})

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError, match="cannot read"):
            cli.load_config("/nonexistent/run.cfg")

    def test_main_exit_code_on_bad_config(self, capsys):
        for flags in (["--N", "bogus"], ["--k1", "abc"], ["--fp-tol", "nan"],
                      ["--grad-step", "0"], ["--sqp-max-iter", "-1"],
                      ["--shoot-max-iter", "-3"],
                      ["--Ne", "4", "--Me", "4", "--study-grids", "8x8"],
                      ["--Ne", "4", "--Me", "4", "--study-grids", "2x2,3x4"],
                      ["--study-grids", "0x2"]):
            code = cli.main(["solve-direct"] + flags)
            assert code == 2, flags
            assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_unusable_output_dir(self, tmp_path, capsys, monkeypatch, under):
        # an existing file, or a path under one: reported before any solve
        (tmp_path / "taken").write_text("")
        outdir = tmp_path / "taken" / "out" if under else tmp_path / "taken"
        monkeypatch.setattr(cli, "build_setup", None)
        assert cli.main(["compare", "--output-dir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: output_dir") and err.count("\n") == 1

    def test_one_flag_per_setting(self, tmp_path):
        keys = [k for section in cli.SECTIONS.values() for k in section]
        assert list(cli.PARAM_KEYS) == [f.name for f in dataclasses.fields(ModelParameters)]
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        for name, sp in sub.choices.items():
            flags = [s for a in sp._actions for s in a.option_strings
                     if s not in ("-h", "--help", "--config")]
            assert flags == [f"--{k.replace('_', '-')}" for k in keys], name
        code = cli.main(["convergence", "--output-dir", str(tmp_path),
                         "--study-grids", "2x2", "--Ne", "3", "--Me", "3",
                         "--fp-tol", "1e-9", "--L0", "0.012"])
        assert code == 0
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert config["solver"]["fp_tol"] == 1e-9
        assert config["grid"]["Ne"] == 3 and config["parameters"]["L0"] == 0.012
        assert config["run"]["study_grids"] == "2x2"


def _control_runs_loop(time_grid, phi):
    """Reference: scan the samples for constant runs (start, end, value)."""
    starts, ends, values = [], [], []
    i, n = 0, len(phi)
    while i < n:
        j = i
        while j + 1 < n and phi[j + 1] == phi[i]:
            j += 1
        starts.append(time_grid[i])
        ends.append(time_grid[j] if j == n - 1 else time_grid[j + 1])
        values.append(phi[i])
        i = j + 1
    return starts, ends, values


def test_control_runs_match_the_loop():
    rng = np.random.default_rng(7)
    grid = np.linspace(-1.0, 1.0, 41)
    for phi in [np.zeros(41), np.ones(41)] + [
            rng.integers(0, 2, 41).astype(float) for _ in range(20)]:
        got = cli._control_runs(grid, phi)
        for a, b in zip(got, _control_runs_loop(grid, phi)):
            assert list(a) == b


def test_write_csv_quotes_a_comma(tmp_path):
    message = "failed: OcclusionError: R + eps >= 1 (R = 0.99, eps = 0.02)"
    cli._write_csv(tmp_path / "rows.csv", "x,status", [(0.5, message)])
    rows = list(csv.reader((tmp_path / "rows.csv").read_text().splitlines()))
    assert rows == [["x", "status"], ["0.5", message]]


def _run_main(tmp_path, command, extra=()):
    args = [command, "--output-dir", str(tmp_path), "--N", "4", "--M", "4",
            "--sqp-max-iter", "2", "--fp-max-iter", "400",
            "--rk4-steps", "100"]
    for k, v in _decoupled_overrides().items():
        args += [f"--{k}", v]
    args += list(extra)
    return cli.main(args)


class TestCommands:
    def test_solve_direct_decoupled(self, tmp_path):
        code = _run_main(tmp_path, "solve-direct")
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_code"] == 0
        pd = ModelParameters()
        assert manifest["summary"]["direct"]["objective"] == pytest.approx(
            1.0 - pd.eps, abs=1e-12)
        for name in ("direct_field_L.csv", "direct_field_H.csv",
                     "direct_field_F.csv", "direct_radius.csv",
                     "direct_control.csv"):
            assert (tmp_path / name).exists()

    def test_solve_direct_reports_oracle_counts(self, tmp_path):
        assert _run_main(tmp_path, "solve-direct") == 0
        direct = json.loads((tmp_path / "manifest.json").read_text())["summary"]["direct"]
        assert direct["sqp_oracle_calls"] >= 1
        assert direct["sqp_evaluations"] >= direct["sqp_oracle_calls"]

    def test_solve_indirect_decoupled(self, tmp_path):
        code = _run_main(tmp_path, "solve-indirect")
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["summary"]["indirect"]["converged"] is True
        ctl = (tmp_path / "indirect_control.csv").read_text().splitlines()
        assert ctl[0] == "segment_start,segment_end,value"

    def test_compare_decoupled(self, tmp_path):
        code = _run_main(tmp_path, "compare")
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        cm = manifest["summary"]["cross_method"]
        assert cm["R"] < 1e-10
        assert cm["control_match_fraction"] == 1.0
        text = (tmp_path / "cross_method.csv").read_text()
        assert text.splitlines()[0] == "quantity,sup_norm_difference"

    def test_compare_builds_one_grid(self, tmp_path, monkeypatch):
        calls, build = [], cli.build_setup
        monkeypatch.setattr(cli, "build_setup", lambda *grid: calls.append(grid) or build(*grid))
        assert _run_main(tmp_path, "compare") == 0
        assert calls == [(4, 4)]

    def test_convergence_rows(self, tmp_path):
        code = _run_main(tmp_path, "convergence",
                         extra=["--study-grids", "2x2,3x3",
                                "--Ne", "5", "--Me", "5"])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["summary"]["convergence"]) == 2
        assert all(r["cpu_seconds"] > 0.0 for r in manifest["summary"]["convergence"])
        lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_convergence_csv_and_table_shapes(self, tmp_path):
        code = _run_main(tmp_path, "convergence",
                         extra=["--study-grids", "2x2", "--Ne", "4", "--Me", "4"])
        assert code == 0
        lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("N,M,Einf_L")
        assert "self-convergence" in (tmp_path / "convergence.txt").read_text()

    def test_failed_study_rows_are_written(self, tmp_path):
        # default parameters: one line per row, failed or not
        code = cli.main(["convergence", "--output-dir", str(tmp_path / "a"),
                         "--study-grids", "1x1,4x4", "--Ne", "8", "--Me", "8",
                         "--fp-max-iter", "400"])
        assert code in (0, 1)
        assert (tmp_path / "a" / "convergence.csv").read_text().count("\n") == 3
        code = cli.main(["convergence", "--output-dir", str(tmp_path / "b"),
                         "--study-grids", "2x2,4x4", "--Ne", "6", "--Me", "6",
                         "--fp-max-iter", "1"])
        assert code == 1
        text = (tmp_path / "b" / "convergence.csv").read_text()
        assert text.count("failed: NonConvergenceError") == 2

    def test_sweep_rows(self, tmp_path):
        code = _run_main(tmp_path, "sweep",
                         extra=["--sweep-pairs", "0.01:0.005"])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["summary"]["sweep"]) == 1
        assert manifest["summary"]["sweep"][0]["sqp_converged"] is True

    def test_sweep_fails_on_an_unconverged_sqp(self, tmp_path):
        # one SQP iteration cannot finish this pair: the run must say so in the
        # manifest and the exit code, as solve-direct does, and leave sweep.csv
        # with its usual rows
        code = cli.main(["sweep", "--output-dir", str(tmp_path),
                         "--sweep-pairs", "0.016:0.005", "--mu1", "0.06",
                         "--mu2", "0.015", "--N", "4", "--M", "4", "--sqp-max-iter", "1"])
        assert code == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        (row,) = manifest["summary"]["sweep"]
        assert row["sqp_converged"] is False and row["failed"] is False
        assert manifest["exit_code"] == 1
        rows = list(csv.reader((tmp_path / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 1 + 101 and all(r[5] == "ok" for r in rows[1:])

    def test_failure_status_is_one_line(self, tmp_path):
        # an occluded pair's message names scalars, so its quoted status cell
        # holds no line break and the record is one physical line
        code = cli.main(["sweep", "--output-dir", str(tmp_path),
                         "--sweep-pairs", "5:0.005", "--eps", "0.9"])
        assert code == 1
        text = (tmp_path / "sweep.csv").read_text()
        ((*_, status),) = list(csv.reader(text.splitlines()))[1:]
        assert status.startswith("failed: OcclusionError: R + eps >= 1 (largest R = ")
        assert "\n" not in status and text.count("\n") == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["summary"]["sweep"][0]["sqp_converged"] is None

    def test_sweep_csv_schema(self, tmp_path):
        pd = ModelParameters().decoupled()
        code = _run_main(tmp_path, "sweep", extra=[
            "--sweep-pairs", f"{pd.L0}:{pd.H0}", "--sqp-max-iter", "1"])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "L0,H0,tau,R_uncontrolled,R_controlled,status"
        assert len(lines) == 1 + 101

    def test_failed_sweep_row_formats_like_a_good_row(self, tmp_path):
        code = _run_main(tmp_path, "sweep",
                         extra=["--sweep-pairs=-1:0.005,0.01:0.005"])
        assert code == 1
        rows = list(csv.reader((tmp_path / "sweep.csv").read_text().splitlines()))
        assert rows[1][:2] == ["-1", "0.005"]
        assert rows[1][2:5] == ["", "", ""] and rows[1][5].startswith("failed: ")
        assert rows[2][:2] == ["0.01", "0.005"] and rows[2][5] == "ok"

    def test_every_csv_is_lf_only_and_rectangular(self, tmp_path):
        study = ["--study-grids", "2x2", "--Ne", "3", "--Me", "3"]
        for command, extra, count in (
                ("compare", [], 11),
                ("sweep", ["--sweep-pairs", "0.01:0.005"], 1),
                ("convergence", study, 1)):
            out = tmp_path / command
            assert _run_main(out, command, extra) == 0
            paths = sorted(out.glob("*.csv"))
            assert len(paths) == count, command
            for path in paths:
                data = path.read_bytes()
                assert b"\r" not in data, path.name
                lines = data.decode().split("\n")
                assert lines.pop() == "", path.name
                width = len(next(csv.reader(lines[:1])))
                for line in lines:
                    assert len(next(csv.reader([line]))) == width, (path.name, line)

    def test_deterministic_artifacts(self, tmp_path):
        study = ["--study-grids", "2x2", "--Ne", "3", "--Me", "3"]
        for command, extra, names in (
                ("solve-direct", [], ("direct_field_L.csv", "direct_radius.csv",
                                      "direct_control.csv")),
                ("solve-indirect", [], tuple(
                    f"indirect_{name}.csv" for name in (
                        "field_L", "field_H", "field_F", "radius", "control"))),
                ("convergence", study, ("convergence.csv", "convergence.txt")),
                ("sweep", ["--sweep-pairs", "0.01:0.005"], ("sweep.csv",))):
            d1, d2 = tmp_path / command / "a", tmp_path / command / "b"
            assert _run_main(d1, command, extra) == 0
            assert _run_main(d2, command, extra) == 0
            for name in names:
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_error_json_on_runtime_failure(self, tmp_path):
        # a parameter set that occludes immediately: large source, tiny cap
        code = cli.main(["solve-direct", "--output-dir", str(tmp_path),
                         "--N", "4", "--M", "4", "--fp-max-iter", "3",
                         "--sqp-max-iter", "0", "--eps", "0.999"])
        assert code in (0, 1)
        assert (tmp_path / "manifest.json").exists() or \
            (tmp_path / "error.json").exists()
