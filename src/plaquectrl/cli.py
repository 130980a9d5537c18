"""Command-line surface: config ingestion, dispatch, and CSV/JSON output.

Five subcommands map one-to-one onto the library workflows:

* ``solve-direct``    fixed-point collocation solve + SQP control optimization
* ``solve-indirect``  shooting/RK4 solve of the state/adjoint system
* ``compare``         both routes + cross-method difference record
* ``convergence``     self-convergence study against a fine reference grid
* ``sweep``           control-effect sweep over (L0, H0) pairs

Configuration is a sectioned key=value file (configparser dialect) with
command-line flags overriding file values.  Exit codes: 0 success, 1 solver
non-convergence, 2 invalid input.  All floating-point output uses 12
significant digits and runs are deterministic (byte-identical CSV bodies).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import direct, indirect, verify
from .nlp import NlpOptions
from .params import ModelParameters
from .spectral import build_setup

PARAM_KEYS = [f.name for f in dataclasses.fields(ModelParameters)]
GRID_KEYS = {"N": 8, "M": 8, "Ne": 16, "Me": 16}
SOLVER_KEYS = {
    "fp_tol": 1e-8, "fp_max_iter": 400,
    "sqp_tol": 1e-6, "sqp_max_iter": 100, "grad_step": 1e-5,
    "shoot_tol": 1e-8, "shoot_max_iter": 50, "rk4_steps": 400,
}
RUN_KEYS = {
    "output_dir": "out",
    "sweep_pairs": ",".join(f"{L0:.4f}:{H0:.4f}"
                            for L0, H0 in verify.DEFAULT_SWEEP_PAIRS),
    "study_grids": "2x2,4x4,8x8",
}
_INT_KEYS = {"N", "M", "Ne", "Me", "fp_max_iter", "sqp_max_iter",
             "shoot_max_iter", "rk4_steps"}


class ConfigError(ValueError):
    """Invalid configuration (unknown key, parse failure, violated invariant)."""


@dataclasses.dataclass
class RunConfig:
    """Fully resolved, validated run configuration."""

    params: ModelParameters
    grid: dict
    solver: dict
    run: dict

    def as_manifest_dict(self) -> dict:
        return {
            "parameters": dataclasses.asdict(self.params),
            "grid": dict(self.grid),
            "solver": dict(self.solver),
            "run": dict(self.run),
        }


def _parse_pairs(text: str):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            a, b = chunk.split(":")
            pairs.append((float(a), float(b)))
        except ValueError:
            raise ConfigError(f"malformed sweep pair {chunk!r} (want L0:H0)") from None
    if not pairs:
        raise ConfigError("sweep_pairs is empty")
    return pairs


def _parse_grids(text: str):
    grids = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            a, b = chunk.lower().split("x")
            grids.append((int(a), int(b)))
        except ValueError:
            raise ConfigError(f"malformed grid {chunk!r} (want NxM)") from None
    if not grids:
        raise ConfigError("study_grids is empty")
    return grids


def _coerce(key: str, raw: str):
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
    if key in RUN_KEYS:
        return raw
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None


def load_config(path=None, overrides=None) -> RunConfig:
    """Read, merge and validate configuration.

    ``path`` is an optional sectioned key=value file with sections
    [parameters], [grid], [solver], [run]; unknown sections or keys are
    rejected.  ``overrides`` maps flat key -> raw string and wins over the
    file.  Missing keys take the documented defaults.
    """
    values = {}
    if path is not None:
        cp = configparser.ConfigParser()
        cp.optionxform = str  # grid keys are case-sensitive (N vs Ne)
        try:
            with open(path) as fh:
                cp.read_file(fh, source=str(path))
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from None
        known = {"parameters": PARAM_KEYS, "grid": GRID_KEYS,
                 "solver": SOLVER_KEYS, "run": RUN_KEYS}
        for section in cp.sections():
            if section not in known:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in cp.items(section):
                if key not in known[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                values[key] = raw
    for key, raw in (overrides or {}).items():
        if raw is not None:
            values[key] = raw

    param_over = {k: float(values.pop(k)) for k in list(values)
                  if k in PARAM_KEYS}
    try:
        params = ModelParameters(**param_over)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid parameters: {exc}") from None
    grid = dict(GRID_KEYS)
    solver = dict(SOLVER_KEYS)
    run = dict(RUN_KEYS)
    for key in list(values):
        raw = values.pop(key)
        if key in grid:
            grid[key] = _coerce(key, str(raw))
        elif key in solver:
            solver[key] = _coerce(key, str(raw))
        elif key in run:
            run[key] = str(raw)
        else:
            raise ConfigError(f"unknown configuration key {key!r}")
    if grid["N"] < 1 or grid["M"] < 1:
        raise ConfigError("grid sizes N, M must be >= 1")
    if solver["fp_tol"] <= 0 or solver["fp_max_iter"] < 1:
        raise ConfigError("fp_tol must be > 0 and fp_max_iter >= 1")
    if solver["rk4_steps"] < 2:
        raise ConfigError("rk4_steps must be >= 2")
    _parse_pairs(run["sweep_pairs"])
    _parse_grids(run["study_grids"])
    return RunConfig(params=params, grid=grid, solver=solver, run=run)


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _write_field_csv(path: Path, t_values, rho_values, grid_values):
    """(t, rho, value) triples in row-major time order; grid is (nrho, nt)."""
    lines = ["t,rho,value"]
    for j, t in enumerate(t_values):
        for i, r in enumerate(rho_values):
            lines.append(f"{_fmt(t)},{_fmt(r)},{_fmt(grid_values[i, j])}")
    path.write_text("\n".join(lines) + "\n")


def _write_control_csv(path: Path, starts, ends, values):
    lines = ["segment_start,segment_end,value"]
    for a, b, v in zip(starts, ends, values):
        lines.append(f"{_fmt(a)},{_fmt(b)},{_fmt(v)}")
    path.write_text("\n".join(lines) + "\n")


def _control_runs(time_grid, phi):
    """Compress control samples into constant runs (start, end, value)."""
    starts, ends, values = [], [], []
    i = 0
    n = len(phi)
    while i < n:
        j = i
        while j + 1 < n and phi[j + 1] == phi[i]:
            j += 1
        starts.append(time_grid[i])
        ends.append(time_grid[j] if j == n - 1 else time_grid[j + 1])
        values.append(phi[i])
        i = j + 1
    return starts, ends, values


def _nlp_options(solver: dict) -> NlpOptions:
    return NlpOptions(grad_step=solver["grad_step"], tol=solver["sqp_tol"],
                      max_iter=solver["sqp_max_iter"])


def _direct_artifacts(config: RunConfig, outdir: Path, summary: dict):
    setup = build_setup(config.grid["N"], config.grid["M"])
    sv = config.solver
    best, state, value, result = direct.solve_direct(
        setup, config.params, _nlp_options(sv),
        fp_tol=sv["fp_tol"], fp_max_iter=sv["fp_max_iter"])
    for which in ("L", "H", "F"):
        _write_field_csv(outdir / f"direct_field_{which}.csv", setup.t,
                         setup.rho, state.field_nodes(which))
    Rn = state.radius_nodes()
    lines = ["t,R,R_physical"]
    for t, r in zip(setup.t, Rn):
        lines.append(f"{_fmt(t)},{_fmt(r)},{_fmt(r + config.params.eps)}")
    (outdir / "direct_radius.csv").write_text("\n".join(lines) + "\n")
    edges = best.partition
    _write_control_csv(outdir / "direct_control.csv", edges[:-1], edges[1:],
                       best.segments)
    summary["direct"] = {
        "objective": value,
        "final_radius_physical": state.final_radius() + config.params.eps,
        "fixed_point_converged": state.converged,
        "fixed_point_iterations": state.iterations,
        "sqp_converged": result.converged,
        "sqp_iterations": result.iterations,
        "sqp_message": result.message,
    }
    code = 0 if (state.converged and result.converged) else 1
    return code, best, state


def _run_direct(config: RunConfig, outdir: Path, summary: dict) -> int:
    return _direct_artifacts(config, outdir, summary)[0]


def _indirect_artifacts(config: RunConfig, outdir: Path, summary: dict):
    setup = build_setup(config.grid["N"], config.grid["M"])
    sv = config.solver
    sol = indirect.solve_indirect(setup, config.params, tol=sv["shoot_tol"],
                                  max_iter=sv["shoot_max_iter"],
                                  n_steps=sv["rk4_steps"])
    for which in ("L", "H", "F"):
        _write_field_csv(outdir / f"indirect_field_{which}.csv", sol.time_grid,
                         setup.rho, sol.field_nodes(which).T)
    lines = ["t,R,R_physical"]
    for t, r in zip(sol.time_grid, sol.R):
        lines.append(f"{_fmt(t)},{_fmt(r)},{_fmt(r + config.params.eps)}")
    (outdir / "indirect_radius.csv").write_text("\n".join(lines) + "\n")
    starts, ends, values = _control_runs(sol.time_grid, sol.phi)
    _write_control_csv(outdir / "indirect_control.csv", starts, ends, values)
    summary["indirect"] = {
        "objective": 1.0 - float(sol.R[-1]) - config.params.eps,
        "final_radius_physical": float(sol.R[-1]) + config.params.eps,
        "converged": sol.converged,
        "newton_iterations": sol.newton_iterations,
        "residual_norm": sol.residual_norm,
        "switching_times": [float(x) for x in sol.switching_times],
    }
    code = 0 if sol.converged else 1
    return code, sol


def _run_indirect(config: RunConfig, outdir: Path, summary: dict) -> int:
    return _indirect_artifacts(config, outdir, summary)[0]


def _run_compare(config: RunConfig, outdir: Path, summary: dict) -> int:
    code_d, best, state = _direct_artifacts(config, outdir, summary)
    code_i, sol = _indirect_artifacts(config, outdir, summary)
    diff = verify.cross_method_diff(state, sol, best)
    lines = ["quantity,sup_norm_difference"]
    for key in ("L", "H", "F", "R", "control", "control_match_fraction"):
        lines.append(f"{key},{_fmt(diff[key])}")
    (outdir / "cross_method.csv").write_text("\n".join(lines) + "\n")
    summary["cross_method"] = {k: float(v) for k, v in diff.items()}
    return max(code_d, code_i)


def _run_convergence(config: RunConfig, outdir: Path, summary: dict) -> int:
    grids = _parse_grids(config.run["study_grids"])
    ref = (config.grid["Ne"], config.grid["Me"])
    rows = verify.convergence_study(config.params, grids, reference_grid=ref,
                                    fp_tol=config.solver["fp_tol"],
                                    fp_max_iter=config.solver["fp_max_iter"])
    (outdir / "convergence.csv").write_text(verify.study_csv(rows))
    (outdir / "convergence.txt").write_text(verify.study_table(rows, config.params))
    summary["convergence"] = [
        {"N": r.N, "M": r.M, "failed": r.failed,
         "Einf_L": None if r.failed else r.Einf["L"]}
        for r in rows
    ]
    return 1 if any(r.failed for r in rows) else 0


def _run_sweep(config: RunConfig, outdir: Path, summary: dict) -> int:
    pairs = _parse_pairs(config.run["sweep_pairs"])
    setup = build_setup(config.grid["N"], config.grid["M"])
    results = verify.control_effect_sweep(
        pairs, config.params, setup, fp_tol=config.solver["fp_tol"],
        fp_max_iter=config.solver["fp_max_iter"],
        nlp_options=_nlp_options(config.solver))
    (outdir / "sweep.csv").write_text(verify.sweep_csv(results))
    summary["sweep"] = [
        {"L0": r["L0"], "H0": r["H0"], "failed": r["failed"],
         "final_R_uncontrolled": None if r["failed"] else float(r["R_uncontrolled"][-1]),
         "final_R_controlled": None if r["failed"] else float(r["R_controlled"][-1])}
        for r in results
    ]
    return 1 if any(r["failed"] for r in results) else 0


_COMMANDS = {
    "solve-direct": _run_direct,
    "solve-indirect": _run_indirect,
    "compare": _run_compare,
    "convergence": _run_convergence,
    "sweep": _run_sweep,
}


def run(command: str, config: RunConfig) -> int:
    """Execute one subcommand; write manifest and artifacts; return exit code."""
    outdir = Path(config.run["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {}
    t0 = time.perf_counter()
    try:
        code = _COMMANDS[command](config, outdir, summary)
    except Exception as exc:  # noqa: BLE001 - serialized, never swallowed
        record = {"command": command, "error": type(exc).__name__,
                  "message": str(exc)}
        (outdir / "error.json").write_text(json.dumps(record, indent=2) + "\n")
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    manifest = {
        "command": command,
        "config": config.as_manifest_dict(),
        "summary": summary,
        "wall_seconds": time.perf_counter() - t0,
        "exit_code": code,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plaquectrl",
        description="Optimal control of a free-boundary plaque-growth model.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="sectioned key=value file")
        for key in PARAM_KEYS:
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
        for key in list(GRID_KEYS) + list(SOLVER_KEYS) + list(RUN_KEYS):
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config") and v is not None}
    try:
        config = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    return run(args.command, config)


if __name__ == "__main__":
    sys.exit(main())
