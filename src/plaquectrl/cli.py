"""Command-line surface: config ingestion, dispatch, and CSV/JSON output.

Five subcommands map one-to-one onto the library workflows:

* ``solve-direct``    fixed-point collocation solve + SQP control optimization
* ``solve-indirect``  shooting/RK4 solve of the state/adjoint system
* ``compare``         both routes + cross-method difference record
* ``convergence``     self-convergence study against a fine reference grid
* ``sweep``           control-effect sweep over (L0, H0) pairs

Configuration is a sectioned key=value file (configparser dialect) with
command-line flags overriding file values.  One table, ``SECTIONS``, lists
every key with its default; solver defaults are the library's own.  Exit
codes: 0 success, 1 solver non-convergence, 2 invalid input.  This module
alone formats artifacts: every CSV goes through ``_write_csv`` (commas, LF
line endings, floating-point cells at 12 significant digits) and runs are
deterministic (byte-identical CSV bodies).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import direct, indirect, verify
from .nlp import NlpOptions, projected_gradient
from .params import ModelParameters
from .spectral import build_setup

SECTIONS = {
    "parameters": {f.name: f.default for f in dataclasses.fields(ModelParameters)},
    "grid": {"N": 8, "M": 8, "Ne": 16, "Me": 16},
    "solver": {
        "fp_tol": direct.FP_TOL, "fp_max_iter": direct.FP_MAX_ITER,
        "sqp_tol": NlpOptions.tol, "sqp_max_iter": NlpOptions.max_iter,
        "shoot_tol": indirect.SHOOT_TOL,
        "shoot_max_iter": indirect.SHOOT_MAX_ITER, "rk4_steps": indirect.RK4_STEPS,
    },
    "run": {
        "output_dir": "out",
        "sweep_pairs": ",".join(f"{L0:.4f}:{H0:.4f}"
                                for L0, H0 in verify.DEFAULT_SWEEP_PAIRS),
        "study_grids": "2x2,4x4,8x8",
    },
}
PARAM_KEYS, GRID_KEYS, SOLVER_KEYS, RUN_KEYS = SECTIONS.values()
_SECTION_OF = {key: name for name, defaults in SECTIONS.items() for key in defaults}
# Run keys holding comma-separated pairs: separator, element type, format.
_LISTS = {"sweep_pairs": (":", float, "L0:H0"), "study_grids": ("x", int, "NxM")}


class ConfigError(ValueError):
    """Invalid configuration (unknown key, parse failure, violated invariant)."""


@dataclasses.dataclass
class RunConfig:
    """Fully resolved, validated run configuration, one field per section."""

    parameters: ModelParameters
    grid: dict
    solver: dict
    run: dict


def _parse_list(key: str, text: str):
    """The (a, b) pairs of run key ``key`` (see ``_LISTS``)."""
    sep, kind, form = _LISTS[key]
    items = []
    for chunk in filter(None, (c.strip() for c in text.split(","))):
        try:
            a, b = chunk.lower().split(sep)
            items.append((kind(a), kind(b)))
        except ValueError:
            raise ConfigError(f"malformed {key} entry {chunk!r} (want {form})") from None
    if not items:
        raise ConfigError(f"{key} is empty")
    return items


def load_config(path=None, overrides=None) -> RunConfig:
    """Read, merge and validate configuration.

    ``path`` is an optional sectioned key=value file with sections
    [parameters], [grid], [solver], [run]; unknown sections or keys are
    rejected.  ``overrides`` maps flat key -> raw string and wins over the
    file.  Missing keys take the defaults in ``SECTIONS``; every value is
    converted to the type of its default.
    """
    values = {}
    if path is not None:
        cp = configparser.ConfigParser(interpolation=None, default_section="")
        cp.optionxform = str  # grid keys are case-sensitive (N vs Ne)
        try:
            with open(path) as fh:
                cp.read_file(fh, source=str(path))
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except configparser.Error as exc:  # its file, line and text, on one line
            raise ConfigError(f"config parse error: {' '.join(str(exc).split())}") from None
        for section in cp.sections():
            if section not in SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in cp.items(section):
                if key not in SECTIONS[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                values[key] = raw
    values.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    resolved = {name: dict(defaults) for name, defaults in SECTIONS.items()}
    for key, raw in values.items():
        if key not in _SECTION_OF:
            raise ConfigError(f"unknown configuration key {key!r}")
        section = resolved[_SECTION_OF[key]]
        try:
            section[key] = type(section[key])(str(raw))
        except ValueError:
            raise ConfigError(f"{key} must be {type(section[key]).__name__}, "
                              f"got {raw!r}") from None
    try:
        params = ModelParameters(**resolved["parameters"])
    except ValueError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from None
    grid, solver, run = resolved["grid"], resolved["solver"], resolved["run"]
    for key, low in (("N", 1), ("M", 1), ("fp_max_iter", 1), ("sqp_max_iter", 0),
                     ("shoot_max_iter", 0), ("rk4_steps", indirect.RK4_MIN_STEPS)):
        if {**grid, **solver}[key] < low:
            raise ConfigError(f"{key} must be >= {low}")
    for key in ("fp_tol", "sqp_tol", "shoot_tol"):
        if not 0.0 < solver[key] < math.inf:
            raise ConfigError(f"{key} must be finite and > 0")
    for L0, H0 in _parse_list("sweep_pairs", run["sweep_pairs"]):
        try:
            dataclasses.replace(params, L0=L0, H0=H0)
        except ValueError as exc:
            raise ConfigError(f"sweep pair {L0}:{H0}: {exc}") from None
    Ne, Me = grid["Ne"], grid["Me"]
    for N, M in _parse_list("study_grids", run["study_grids"]):
        if not (1 <= N < Ne and 1 <= M < Me):
            raise ConfigError(f"study grid {N}x{M} is not strictly coarser than "
                              f"the reference {Ne}x{Me}")
    return RunConfig(parameters=params, grid=grid, solver=solver, run=run)


def _fmt(x) -> str:
    return x if isinstance(x, str) else f"{float(x):.12g}"


def _write_csv(path: Path, header: str, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows(map(_fmt, r) for r in rows)


def _write_route(route, outdir: Path, t, rho, fields, R, eps, control):
    """``<route>_field_{L,H,F}.csv`` as (t, rho, value) rows in time-major order
    (``fields[which]`` is (nrho, nt)), ``_radius.csv`` and ``_control.csv``."""
    for which in "LHF":
        _write_csv(outdir / f"{route}_field_{which}.csv", "t,rho,value",
                   ((tj, r, fields[which][i, j]) for j, tj in enumerate(t)
                    for i, r in enumerate(rho)))
    _write_csv(outdir / f"{route}_radius.csv", "t,R,R_physical",
               ((tj, r, r + eps) for tj, r in zip(t, R)))
    _write_csv(outdir / f"{route}_control.csv", "segment_start,segment_end,value",
               zip(*control))


def _control_runs(time_grid, phi):
    """Compress control samples into constant runs (starts, ends, values)."""
    first = np.flatnonzero(np.r_[True, phi[1:] != phi[:-1]])
    return time_grid[first], np.r_[time_grid[first[1:]], time_grid[-1]], phi[first]


def _nlp_options(solver: dict) -> NlpOptions:
    return NlpOptions(tol=solver["sqp_tol"], max_iter=solver["sqp_max_iter"])


def _setup(config: RunConfig):
    return build_setup(config.grid["N"], config.grid["M"])


def _direct(config: RunConfig, setup, outdir: Path, summary: dict):
    sv, p = config.solver, config.parameters
    eps = p.eps
    best, state, value, result = direct.solve_direct(
        setup, p, _nlp_options(sv), fp_tol=sv["fp_tol"], fp_max_iter=sv["fp_max_iter"])
    edges = best.partition
    _write_route("direct", outdir, setup.t, setup.rho,
                 {w: state.field_nodes(w) for w in "LHF"}, state.radius_nodes(),
                 eps, (edges[:-1], edges[1:], best.segments))
    summary["direct"] = {
        "objective": value,
        "final_radius_physical": state.final_radius() + eps,
        "fixed_point_converged": state.converged,
        "fixed_point_iterations": state.iterations,
        "gmres_iterations": state.gmres_iterations,
        "preconditioner_builds": state.preconditioner_builds,
        "sqp_converged": result.converged,
        "sqp_iterations": result.iterations,
        "sqp_message": result.message,
        "sqp_evaluations": result.evaluations,
        "sqp_oracle_calls": result.oracle_calls,
        # the returned state's residual, and the control's first-order certificate
        "residual": direct.residual_norm(state, p),
        "projected_gradient_max": float(np.max(np.abs(projected_gradient(
            result.x, result.gradient, 0.0, p.Kbound)))),
        "segments_at_0": int(np.sum(best.segments == 0.0)),
        "segments_at_Kbound": int(np.sum(best.segments == p.Kbound)),
    }
    return 0 if result.converged else 1, best, state


def _indirect(config: RunConfig, setup, outdir: Path, summary: dict):
    sv, eps = config.solver, config.parameters.eps
    sol = indirect.solve_indirect(setup, config.parameters, tol=sv["shoot_tol"],
                                  max_iter=sv["shoot_max_iter"],
                                  n_steps=sv["rk4_steps"])
    _write_route("indirect", outdir, sol.time_grid, setup.rho,
                 {w: sol.field_nodes(w) for w in "LHF"}, sol.R, eps,
                 _control_runs(sol.time_grid, sol.phi))
    summary["indirect"] = {
        "objective": sol.objective,
        "final_radius_physical": float(sol.R[-1]) + eps,
        "converged": sol.converged,
        "newton_iterations": sol.newton_iterations,
        "residual_norm": sol.residual_norm,
        "switching_times": [float(x) for x in sol.switching_times],
    }
    return 0 if sol.converged else 1, sol


def _run_compare(config: RunConfig, outdir: Path, summary: dict) -> int:
    setup = _setup(config)
    code_d, best, state = _direct(config, setup, outdir, summary)
    code_i, sol = _indirect(config, setup, outdir, summary)
    diff = verify.cross_method_diff(state, sol, best)
    _write_csv(outdir / "cross_method.csv", "quantity,sup_norm_difference",
               ((key, diff[key]) for key in ("L", "H", "F", "R", "control",
                                             "control_match_fraction")))
    summary["cross_method"] = {k: float(v) for k, v in diff.items()}
    return max(code_d, code_i)


def _run_convergence(config: RunConfig, outdir: Path, summary: dict) -> int:
    grids = _parse_list("study_grids", config.run["study_grids"])
    ref = (config.grid["Ne"], config.grid["Me"])
    rows = verify.convergence_study(config.parameters, grids, reference_grid=ref,
                                    fp_tol=config.solver["fp_tol"],
                                    fp_max_iter=config.solver["fp_max_iter"])
    header = "N,M,Einf_L,Einf_H,Einf_F,E2_L,E2_H,E2_F,E_J,status"
    table = [[r.N, r.M] + ([""] * 7 + [f"failed: {r.message}"] if r.failed else
                          [r.Einf[u] for u in "LHF"] + [r.E2[u] for u in "LHF"]
                          + [r.EJ, "ok"]) for r in rows]
    _write_csv(outdir / "convergence.csv", header, table)
    cells = [header.split(",")] + [list(map(_fmt, r)) for r in table]
    widths = [max(map(len, column)) for column in zip(*cells)]
    p = config.parameters
    (outdir / "convergence.txt").write_text("\n".join(
        [f"self-convergence study  (reference grid {ref[0]} x {ref[1]}; "
         f"L0={p.L0}, H0={p.H0}, T={p.T})"]
        + [" ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells]) + "\n")
    summary["convergence"] = [
        {"N": r.N, "M": r.M, "failed": r.failed, "cpu_seconds": r.cpu_seconds,
         "Einf_L": None if r.failed else r.Einf["L"]}
        for r in rows
    ]
    return 1 if any(r.failed for r in rows) else 0


def _run_sweep(config: RunConfig, outdir: Path, summary: dict) -> int:
    pairs = _parse_list("sweep_pairs", config.run["sweep_pairs"])
    results = verify.control_effect_sweep(
        pairs, config.parameters, _setup(config), fp_tol=config.solver["fp_tol"],
        fp_max_iter=config.solver["fp_max_iter"],
        nlp_options=_nlp_options(config.solver))
    rows = []
    for r in results:
        if r["failed"]:
            rows.append((r["L0"], r["H0"], "", "", "", f"failed: {r['message']}"))
        else:
            rows += [(r["L0"], r["H0"], *v, "ok")
                     for v in zip(r["t"], r["R_uncontrolled"], r["R_controlled"])]
    _write_csv(outdir / "sweep.csv", "L0,H0,tau,R_uncontrolled,R_controlled,status",
               rows)
    summary["sweep"] = [
        {"L0": r["L0"], "H0": r["H0"], "failed": r["failed"],
         "final_R_uncontrolled": None if r["failed"] else float(r["R_uncontrolled"][-1]),
         "final_R_controlled": None if r["failed"] else float(r["R_controlled"][-1]),
         "sqp_converged": r.get("sqp_converged")}
        for r in results
    ]
    return 1 if any(r["failed"] or not r["sqp_converged"] for r in results) else 0


_COMMANDS = {
    "solve-direct": lambda config, *args: _direct(config, _setup(config), *args)[0],
    "solve-indirect": lambda config, *args: _indirect(config, _setup(config), *args)[0],
    "compare": _run_compare,
    "convergence": _run_convergence,
    "sweep": _run_sweep,
}


def run(command: str, config: RunConfig) -> int:
    """Execute one subcommand; write manifest and artifacts; return exit code."""
    outdir = Path(config.run["output_dir"])
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path under one
        print(f"invalid input: output_dir {str(outdir)!r}: {exc.strerror}", file=sys.stderr)
        return 2
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
        "config": dataclasses.asdict(config),
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
        for key in _SECTION_OF:
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
