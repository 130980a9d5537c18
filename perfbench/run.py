"""Seeded benchmark of plaquectrl's solvers, end to end and layer by layer.

Run from the root of the repository:

    python3 perfbench/run.py --workload sweep-8x8 --seed 1 --seconds 30 --trace 0

Workloads (defined in ``workloads.py``, listed with their reasons in
``BENCHMARK.json``): sweep-8x8, fixedpoint-32x32 and shoot-8x8.  The run
takes seeded inputs until ``--seconds`` is used up (it starts no input it
expects to end later), checks every output, and counts an operation whose
check fails as failed and never as timed.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over several fresh processes of a cold import plus
  ``build_setup`` at the workload's grid;
* ``op_s.min``: time of the fastest operation (one pair, one solve or one
  sweep).  Other tenants of a shared machine can slow code by up to 2x for
  seconds to minutes at a time and never speed it up, so the fastest
  operation measures the program where the median measures the neighbours;
  the run record in ``perfbench/out/`` keeps every operation's time;
* ``peak_rss_mb``: peak resident memory of the measuring process.

The fraction of failed operations is ``failed / attempted`` in the result.

``--trace 1`` runs every input twice, once plain and once with the public
functions of the program wrapped by ``tracer.py``, alternating which goes
first.  It reports per-layer metrics per operation from the traced half,
and the tracing overhead as traced time against plain time.

Human-readable lines come first, including the environment.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run also writes its full
record to ``perfbench/out/``, and a traced run writes its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7

_COLD_SETUP = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from plaquectrl import spectral
spectral.build_setup(int(sys.argv[2]), int(sys.argv[3]))
print(time.perf_counter() - t0)
"""


def import_program():
    """Put the program's source on the import path, or stop if it is absent."""
    if not (SRC / "plaquectrl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))


def cold_setup_seconds(grid) -> float:
    """Cold import of plaquectrl plus one build_setup, in a fresh process."""
    out = subprocess.run([sys.executable, "-c", _COLD_SETUP, str(SRC),
                          *map(str, grid)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def _openblas_query(lib, base, restype=ctypes.c_int):
    """Call OpenBLAS's ``openblas_<base>`` under any of its exported names."""
    for sym in (f"openblas_{base}", f"openblas_{base}64_",
                f"scipy_openblas_{base}", f"scipy_openblas_{base}64_"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def _blas_libraries() -> list:
    """Loaded BLAS libraries, with OpenBLAS's build line and thread count."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return []
    found = []
    for path in sorted(p for p in paths
                       if any(k in os.path.basename(p).lower()
                              for k in ("openblas", "mkl", "blis"))):
        lib = ctypes.CDLL(path)
        config = _openblas_query(lib, "get_config", ctypes.c_char_p)
        found.append({"library": os.path.basename(path),
                      "threads": _openblas_query(lib, "get_num_threads"),
                      "config": config.decode().strip() if config else None})
    return found


def _git_commit() -> str:
    if not (REPO_ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed) -> dict:
    import numpy
    import scipy
    from plaquectrl import kernels

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": _blas_libraries(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernels_backend": kernels.backend_name(),
        "commit": _git_commit(),
        "seed": seed,
    }


# --- layers -----------------------------------------------------------------

def _fixed_point_counts(state) -> dict:
    """Iteration counts, plus dense-solve flops and operator bytes computed
    from them: per iteration three LU solves of order n = N*M, and three
    operators each built from three Kronecker blocks, all n x n float64."""
    n = state.setup.N * state.setup.M
    it = state.iterations
    return {
        "direct.fp_iterations": it,
        "direct.fp_unconverged": int(not state.converged),
        "direct.dense_solve.gflop": it * 3 * (2 * n**3 / 3 + 2 * n**2) / 1e9,
        "direct.operator.mb": it * 3 * 4 * n * n * 8 / 1e6,
    }


def build_tracer():
    """A tracer over the public functions of every solver layer."""
    import numpy as np
    from plaquectrl import direct, indirect, kernels, model, nlp, spectral, verify
    from tracer import Tracer

    tr = Tracer()
    tr.add(spectral, "build_setup", "spectral.build_setup")
    tr.add(spectral.CollocationSetup, "solve_space_values", "spectral.solve_space_values")
    tr.add(kernels, "eval_state_grids", "kernels.eval_state_grids")
    for fn in ("velocity_solve", "adjoint_velocity_solve", "rhs", "coeff", "adjoint_rhs"):
        tr.add(model, fn, f"model.{fn}")
    tr.add(direct, "fixed_point_solve", "direct.fixed_point_solve",
           counters=_fixed_point_counts)
    tr.add(direct, "assemble_operator", "direct.assemble_operator")
    tr.add(direct, "objective", "direct.objective")
    # direct imports sqp_minimize by name; solve_direct calls that binding.
    tr.add(direct, "sqp_minimize", "nlp.sqp_minimize",
           counters=lambda res: {"nlp.sqp_iterations": res.iterations})
    tr.add(nlp, "fd_gradient", "nlp.fd_gradient")
    tr.add(nlp, "qp_subproblem", "nlp.qp_subproblem")
    tr.add(indirect, "shooting_residual", "indirect.shooting_residual",
           counters=lambda res: {"indirect.sentinel_hits":
                                 int(np.any(res == indirect.RESIDUAL_SENTINEL))})
    tr.add(indirect, "ode_rhs", "indirect.ode_rhs")
    tr.add(verify, "control_effect_sweep", "verify.control_effect_sweep")
    return tr


def layer_metrics(tr, ops: int, overhead_frac: float) -> dict:
    """Per-operation calls, time and self time per traced function, counters
    per operation, build_setup time once per run, and the tracing overhead."""
    totals = tr.totals()
    out = {}
    for _, _, name, _ in tr.targets:
        t = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = t["calls"] / ops
        out[f"{name}.s"] = t["s"] / ops
        out[f"{name}.self_s"] = t["self_s"] / ops
    for key in ("direct.fp_iterations", "direct.fp_unconverged",
                "direct.dense_solve.gflop", "direct.operator.mb",
                "nlp.sqp_iterations", "indirect.sentinel_hits"):
        out[key] = tr.counters.get(key, 0.0) / ops
    out["spectral.build_setup.s"] = totals["spectral.build_setup"]["s"]
    out["trace.overhead_frac"] = overhead_frac
    return out


# --- measuring ----------------------------------------------------------------

def run_op(wl, setup, x, tracer=None):
    """Time one operation, then check it.  Returns (seconds, error or None)."""
    traced = tracer.installed() if tracer else contextlib.nullcontext()
    span = tracer.span("bench.op") if tracer else contextlib.nullcontext()
    with traced, span:
        t0 = time.perf_counter()
        try:
            out = wl.call(setup, x)
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            return time.perf_counter() - t0, f"input {x}: {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return dt, wl.check(x, out)


def measure_end_to_end(wl, setup, inputs, seconds) -> dict:
    """One operation per input until the time is used up.

    op_s holds the time of every operation that passed its check.
    """
    op_s, spent, errors = [], [], []
    t_start = time.perf_counter()
    while True:
        dt, err = run_op(wl, setup, next(inputs))
        spent.append(dt)
        if err:
            errors.append(err)
        else:
            op_s.append(dt)
        if time.perf_counter() - t_start + statistics.median(spent) > seconds:
            break
    return {"attempted": len(spent), "errors": errors, "op_s": op_s}


def measure_traced(wl, setup, inputs, seconds, tracer) -> dict:
    """Each input once plain and once traced, alternating which goes first."""
    plain, traced, spent, errors = [], [], [], []
    attempted = 0
    t_start = time.perf_counter()
    while True:
        x = next(inputs)
        p0 = time.perf_counter()
        order = (None, tracer) if len(spent) % 2 == 0 else (tracer, None)
        times = {}
        for tr in order:
            dt, err = run_op(wl, setup, x, tr)
            attempted += 1
            if err:
                errors.append(err)
            else:
                times[tr is not None] = dt
        spent.append(time.perf_counter() - p0)
        if len(times) == 2:
            plain.append(times[False])
            traced.append(times[True])
        if time.perf_counter() - t_start + statistics.median(spent) > seconds:
            break
    overhead = sum(traced) / sum(plain) - 1.0 if plain else None
    return {"attempted": attempted, "errors": errors, "traced_ops": attempted // 2,
            "plain_s": plain, "traced_s": traced, "overhead_frac": overhead}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    with open(REPO_ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    from plaquectrl import spectral
    from plaquectrl.params import ModelParameters
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](ModelParameters())
    env = environment(args.seed)
    print("env: " + json.dumps(env))

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    with wl.observed():
        if args.trace:
            tracer = build_tracer()
            with tracer.installed():
                setup = spectral.build_setup(*wl.grid)
            run = measure_traced(wl, setup, wl.inputs(args.seed), args.seconds, tracer)
            values = layer_metrics(tracer, run["traced_ops"], run["overhead_frac"])
            wanted = spec["per_layer"]
        else:
            setup_s = [cold_setup_seconds(wl.grid) for _ in range(SETUP_REPEATS)]
            setup = spectral.build_setup(*wl.grid)
            run = measure_end_to_end(wl, setup, wl.inputs(args.seed), args.seconds)
            run["setup_s"] = setup_s
            values = {
                "setup_s": statistics.median(setup_s),
                "op_s.min": min(run["op_s"], default=None),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = run["attempted"], len(run["errors"])
    for err in run["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    result = {"correct": failed == 0 and all(m["value"] is not None
                                             for m in metrics.values()),
              "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    record.update(run=run, metrics=metrics)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(OUT_DIR / f"{wl.name}.spans.npz")

    print(f"{wl.name} seed {args.seed}: {attempted} operations, {failed} failed "
          f"(fail_frac {failed / attempted:.3g})")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']!s:>24} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
