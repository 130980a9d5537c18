"""The benchmark's contract with the program.

``perfbench/run.py --trace 1`` replaces public functions of every solver
layer by traced wrappers, and every run records its environment through
the program.  A function either names that was deleted or renamed fails
here instead of crashing a benchmark run.  One operation of
each workload (shoot-8x8, sweep-8x8, and fixedpoint-32x32, which runs the
matrix-free GMRES path) also runs through the benchmark's own call and
check, so a change that moves the pinned references fails here too; every
fixedpoint-32x32 pool control does, untraced, as GMRES rounding moves with
its starting guesses.  Nothing under ``perfbench/`` is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from plaquectrl.params import ModelParameters
from plaquectrl.spectral import build_setup

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports tracer by name
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_run(monkeypatch):
    return _load(monkeypatch, "run")


def test_environment_record_builds(monkeypatch):
    before = sorted(PERFBENCH.rglob("*"))
    env = _load_run(monkeypatch).environment(1)
    assert env["seed"] == 1
    json.dumps(env)  # written into every run's JSON
    assert sorted(PERFBENCH.rglob("*")) == before


def test_every_traced_function_can_be_installed(monkeypatch):
    tracer = _load_run(monkeypatch).build_tracer()
    assert tracer.targets
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracer.targets]
    assert all(callable(fn) for fn in originals)
    with tracer.installed():
        for (owner, attr, _, _), fn in zip(tracer.targets, originals):
            assert getattr(owner, attr) is not fn
    for (owner, attr, _, _), fn in zip(tracer.targets, originals):
        assert getattr(owner, attr) is fn


# Pool entry 2 of shoot-8x8 switches the control twice during the sweep.
@pytest.mark.parametrize("workload, x", [("shoot-8x8", 2),
                                         ("sweep-8x8", (0.0138, 0.0045)),
                                         ("fixedpoint-32x32", 0)],
                         ids=["shoot-8x8", "sweep-8x8", "fixedpoint-32x32"])
def test_one_operation_passes_its_check_under_the_tracer(monkeypatch, workload, x):
    run = _load_run(monkeypatch)
    wl = _load(monkeypatch, "workloads").WORKLOADS[workload](ModelParameters())
    tracer = run.build_tracer()
    with wl.observed():
        _, error = run.run_op(wl, build_setup(*wl.grid), x, tracer)
    assert error is None
    totals = tracer.totals()
    assert totals["model.rhs"]["calls"] > 0  # traced, not bypassed
    if workload == "sweep-8x8":  # the exact gradient sends no FD probes
        assert totals.get("nlp.fd_gradient", {"calls": 0})["calls"] == 0
        for name in ("direct.fixed_point_solve", "direct.assemble_operator",
                     "kernels.eval_state_grids", "model.velocity_solve",
                     "nlp.sqp_minimize", "verify.control_effect_sweep"):
            assert totals.get(name, {"calls": 0})["calls"] > 0, name


def test_every_fixedpoint_pool_control_passes_its_check(monkeypatch):
    wl = _load(monkeypatch, "workloads").WORKLOADS["fixedpoint-32x32"](ModelParameters())
    setup = build_setup(*wl.grid)
    errors = [wl.check(k, wl.call(setup, k)) for k in range(len(wl.controls))]
    assert len(errors) == 24
    assert [e for e in errors if e is not None] == []
