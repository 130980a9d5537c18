"""The benchmark's workloads: seeded inputs, one operation each, its check.

Each workload yields an endless stream of inputs from the run's seed, runs
one operation per input through the program's public functions, and checks
the operation's output.  ``check`` returns None when the output is correct
and a one-line reason otherwise.

sweep-8x8 draws fresh (L0, H0) pairs from the seed.  fixedpoint-32x32 and
shoot-8x8 draw from a pool of recorded inputs in ``refs.json``, whose
reference outputs come from ``record_refs.py``; the seed decides which pool
entries a run uses and in what order.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import numpy as np

from plaquectrl import direct, indirect, verify
from plaquectrl.params import ModelParameters

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

# ROADMAP item 4 requires objective values unchanged to 1e-10.
FIXEDPOINT_J_TOL = 1e-10

# The residual is amplified to about 1e259 over the sweep.  Scaling a pool
# input by 1 + 1e-14 moves it by at most 2.1e-14 of its sup-norm (printed by
# record_refs.py), so 1e-9 leaves over four orders of margin for rounding
# differences between BLAS builds and CPUs.
SHOOT_RESIDUAL_RTOL = 1e-9

SWEEP_L0 = (0.010, 0.016)
SWEEP_H0 = (0.004, 0.006)


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)


def _pool_order(rng, size):
    """Pool indices in a seeded order, reshuffled each time the pool is used up."""
    while True:
        yield from (int(k) for k in rng.permutation(size))


def _collecting(fn, sink):
    def collecting(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result

    return collecting


class Workload:
    """Common defaults: no hooks."""

    def __init__(self, params: ModelParameters):
        self.params = params

    def observed(self):
        return contextlib.nullcontext()


class Sweep(Workload):
    """verify.control_effect_sweep at N=M=8, one (L0, H0) pair per operation."""

    name = "sweep-8x8"
    grid = (8, 8)

    def __init__(self, params: ModelParameters):
        super().__init__(params)
        self._states = []
        self._nlp_results = []

    @contextlib.contextmanager
    def observed(self):
        """Collect the solver objects the sweep itself does not return.

        ``control_effect_sweep`` reports neither fixed-point nor SQP
        convergence, so the check reads them from these hooks.
        """
        hooks = [(direct, "fixed_point_solve", self._states),
                 (direct, "sqp_minimize", self._nlp_results)]
        originals = [getattr(owner, attr) for owner, attr, _ in hooks]
        try:
            for (owner, attr, sink), fn in zip(hooks, originals):
                setattr(owner, attr, _collecting(fn, sink))
            yield
        finally:
            for (owner, attr, _), fn in zip(hooks, originals):
                setattr(owner, attr, fn)

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            yield (float(rng.uniform(*SWEEP_L0)), float(rng.uniform(*SWEEP_H0)))

    def call(self, setup, pair):
        self._states.clear()
        self._nlp_results.clear()
        return verify.control_effect_sweep([pair], self.params, setup)

    def check(self, pair, rows):
        row = rows[0]
        if row["failed"]:
            return f"pair {pair} failed: {row['message']}"
        if not self._states or not all(st.converged for st in self._states):
            return f"pair {pair}: a fixed-point solve did not converge"
        if len(self._nlp_results) != 1 or not self._nlp_results[0].converged:
            return f"pair {pair}: SQP did not converge"
        jc, ju = row["objective_controlled"], row["objective_uncontrolled"]
        if not (np.isfinite(jc) and np.isfinite(ju)):
            return f"pair {pair}: non-finite objective"
        if jc > ju:
            return f"pair {pair}: controlled {jc!r} > uncontrolled {ju!r}"
        return None


class FixedPoint(Workload):
    """One direct.fixed_point_solve at N=M=32 per operation."""

    name = "fixedpoint-32x32"
    grid = (32, 32)

    def __init__(self, params: ModelParameters):
        super().__init__(params)
        ref = load_refs()[self.name]
        self.controls = [np.array(c) for c in ref["controls"]]
        self.J = ref["J"]

    def inputs(self, seed):
        yield from _pool_order(np.random.default_rng(seed), len(self.controls))

    def call(self, setup, k):
        control = direct.ControlVector(self.controls[k], self.params.Kbound)
        return direct.fixed_point_solve(control, setup, self.params)

    def check(self, k, state):
        if not state.converged:
            return f"control {k}: fixed point did not converge"
        J = 1.0 - state.final_radius() - self.params.eps
        if not abs(J - self.J[k]) <= FIXEDPOINT_J_TOL:
            return f"control {k}: J = {J!r}, reference {self.J[k]!r}"
        return None


class Shoot(Workload):
    """One indirect.shooting_residual sweep at N=8, 400 RK4 steps, per operation."""

    name = "shoot-8x8"
    grid = (8, 8)
    n_steps = 400  # the CLI default

    def __init__(self, params: ModelParameters):
        super().__init__(params)
        ref = load_refs()[self.name]
        self.vectors = [np.array(s) for s in ref["vectors"]]
        self.residuals = [np.array(r) for r in ref["residuals"]]

    def inputs(self, seed):
        yield from _pool_order(np.random.default_rng(seed), len(self.vectors))

    def call(self, setup, k):
        return indirect.shooting_residual(indirect.ShootingVector(self.vectors[k]),
                                          setup, self.params, self.n_steps)

    def check(self, k, res):
        if not np.all(np.isfinite(res)):
            return f"vector {k}: non-finite residual"
        if np.any(res == indirect.RESIDUAL_SENTINEL):
            return f"vector {k}: sentinel residual"
        ref = self.residuals[k]
        err = np.max(np.abs(res - ref)) / np.max(np.abs(ref))
        if not err <= SHOOT_RESIDUAL_RTOL:
            return f"vector {k}: residual differs from reference by {err:.3e} (relative)"
        return None


WORKLOADS = {w.name: w for w in (Sweep, FixedPoint, Shoot)}
