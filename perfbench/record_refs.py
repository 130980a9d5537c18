"""Regenerate ``refs.json``: input pools and reference outputs.

fixedpoint-32x32 and shoot-8x8 check every operation against a reference
recorded here, so their inputs come from fixed pools.  Run from the root of
the repository, on the commit whose outputs should become the reference:

    python3 perfbench/record_refs.py

It takes about five minutes on two cores.  For each shooting vector it also
records how many times the bang-bang control switches, and it prints how far
the residual moves when the vector is scaled by 1 + 1e-14 (the figure that
``SHOOT_RESIDUAL_RTOL`` in ``workloads.py`` is set against).
"""

from __future__ import annotations

import json
import sys

import numpy as np

from run import REPO_ROOT, import_program

POOL_SEED = 20221103
FIXEDPOINT_POOL = 24
SHOOT_POOL = 48
SHOOT_SIGMA = 1e-2


def main():
    import_program()
    from plaquectrl import direct, indirect, spectral
    from plaquectrl.params import ModelParameters
    from workloads import FixedPoint, REFS_PATH, Shoot

    params = ModelParameters()
    rng = np.random.default_rng(POOL_SEED)

    setup = spectral.build_setup(*FixedPoint.grid)
    controls, J = [], []
    for k in range(FIXEDPOINT_POOL):
        c = rng.uniform(0.0, params.Kbound, setup.M)
        state = direct.fixed_point_solve(direct.ControlVector(c, params.Kbound),
                                         setup, params)
        if not state.converged:
            sys.exit(f"fixed point {k} did not converge")
        controls.append(c.tolist())
        J.append(1.0 - state.final_radius() - params.eps)
        print(f"fixedpoint {k}: J = {J[-1]!r}", flush=True)

    setup = spectral.build_setup(*Shoot.grid)
    vectors, residuals, switches, drift = [], [], [], []
    for k in range(SHOOT_POOL):
        s = rng.normal(0.0, SHOOT_SIGMA, 3 * setup.N + 1)
        res = indirect.shooting_residual(indirect.ShootingVector(s), setup, params,
                                         Shoot.n_steps)
        if not np.all(np.isfinite(res)) or np.any(res == indirect.RESIDUAL_SENTINEL):
            sys.exit(f"shooting vector {k} gives no usable residual")
        scaled = indirect.shooting_residual(indirect.ShootingVector(s * (1 + 1e-14)),
                                            setup, params, Shoot.n_steps)
        drift.append(float(np.max(np.abs(scaled - res)) / np.max(np.abs(res))))
        y0 = indirect._initial_state(indirect.ShootingVector(s), setup)
        *_, switching = indirect._integrate_with_control(y0, setup, params,
                                                         Shoot.n_steps)
        vectors.append(s.tolist())
        residuals.append(res.tolist())
        switches.append(len(switching))
        print(f"shoot {k}: |r| = {np.max(np.abs(res)):.3e}, switches = "
              f"{switches[-1]}, drift = {drift[-1]:.2e}", flush=True)
    print(f"largest relative drift under 1e-14 scaling: {max(drift):.2e}")

    refs = {
        "pool_seed": POOL_SEED,
        FixedPoint.name: {"controls": controls, "J": J},
        Shoot.name: {"vectors": vectors, "residuals": residuals,
                     "switches": switches, "max_drift": max(drift)},
    }
    with open(REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFS_PATH.relative_to(REPO_ROOT)}")


if __name__ == "__main__":
    main()
