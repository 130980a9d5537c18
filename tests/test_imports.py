"""Import cost of the package: heavy SciPy submodules stay unloaded, and no
solve loads scipy.linalg or numpy.ma."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import plaquectrl

# On top of the package, importing scipy.sparse.linalg adds about 30 ms and
# 2.4 MB of peak RSS, scipy.special about 70 ms and 2.6 MB, and scipy.linalg
# about 0.27 s and 21-26 MB (2-vCPU VM).  Both fixed-point paths, dense and
# matrix-free, and the shooting route run on numpy alone.  np.median imports
# numpy.ma on first use, which adds 1.6 MiB of peak RSS to a 32 x 32 solve.
HEAVY = ("scipy.sparse.linalg", "scipy.special", "scipy.linalg")


def _run(code, **env):
    """Standard output of ``code`` run by a fresh interpreter on this package,
    with ``env`` added to the environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(plaquectrl.__file__).parents[1]), **env)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=300, check=True)
    return out.stdout.strip()


def test_package_imports_load_no_heavy_scipy_module():
    assert _run("import sys, plaquectrl, plaquectrl.cli, plaquectrl.verify; "
                f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))") == ""


def test_scipy_linalg_never_loads():
    out = _run("""
import sys
import numpy as np
from plaquectrl import direct, indirect
from plaquectrl.nlp import NlpOptions
from plaquectrl.params import ModelParameters
from plaquectrl.spectral import build_setup
P = ModelParameters()
direct.solve_direct(build_setup(8, 8), P, nlp_options=NlpOptions(max_iter=1))
indirect.shooting_residual(indirect.ShootingVector(np.zeros(25)), build_setup(8, 8),
                           P, n_steps=50)
print('scipy.linalg' in sys.modules)
s = build_setup(10, 10)
assert s.N * s.M > direct.DENSE_MAX_UNKNOWNS
state = direct.fixed_point_solve(direct.ControlVector(np.zeros(10), P.Kbound), s, P)
print('scipy.linalg' in sys.modules, state.converged, 'numpy.ma' in sys.modules)
""")
    assert out.split() == ["False", "False", "True", "False"]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults with getrusage")
def test_dense_pass_allocates_no_fresh_pages():
    # Until a process frees a large mapped block, which raises the threshold
    # (importing scipy.linalg appears to), glibc maps every block above
    # 128 KB afresh, so a per-pass temporary above it faults in all its pages
    # on every pass.  The threshold is pinned there, so the count does not
    # depend on what the process did before.  The largest dense operator,
    # 99 unknowns, is 99^2 x 8 B = 78 KB < 128 KB, so a pass's temporaries
    # reuse freed heap.
    out = _run("""
import resource, sys
import numpy as np
from plaquectrl import direct
from plaquectrl.params import ModelParameters
from plaquectrl.spectral import build_setup
P, s = ModelParameters(), build_setup(8, 8)
control = direct.ControlVector(np.full(8, 0.5 * P.Kbound), P.Kbound)
direct.fixed_point_solve(control, s, P)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
state = direct.fixed_point_solve(control, s, P)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
assert 'scipy.linalg' not in sys.modules
print(faults / state.iterations)
""", MALLOC_MMAP_THRESHOLD_="131072")
    assert float(out) < 20
