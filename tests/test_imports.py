"""Import cost of the package: heavy SciPy submodules stay unloaded."""

import os
import subprocess
import sys
from pathlib import Path

import plaquectrl

# On top of the package, importing scipy.sparse.linalg adds about 30 ms and
# 2.4 MB of peak RSS, and scipy.special about 70 ms and 2.6 MB (2-vCPU VM);
# the solvers need neither.
HEAVY = ("scipy.sparse.linalg", "scipy.special")


def test_package_imports_load_no_heavy_scipy_module():
    code = ("import sys, plaquectrl, plaquectrl.cli, plaquectrl.verify; "
            f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(plaquectrl.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    assert out.stdout.strip() == ""
