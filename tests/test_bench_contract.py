"""The program names the benchmark wraps exist and can be wrapped.

``perfbench/run.py --trace 1`` replaces public functions of every solver
layer by traced wrappers.  A function it names that was deleted or renamed
fails here instead of crashing a traced benchmark run.  Nothing under
``perfbench/`` is written.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports tracer by name
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


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
