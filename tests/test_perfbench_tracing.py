"""The benchmark's tracer finds every planner function it wraps.

``perfbench/tracing.py`` looks each traced function up as
``owner.__dict__[attr]``, so renaming or moving one breaks
``perfbench/run.py --trace 1`` with a KeyError.  This installs and
uninstalls the tracer without planning anything.
"""

import importlib.util

from tests.conftest import REPO_ROOT


def _tracing_module():
    path = REPO_ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _tracing_module()
    targets = [(owner, attr) for owner, attr, _ in tracing.TARGETS]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = [owner.__dict__[attr] for owner, attr in targets]
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(
        owner.__dict__[attr] is o for (owner, attr), o in zip(targets, originals)
    )
