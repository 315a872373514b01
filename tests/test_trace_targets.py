"""The benchmark's tracer still fits the program: every name it wraps
exists, and uninstalling it puts each original object back.

A deleted or renamed traced name makes ``Tracer.install`` raise, so this
catches it in the tier-1 run, not only in the slower benchmark self-checks.
"""

import importlib.util
import sys
from pathlib import Path

import twigstore.cli  # noqa: F401 - loads every module the tracer patches

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in a twigstore module, or in a class it defines."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("twigstore.") or mod is None:
            continue
        for attr, value in vars(mod).items():
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for member, inner in vars(value).items():
                    out[(mod_name, attr, member)] = inner
    return out


def test_tracer_installs_every_target_and_uninstalls_cleanly():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert len(tracer._patched) >= len(tracing.TARGETS)
        for owner, attr, original in tracer._patched:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    moved = [key for key in before if after[key] is not before[key]]
    assert moved == []
