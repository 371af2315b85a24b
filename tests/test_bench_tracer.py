"""The benchmark's tracer can wrap every boundary it names."""
import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    """bench/spans.py as a module, read without writing a bytecode cache."""
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_uninstalls_every_boundary():
    # a boundary whose name the package lacks fails every traced benchmark run
    spans = _load_spans()
    modules = {mod: importlib.import_module(f"betaspec.{mod}") for mod, _, _ in spans.BOUNDARIES}
    originals = [(mod, attr, getattr(modules[mod], attr)) for mod, attr, _ in spans.BOUNDARIES]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(modules[mod], attr) is not fn for mod, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(getattr(modules[mod], attr) is fn for mod, attr, fn in originals)
