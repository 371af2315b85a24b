"""The benchmark's tracer can wrap every boundary it names."""
import importlib
import json
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


def test_traced_beta1_call_reads_the_fields_the_tracer_counts(capsys):
    # the tracer counts AsymptoticFit.iterations and the power trace's
    # iterates: a field it reads that the package drops fails this call
    spans = _load_spans()
    run = importlib.import_module("betaspec.cli").run
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert run(["beta1", "--n", "50", "--digits", "12", "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    entry = json.loads(capsys.readouterr().out)[0]
    assert entry["iterations"] >= 1
    names = [span[0] for span in tracer.spans]
    assert "limitcase.lambda_max_beta1" in names and "limitcase.power_method_trace" in names
    # the five products of the power trace that the JSON prints
    assert tracer.layer_metrics()["limitcase.power_iterations"] == entry["iterations"] + 5
