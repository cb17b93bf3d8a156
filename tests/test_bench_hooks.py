"""The benchmark's tracer wraps library names from outside; these names must
keep existing, or the traced layers of ``bench/run.py --trace 1`` go silent."""

import importlib.util
from pathlib import Path

import sparseknap
from sparseknap import load_instance, load_point

ROOT = Path(__file__).parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_separation_reaches_every_separation_layer():
    tracing = _load_tracing()
    k, _ = load_instance(str(ROOT / "fixtures" / "w35.json"))
    xhat = load_point(str(ROOT / "fixtures" / "w35_point.json"), k.n)
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        call = tracer.wrap(lambda: sparseknap.separate(k, xhat), tracing.ROOT)
        call()
    finally:
        tracer.uninstall()
    layers = tracer.layer_totals()
    for layer in ("covers.odometer", "covers.lifting", "indep.search", "separation.score"):
        assert layers.get(layer, (0.0, 0))[1] > 0, layer
    assert tracer.counts["covers.classes"] > 0
    assert not hasattr(sparseknap.separate, "__wrapped__")
