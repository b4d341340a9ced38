"""The benchmark's per-layer tracer (``bench/trace_layers.py``) replaces
pipeline names by attribute and raises ``KeyError`` on a missing one.
Installing it here, without running anything, turns a rename or deletion
that would break ``bench/run.py --trace 1`` into a failing test."""

import importlib.util
from pathlib import Path

TRACE_LAYERS = Path(__file__).resolve().parent.parent / "bench" / "trace_layers.py"


def load_trace_layers():
    spec = importlib.util.spec_from_file_location("trace_layers", TRACE_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_and_restores_it():
    trace_layers = load_trace_layers()
    layers = [(owner, attr) for owner, attr, *_ in trace_layers._layers()]
    originals = [owner.__dict__[attr] for owner, attr in layers]
    tracer = trace_layers.Tracer()
    with tracer.installed():
        assert all(owner.__dict__[attr] is not raw
                   for (owner, attr), raw in zip(layers, originals))
    assert all(owner.__dict__[attr] is raw for (owner, attr), raw in zip(layers, originals))
    assert not tracer.self_ns and not tracer.take_counts()
