"""The benchmark's per-layer tracer (``bench/trace_layers.py``) replaces
pipeline names by attribute and raises ``KeyError`` on a missing one.
Installing it here, without running anything, turns a rename or deletion
that would break ``bench/run.py --trace 1`` into a failing test.  The
benchmark also checks that a batch's per-layer counts repeat when it runs
again; a tiny sweep run twice under the tracer checks the same here."""

import importlib.util
import json
from pathlib import Path

from kldro.experiments import ExperimentConfig, run_sweep

ROOT = Path(__file__).resolve().parent.parent
TRACE_LAYERS = ROOT / "bench" / "trace_layers.py"


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


def test_traced_counts_repeat_when_a_sweep_runs_again():
    # An alpha no other test uses: a count that depends on what earlier
    # calls left behind in the process differs between the two runs.
    raw = json.loads((ROOT / "configs" / "fig7.json").read_text())
    cfg = ExperimentConfig.from_dict({**raw, "grid": [0, 40], "n0": 1, "alpha": 0.0371})
    tracer = load_trace_layers().Tracer()
    counts = []
    with tracer.installed():
        for _ in range(2):
            run_sweep(cfg)
            counts.append(tracer.take_counts())
    assert counts[0]["radius.radius_best_calls"] == 3
    assert counts[0] == counts[1]
