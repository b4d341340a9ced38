"""Per-layer tracing from outside the package.

The tracer replaces the names the pipeline looks up at call time (module
globals such as ``experiments.nominal_marginals`` and ``rules.solve_dual``,
and the methods ``DataSet.empirical`` and ``JointEmpirical.from_dataset``)
with wrappers that time each call.  A layer's self time is the duration of
its span minus the time covered by wrapped calls made inside it.  Counts
are read from return values, so no code under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter


def _layers():
    """(owner, attribute, time metric, calls metric, counts from result, keep durations)."""
    from kldro import experiments, rules
    from kldro.marginals import DataSet

    return [
        (experiments, "nominal_marginals", "datagen.nominal_marginals_ms", None, None, False),
        (experiments, "sample_sizes", "datagen.sample_sizes_ms", None, None, False),
        (experiments, "draw_dataset", "datagen.draw_dataset_ms", None, None, False),
        (DataSet, "empirical", "marginals.empirical_ms", "marginals.empirical_calls", None, False),
        (rules, "split_alpha", "rules.split_alpha_ms", None, None, False),
        (rules, "radius_best", "radius.radius_best_ms", "radius.radius_best_calls", None, False),
        (experiments, "calibrate_ambiguity", "rules.calibrate_ambiguity_ms", None, None, False),
        (rules, "calibrate_ambiguity", "rules.calibrate_ambiguity_ms", None, None, False),
        (rules, "solve_dual", "worstcase.solve_dual_ms", "worstcase.solve_dual_calls",
         lambda sol: {"worstcase.dual_iterations": sol.iterations}, False),
        (rules, "minimize_dual", "worstcase.minimize_dual_ms", "worstcase.minimize_dual_calls",
         lambda res: {"worstcase.minimize_dual_iterations": res[2]}, False),
        (rules, "enumerate_paths", "graphs.enumerate_paths_ms", None,
         lambda paths: {"graphs.paths_enumerated": len(paths)}, False),
        (rules, "truncate_dataset", "rules.truncate_dataset_ms", None, None, False),
        (rules.JointEmpirical, "from_dataset", "rules.joint_empirical_ms", None, None, False),
        (experiments, "dro_prescribe", "rules.dro_prescribe_self_ms", None, None, False),
        (rules, "dro_prescribe", "rules.dro_prescribe_self_ms", None, None, False),
        (experiments, "hoeffding_prescribe", "rules.hoeffding_prescribe_self_ms", None, None, False),
        (experiments, "dro1_prescribe", "rules.dro1_prescribe_self_ms", None, None, False),
        (experiments, "shortest_path", "graphs.shortest_path_ms", None, None, False),
        (rules, "shortest_path", "graphs.shortest_path_ms", None, None, False),
        (experiments, "emit_results", "experiments.emit_results_ms", None, None, False),
        (experiments, "run_replicate", "experiments.run_replicate_self_ms", None, None, True),
    ]


class Tracer:
    """Accumulates self time (ns) per time metric, counts per count metric,
    and the total duration of every call of layers that keep durations."""

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.durations_ns: list[int] = []
        self.wall_ns = 0  # time spent with the wrappers installed
        self._open: list[int] = []  # child time covered so far, one entry per open span

    def call(self, metric, fn, args, kwargs, calls_metric=None, count=None, keep=False):
        self._open.append(0)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            children = self._open.pop()
            self.self_ns[metric] += elapsed - children
            if self._open:
                self._open[-1] += elapsed
            if keep:
                self.durations_ns.append(elapsed)
        if calls_metric is not None:
            self.counts[calls_metric] += 1
        if count is not None:
            self.counts.update(count(result))
        return result

    def take_counts(self) -> dict:
        """Counts since the last call, then reset them."""
        out = dict(self.counts)
        self.counts.clear()
        return out

    def _wrap(self, fn, metric, calls_metric, count, keep):
        def traced(*args, **kwargs):
            return self.call(metric, fn, args, kwargs, calls_metric, count, keep)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        start = time.perf_counter_ns()
        try:
            for owner, attr, metric, calls_metric, count, keep in _layers():
                raw = owner.__dict__[attr]
                wrapped = self._wrap(getattr(owner, attr), metric, calls_metric, count, keep)
                if isinstance(raw, classmethod):
                    wrapped = staticmethod(wrapped)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
            self.wall_ns += time.perf_counter_ns() - start
