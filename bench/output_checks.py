"""Output checks for one sweep batch.

Each check returns the set of ``(grid_index, replicate)`` keys it found
wrong, so failures are counted per replicate.  Invariants hold for any
seed; the reference comparison applies to the pinned-seed batch and uses a
relative tolerance rather than a byte hash, so last-bit float drift stays
legal while a changed path or a moved loss does not.
"""

from __future__ import annotations

import math

RHO_FLOOR = 1.0 - 1e-12  # rho = achieved / best is >= 1 up to rounding
RTOL = 1e-9  # reference tolerance on rho and predicted loss


def replicate_keys(cfg) -> set:
    return {(gi, r) for gi in range(len(cfg.grid)) for r in range(cfg.n0)}


def shape_ok(results, cfg) -> bool:
    """The sweep returned one point per grid value, n0 replicates each,
    and one outcome per configured rule in config order."""
    if len(results) != len(cfg.grid):
        return False
    for point, value in zip(results, cfg.grid):
        if point.sweep_value != float(value) or len(point.replicates) != cfg.n0:
            return False
        for r, rep in enumerate(point.replicates):
            if rep.replicate != r or tuple(o.rule for o in rep.outcomes) != cfg.rules:
                return False
    return True


def _path_ok(nodes, graph, arcs) -> bool:
    return (
        len(nodes) == graph.path_length + 1
        and nodes[0] == graph.source
        and nodes[-1] == graph.sink
        and all((a, b) in arcs for a, b in zip(nodes, nodes[1:]))
    )


def invariant_failures(results, graph) -> set:
    """rho >= 1, finite losses, and a valid source-sink path for every rule."""
    arcs = set(graph.arcs)
    bad = set()
    for gi, point in enumerate(results):
        for rep in point.replicates:
            for out in rep.outcomes:
                finite = all(math.isfinite(v) for v in (out.rho, out.predicted, out.nominal))
                if not (finite and out.rho >= RHO_FLOOR and _path_ok(out.nodes, graph, arcs)):
                    bad.add((gi, rep.replicate))
    return bad


def csv_failures(rows, results, sweep_var) -> set:
    """results.csv, read back, carries exactly the in-memory outcomes."""
    expected = [
        (gi, rep, out)
        for gi, point in enumerate(results)
        for rep in point.replicates
        for out in rep.outcomes
    ]
    if len(rows) != len(expected):
        return {(gi, rep.replicate) for gi, rep, _ in expected}
    bad = set()
    for row, (gi, rep, out) in zip(rows, expected):
        same = (
            row["sweep_var"] == sweep_var
            and row["sweep_value"] == results[gi].sweep_value
            and row["rule"] == out.rule
            and row["replicate"] == rep.replicate
            and row["rho"] == out.rho
            and row["predicted_loss"] == out.predicted
            and row["nominal_loss"] == out.nominal
            and row["disappointed"] == out.disappointed
        )
        if not same:
            bad.add((gi, rep.replicate))
    return bad


def difference_failures(a, b) -> set:
    """Replicates whose results differ between two runs of one config."""
    bad = set()
    for gi, (pa, pb) in enumerate(zip(a, b)):
        for ra, rb in zip(pa.replicates, pb.replicates):
            if ra != rb:
                bad.add((gi, ra.replicate))
    return bad


def reference_rows(results) -> list:
    """[grid_index, replicate, rule, nodes, rho, predicted] per outcome."""
    return [
        [gi, rep.replicate, out.rule, list(out.nodes), out.rho, out.predicted]
        for gi, point in enumerate(results)
        for rep in point.replicates
        for out in rep.outcomes
    ]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * abs(b)


def reference_failures(results, rows) -> set:
    """Same chosen path per rule and replicate as the stored reference, and
    rho and predicted loss within RTOL of it."""
    got = reference_rows(results)
    if len(got) != len(rows):
        return {(gi, r) for gi, r, *_ in got + rows}
    bad = set()
    for (gi, r, rule, nodes, rho, pred), ref in zip(got, rows):
        rgi, rr, rrule, rnodes, rrho, rpred = ref
        if (gi, r, rule, nodes) != (rgi, rr, rrule, rnodes) or not (
            _close(rho, rrho) and _close(pred, rpred)
        ):
            bad.add((gi, r))
    return bad
