import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kldro.graphs import (
    build_layered,
    decision_from_nodes,
    enumerate_paths,
    path_cost,
    shortest_path,
    to_edgelist,
)
from oracles import shortest_path_reference


def test_structure_counts():
    g = build_layered(3, 3)
    assert g.num_nodes == 11
    assert g.num_arcs == 24
    g2 = build_layered(7, 4)
    assert g2.num_nodes == 30
    assert g2.num_arcs == 104
    g3 = build_layered(1, 1)
    assert g3.num_nodes == 3
    assert g3.num_arcs == 2
    assert len(enumerate_paths(g3)) == 1


def test_invalid_dimensions():
    with pytest.raises(ValueError):
        build_layered(0, 3)
    with pytest.raises(ValueError):
        build_layered(3, 0)


def test_arc_ordering_stable():
    a = build_layered(4, 3).arcs
    b = build_layered(4, 3).arcs
    assert a == b
    # layer-major: source fan-out first, sink fan-in last
    g = build_layered(2, 2)
    assert g.arcs == ((0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5))


def test_shortest_path_two_branches():
    g = build_layered(1, 2)
    # branch via node 1 costs 3, via node 2 costs 5
    dec, value = shortest_path(g, np.array([1.0, 2.0, 2.0, 3.0]))
    assert value == 3.0
    assert dec.nodes == (0, 1, 3)


def test_constant_costs_value_counts_path_length():
    g = build_layered(3, 4)
    _, value = shortest_path(g, np.full(g.num_arcs, 2.5))
    assert value == pytest.approx(2.5 * (g.h + 1), rel=1e-15)


def test_shift_invariance_of_argmin():
    g = build_layered(3, 3)
    rng = np.random.default_rng(20)
    costs = rng.uniform(1.0, 9.0, g.num_arcs)
    base, _ = shortest_path(g, costs)
    shifted, _ = shortest_path(g, costs + 7.25)
    assert base == shifted


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_shortest_path_rejects_non_finite_costs(bad):
    g = build_layered(2, 2)
    # all arcs: without the check the back-walk from the sink never ends
    with pytest.raises(ValueError, match=r"^arc 0 \(0, 1\) has non-finite cost"):
        shortest_path(g, np.full(g.num_arcs, bad))
    # the sink's in-arcs only: without the check pred == -1 picks g.arcs[-1]
    costs = np.ones(g.num_arcs)
    costs[-g.w:] = bad
    k = g.num_arcs - g.w
    with pytest.raises(ValueError, match=rf"^arc {k} \(3, 5\) has non-finite cost {bad!r}"):
        shortest_path(g, costs)


def test_enumeration_counts_and_lexicographic_order():
    assert len(enumerate_paths(build_layered(3, 3))) == 27
    assert len(enumerate_paths(build_layered(2, 4))) == 16
    paths = enumerate_paths(build_layered(2, 2))
    assert [p.nodes for p in paths] == [
        (0, 1, 3, 5),
        (0, 1, 4, 5),
        (0, 2, 3, 5),
        (0, 2, 4, 5),
    ]


def test_enumeration_cap():
    with pytest.raises(ValueError, match="^1048576 paths exceed the enumeration cap 100000"):
        enumerate_paths(build_layered(10, 4))


def test_paths_and_incidence_built_once_per_graph():
    enumerate_paths.cache_clear()
    g = build_layered(3, 3)
    paths = enumerate_paths(g)
    assert enumerate_paths(build_layered(3, 3)) is paths  # an equal graph hits too
    assert enumerate_paths.cache_info().misses == 1
    too_many = build_layered(9, 4)  # 4**9 paths, above ENUMERATION_CAP
    with pytest.raises(ValueError, match="cap"):
        enumerate_paths(too_many)


def test_flow_conservation_on_enumerated_paths():
    g = build_layered(3, 2)
    for dec in enumerate_paths(g):
        out_deg = np.zeros(g.num_nodes, dtype=int)
        in_deg = np.zeros(g.num_nodes, dtype=int)
        for k in np.flatnonzero(dec.incidence):
            tail, head = g.arcs[k]
            out_deg[tail] += 1
            in_deg[head] += 1
        assert out_deg[g.source] == 1 and in_deg[g.source] == 0
        assert in_deg[g.sink] == 1 and out_deg[g.sink] == 0
        for n in range(1, g.sink):
            assert in_deg[n] == out_deg[n] <= 1


def test_dp_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(21)
    shapes = [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (1, 7), (2, 10)]
    for h, w in shapes:
        g = build_layered(h, w)
        for _ in range(10):
            costs = rng.uniform(0.5, 10.0, g.num_arcs)
            dec, value = shortest_path(g, costs)
            best = min(path_cost(p, costs) for p in enumerate_paths(g))
            assert value == best  # exact: identical accumulation order
            assert path_cost(dec, costs) == value


@st.composite
def graphs_and_tied_costs(draw, max_rows=None):
    """A graph of 1-6 layers of 1-5 nodes, and small integer arc costs (so
    many paths tie) of which about one in eight carries a fraction: one row
    of them, or with ``max_rows`` a stack of 1 to ``max_rows`` rows."""
    g = build_layered(draw(st.integers(1, 6)), draw(st.integers(1, 5)))
    shape = g.num_arcs if max_rows is None else (draw(st.integers(1, max_rows)), g.num_arcs)
    whole = draw(arrays(np.int64, shape, elements=st.integers(0, 3)))
    fractions = st.sampled_from([0.0] * 7 + [0.1, 0.25, 1 / 3, 0.7])
    return g, whole + draw(arrays(np.float64, shape, elements=fractions))


@settings(max_examples=300)
@given(graphs_and_tied_costs())
def test_layer_dp_equals_the_arc_by_arc_forward_pass(case):
    g, costs = case
    dec, value = shortest_path(g, costs)
    nodes, expected = shortest_path_reference(g, costs)
    assert dec.nodes == nodes
    assert value == expected
    assert path_cost(dec, costs) == value


@settings(max_examples=200)
@given(graphs_and_tied_costs(max_rows=6))
@example((build_layered(1, 3), np.array([[1.0, 0.0, 2.0, 1.0, 1.0, 0.0], [0.0] * 6])))
def test_batched_dp_answers_every_row_as_the_one_row_call(case):
    """h = 1 graphs, which have no inner block, come up too."""
    g, rows = case
    found = shortest_path(g, rows)
    assert len(found) == len(rows)
    for row, (dec, value) in zip(rows, found):
        alone, alone_value = shortest_path(g, row)
        assert dec.nodes == alone.nodes == shortest_path_reference(g, row)[0]
        assert np.array_equal(dec.incidence, alone.incidence)
        assert value == alone_value == path_cost(dec, row)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batched_dp_names_the_row_and_arc_of_a_non_finite_cost(bad):
    g = build_layered(2, 2)
    rows = np.ones((3, g.num_arcs))
    rows[1, 5] = bad
    rows[2] = bad  # a later row does not hide the first bad one
    with pytest.raises(ValueError, match=rf"^row 1: arc 5 \(2, 4\) has non-finite cost {bad!r}$"):
        shortest_path(g, rows)
    with pytest.raises(ValueError, match=r"^expected 8 costs per row, got \(1, 3, 8\)$"):
        shortest_path(g, rows[None])


@pytest.mark.parametrize("h, w", [(1, 1), (1, 3), (2, 2), (3, 3), (4, 2), (2, 5)])
def test_decision_from_nodes_round_trips_every_path(h, w):
    g = build_layered(h, w)
    lookup = {arc: k for k, arc in enumerate(g.arcs)}
    for path in enumerate_paths(g):
        dec = decision_from_nodes(g, path.nodes)
        assert dec.nodes == path.nodes
        expected = np.zeros(g.num_arcs, dtype=np.int8)
        expected[[lookup[arc] for arc in zip(path.nodes, path.nodes[1:])]] = 1
        assert np.array_equal(dec.incidence, expected)
        assert np.array_equal(path.incidence, expected)


@pytest.mark.parametrize("nodes", [
    (0, 1, 5),  # one node short
    (1, 1, 3, 5),  # does not start at the source
    (0, 1, 3, 4),  # does not end at the sink
    (0, 3, 1, 5),  # layers out of order
    (0, 1, 2, 5),  # node 2 lies in layer 1, not layer 2
    (0, 3, 4, 5),  # node 3 lies in layer 2, not layer 1
    (0, 1, 3, 4, 5),  # one node too many
    (1, 3, 5),  # a path from layer 1, not from the source
    (0, 1),  # a path that stops in layer 1
    (),
])
def test_decision_from_nodes_rejects_non_paths(nodes):
    g = build_layered(2, 2)
    with pytest.raises(ValueError, match=rf"^nodes {re.escape(repr(nodes))} are not a "
                                         r"source-sink path of the 2x2 graph$"):
        decision_from_nodes(g, nodes)


def test_decision_equality_and_incidence():
    g = build_layered(2, 2)
    d1 = decision_from_nodes(g, (0, 1, 3, 5))
    d2 = decision_from_nodes(g, (0, 1, 3, 5))
    d3 = decision_from_nodes(g, (0, 2, 3, 5))
    assert d1 == d2 and d1 != d3
    assert int(np.sum(d1.incidence)) == g.path_length


def test_edgelist_format():
    g = build_layered(1, 2)
    text = to_edgelist(g)
    lines = text.strip().splitlines()
    assert lines[0] == "1 2"
    assert lines[1:] == ["0 1", "0 2", "1 3", "2 3"]
    assert len(lines) == 1 + g.num_arcs
