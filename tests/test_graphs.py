import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kldro import rules
from kldro.graphs import (
    build_layered,
    enumerate_paths,
    path_nodes,
    route_costs,
    shortest_path,
    to_edgelist,
)
from kldro.marginals import DataSet, Support
from oracles import path_cost, shortest_path_reference


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
    path, value = shortest_path(g, np.array([1.0, 2.0, 2.0, 3.0]))
    assert value == 3.0
    assert path == (0,)
    assert path_nodes(g, path).tolist() == [0, 1, 3]


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
    """Lexicographic read from the sink: the last layer's node varies slowest."""
    assert len(enumerate_paths(build_layered(3, 3))) == 27
    assert len(enumerate_paths(build_layered(2, 4))) == 16
    g = build_layered(2, 2)
    assert path_nodes(g, enumerate_paths(g)).tolist() == [
        [0, 1, 3, 5],
        [0, 2, 3, 5],
        [0, 1, 4, 5],
        [0, 2, 4, 5],
    ]


@pytest.mark.parametrize("h, w", [(1, 1), (1, 4), (2, 3), (3, 3), (5, 2)])
def test_enumeration_is_one_array_in_tie_order(h, w):
    g = build_layered(h, w)
    paths = enumerate_paths(g)
    assert paths.shape == (w**h, h) and paths.dtype == np.intp and paths.flags.c_contiguous
    assert paths.tolist() == [list(c[::-1]) for c in itertools.product(range(w), repeat=h)]


@pytest.mark.parametrize("h, w", [(1, 1), (1, 3), (2, 3), (3, 3), (4, 2), (2, 5)])
def test_shortest_path_is_the_first_least_path_of_the_enumeration(h, w):
    """Arc costs of 1 and 2 tie many paths exactly; the DP's path is the
    first of least cost in the enumeration, so a rule that takes the argmin
    over enumerated paths breaks ties as the DP does."""
    g = build_layered(h, w)
    paths = enumerate_paths(g)
    rng = np.random.default_rng(100 * h + w)
    for costs in rng.integers(1, 3, size=(200, g.num_arcs)).astype(float):
        vals = route_costs(g, paths, costs)
        k = int(np.argmin(vals))
        assert shortest_path(g, costs) == (tuple(paths[k].tolist()), float(vals[k]))


def test_enumeration_cap():
    with pytest.raises(ValueError, match=r"^4\*\*10 paths exceed the enumeration cap 100000"):
        enumerate_paths(build_layered(10, 4))


def test_enumeration_cap_message_for_a_count_of_over_4300_digits():
    # 4**7200 has 4,335 decimal digits, more than str() of an int may write
    with pytest.raises(ValueError, match=r"^4\*\*7200 paths exceed the enumeration cap"):
        enumerate_paths(build_layered(7200, 4))


def test_paths_and_incidence_built_once_per_graph(monkeypatch):
    """No cache: dro1 enumerates the paths once per call, for every row of
    a block, and each call builds a fresh array."""
    g = build_layered(3, 3)
    calls = []
    monkeypatch.setattr(rules, "enumerate_paths",
                        lambda graph: calls.append(graph) or enumerate_paths(graph))
    rng = np.random.default_rng(7)
    block = DataSet(Support.integers(3), rng.integers(0, 3, size=4 * g.num_arcs * 5),
                    np.full((4, g.num_arcs), 5))
    routes = rules.joint_worst_case_paths(g, block, np.full(4, 0.2))
    assert calls == [g] and routes.choices.shape == (4, g.h)
    assert enumerate_paths(build_layered(3, 3)) is not enumerate_paths(build_layered(3, 3))
    too_many = build_layered(9, 4)  # 4**9 paths, above ENUMERATION_CAP
    with pytest.raises(ValueError, match="cap"):
        enumerate_paths(too_many)


def test_flow_conservation_on_enumerated_paths():
    g = build_layered(3, 2)
    # a path's incidence vector: its cost under each unit cost vector
    incidence = route_costs(g, enumerate_paths(g), np.eye(g.num_arcs))
    for row in incidence:
        assert set(row.tolist()) == {0.0, 1.0}
        out_deg = np.zeros(g.num_nodes, dtype=int)
        in_deg = np.zeros(g.num_nodes, dtype=int)
        for k in np.flatnonzero(row):
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
            path, value = shortest_path(g, costs)
            best = min(path_cost(g, p, costs) for p in enumerate_paths(g))
            assert value == best  # exact: identical accumulation order
            assert path_cost(g, path, costs) == value


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
    path, value = shortest_path(g, costs)
    nodes, expected = shortest_path_reference(g, costs)
    assert tuple(path_nodes(g, path).tolist()) == nodes
    assert value == expected
    assert path_cost(g, path, costs) == value


@settings(max_examples=200)
@given(graphs_and_tied_costs(max_rows=6))
@example((build_layered(1, 3), np.array([[1.0, 0.0, 2.0, 1.0, 1.0, 0.0], [0.0] * 6])))
def test_batched_dp_answers_every_row_as_the_one_row_call(case):
    """h = 1 graphs, which have no inner block, come up too."""
    g, rows = case
    found = shortest_path(g, rows)
    assert len(found.values) == len(rows)
    for row, (path, value) in zip(rows, found):
        alone, alone_value = shortest_path(g, row)
        assert path == alone
        assert tuple(path_nodes(g, path).tolist()) == shortest_path_reference(g, row)[0]
        assert value == alone_value == path_cost(g, path, row)


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
def test_path_nodes_and_incidence_round_trip_every_path(h, w):
    """Each path's nodes, looked up pair by pair in ``g.arcs``, are the
    arcs its choices gather: the ones of its incidence vector."""
    g = build_layered(h, w)
    paths = enumerate_paths(g)
    incidence = route_costs(g, paths, np.eye(g.num_arcs))
    for choices, nodes, row in zip(paths, path_nodes(g, paths).tolist(), incidence):
        assert nodes[0] == g.source and nodes[-1] == g.sink
        assert [(n - 1) // w for n in nodes[1:-1]] == list(range(h))  # one node per layer
        assert [(n - 1) % w for n in nodes[1:-1]] == choices.tolist()
        expected = np.zeros(g.num_arcs)
        expected[[g.arcs.index(arc) for arc in zip(nodes, nodes[1:])]] = 1.0
        assert np.array_equal(row, expected)


def test_edgelist_format():
    g = build_layered(1, 2)
    text = to_edgelist(g)
    lines = text.strip().splitlines()
    assert lines[0] == "1 2"
    assert lines[1:] == ["0 1", "0 2", "1 3", "2 3"]
    assert len(lines) == 1 + g.num_arcs
