from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemerge import (
    Edge,
    LevelGraph,
    Node,
    PropertyValue,
    UnknownNodeError,
    direct_subtree,
    validate,
)
from scenemerge.graph import _full_report, _Patch
from scenemerge.sim import SizeParams, apply_script, generate
from conftest import D, I, g, tables


def codes(report):
    return [v.code for v in report.violations]


class TestValidate:
    def test_single_root_is_valid(self):
        report = validate(g("root", [("root", "Scene")]))
        assert report.ok
        assert str(report) == "valid"

    def test_two_cycle_reported_once_naming_both(self):
        graph = g(
            "root",
            [("root", "Scene"), ("a", "X"), ("b", "X")],
            [("root", "a", D), ("a", "b", D), ("b", "a", I)],
        )
        report = validate(graph)
        cycles = [v for v in report.violations if v.code == "cycle"]
        assert len(cycles) == 1
        assert set(cycles[0].subjects) == {"a", "b"}

    def test_orphan_reported_by_name(self):
        graph = g("root", [("root", "Scene"), ("c", "X")])
        report = validate(graph)
        assert codes(report) == ["unreachable"]
        assert report.violations[0].subjects == ("c",)

    def test_root_incoming_edge(self):
        graph = g(
            "root",
            [("root", "Scene"), ("a", "X")],
            [("root", "a", D), ("a", "root", I)],
        )
        assert "root-in-edge" in codes(validate(graph))

    def test_dangling_edge(self):
        graph = LevelGraph("root", [Node("root", "Scene")], [Edge("root", "ghost", D)])
        assert "dangling-edge" in codes(validate(graph))

    def test_a_missing_node_passes_no_reachability_on(self):
        # "ghost" is missing, so "c" below it is unreachable
        graph = g(
            "root",
            [("root", "Scene"), ("c", "X")],
            [("root", "ghost", D), ("ghost", "c", D)],
        )
        unreachable = [v.subjects for v in validate(graph).violations if v.code == "unreachable"]
        assert unreachable == [("c",)]

    def test_bad_node_reference(self):
        graph = g(
            "root",
            [("root", "Scene"), ("s", "Script", {"target": PropertyValue.node_ref("gone")})],
            [("root", "s", D)],
        )
        assert "bad-ref" in codes(validate(graph))

    def test_two_direct_parents(self):
        graph = g(
            "root",
            [("root", "Scene"), ("a", "X"), ("b", "X"), ("c", "X")],
            [("root", "a", D), ("root", "b", D), ("a", "c", D), ("b", "c", D)],
        )
        assert "multiple-direct-parents" in codes(validate(graph))

    def test_unmanifested_asset_reference(self):
        graph = g(
            "root",
            [("root", "Scene"), ("m", "Mesh", {"src": PropertyValue.asset_ref("x.obj")})],
            [("root", "m", D)],
        )
        assert "unmanifested-asset" in codes(validate(graph))

    def test_missing_root(self):
        graph = LevelGraph("nope", [Node("a", "X")])
        assert "missing-root" in codes(validate(graph))


class TestDirectSubtree:
    def test_leaf_is_itself(self, chain3):
        assert direct_subtree(chain3, "b") == {"b"}

    def test_indirect_child_excluded(self):
        graph = g(
            "root",
            [("root", "S"), ("n", "X"), ("d", "X"), ("i", "X")],
            [("root", "n", D), ("n", "d", D), ("n", "i", I), ("root", "i", D)],
        )
        assert direct_subtree(graph, "n") == {"n", "d"}

    def test_character_container_includes_components(self):
        from scenemerge import read_document

        from conftest import fixture_path

        graph = read_document(fixture_path("fig2.lvl")).graph
        assert direct_subtree(graph, "hero") == {
            "hero",
            "hero-transform",
            "hero-mesh",
            "hero-material",
        }

    def test_all_direct_graph_spans_everything(self, chain3):
        assert direct_subtree(chain3, "root") == set(chain3.node_ids())

    def test_walk_stops_at_a_missing_node(self):
        graph = g(
            "root",
            [("root", "S"), ("n", "X"), ("c", "X")],
            [("root", "n", D), ("n", "ghost", D), ("ghost", "c", D), ("root", "c", I)],
        )
        assert direct_subtree(graph, "n") == {"n"}

    def test_unknown_node(self, chain3):
        with pytest.raises(UnknownNodeError):
            direct_subtree(chain3, "ghost")


class TestModel:
    def test_canonical_equality_ignores_construction_order(self):
        nodes = [Node("root", "S"), Node("a", "X", {"k": PropertyValue.integer(1)})]
        edges = [Edge("root", "a", D)]
        left = LevelGraph("root", nodes, edges)
        right = LevelGraph("root", list(reversed(nodes)), edges)
        assert left == right

    def test_duplicate_node_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate node id"):
            LevelGraph("r", [Node("r", "S"), Node("r", "S")])

    def test_duplicate_edge_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            LevelGraph(
                "r",
                [Node("r", "S"), Node("a", "X")],
                [Edge("r", "a", D), Edge("r", "a", I)],
            )

    def test_bool_and_int_values_are_distinct(self):
        assert PropertyValue.boolean(True) != PropertyValue.integer(1)
        assert PropertyValue.integer(1) != PropertyValue.real(1.0)

    def test_negative_zero_normalized(self):
        assert PropertyValue.real(-0.0).value == 0.0
        assert repr(PropertyValue.real(-0.0).value) == "0.0"

    def test_non_finite_reals_rejected(self):
        with pytest.raises(ValueError):
            PropertyValue.real(float("nan"))
        with pytest.raises(ValueError):
            PropertyValue.real(float("inf"))


# -- the one-pass accept path against the full checker ------------------------


def _mutants(graph: LevelGraph, rng: random.Random):
    """(violation, graph) for each way of breaking a valid level."""
    root, nodes, assets = graph.root, list(graph.nodes()), graph.assets
    edges = {(e.parent, e.child): e.kind for e in graph.edges()}

    def build(nodes=nodes, edges=edges):
        return LevelGraph(root, nodes, [Edge(p, c, k) for (p, c), k in edges.items()], assets)

    def with_property(value):
        holder = rng.choice(nodes)
        changed = Node(holder.id, holder.kind, {**holder.properties, "zz": value})
        return build(nodes=[changed if n is holder else n for n in nodes])

    others = sorted(n.id for n in nodes if n.id != root)
    parent, child = rng.choice(sorted(pair for pair in edges if pair[0] != root))
    yield "cycle", build(edges={**edges, (child, parent): I})
    child = rng.choice([c for c in others if len(graph.parents(c)) == 1])
    yield "unreachable", build(edges={k: v for k, v in edges.items() if k[1] != child})
    child = rng.choice([c for c in others if graph.direct_parent(c) is not None])
    second = rng.choice([n for n in others if n != child and (n, child) not in edges])
    yield "multiple-direct-parents", build(edges={**edges, (second, child): D})
    yield "dangling-edge", build(edges={**edges, (rng.choice(others), "ghost"): I})
    yield "bad-ref", with_property(PropertyValue.node_ref("ghost"))
    yield "unmanifested-asset", with_property(PropertyValue.asset_ref("ghost.png"))
    yield "root-in-edge", build(edges={**edges, (rng.choice(others), root): I})
    yield "missing-root", build(nodes=[n for n in nodes if n.id != root])


@pytest.mark.parametrize("seed", range(1, 7))
def test_validate_reports_what_the_full_checker_reports(seed):
    scenario = generate(seed, SizeParams(nodes=120, edges=150, ops_per_branch=8))
    levels = [
        scenario.base,
        apply_script(scenario.base, scenario.script_a),
        apply_script(scenario.base, scenario.script_b),
    ]
    rng = random.Random(seed)
    for level in levels:
        assert validate(level).ok and _full_report(level).ok
        for code, broken in _mutants(level, rng):
            report = validate(broken)
            assert report == _full_report(broken)
            assert code in [v.code for v in report.violations]


_small_ids = st.sampled_from(["r", "a", "b", "c", "d"])


@st.composite
def _small_graphs(draw):
    ids = draw(st.lists(_small_ids, min_size=1, unique=True))
    pairs = draw(st.lists(st.tuples(_small_ids, _small_ids), unique=True, max_size=8))
    edges = [Edge(p, c, draw(st.sampled_from([D, I]))) for p, c in pairs]
    targets = draw(st.lists(_small_ids, max_size=2))
    refs = {f"k{i}": PropertyValue.node_ref(t) for i, t in enumerate(targets)}
    props = {**refs, "tex": PropertyValue.asset_ref(draw(st.sampled_from(["x.png", "y.png"])))}
    nodes = [Node(i, "X", props if i == ids[-1] else {}) for i in ids]
    return LevelGraph(draw(_small_ids), nodes, edges, {"x.png": "0"})


@settings(max_examples=600, deadline=None)
@given(_small_graphs())
def test_validate_matches_the_full_checker_on_small_graphs(graph):
    assert validate(graph) == _full_report(graph)


def test_a_listing_is_a_copy_that_leaves_both_graphs_as_they_were():
    base = g("r", [("r", "S"), ("a", "X"), ("b", "X")], [("r", "a", D), ("r", "b", I)])
    patch = _Patch(base)
    patch.set_node(Node("b", "Y"))  # the patched graph shares the base's adjacency lists
    mine = patch.to_graph()
    before = [(tables(graph), validate(graph)) for graph in (base, mine)]
    for graph in (base, mine):
        graph.children("r").append(("ghost", D))
        graph.parents("a").append(("ghost", D))
        graph.node_ids().append("ghost")
        graph.edges().append(Edge("ghost", "a", D))
    assert [(tables(graph), validate(graph)) for graph in (base, mine)] == before
    assert before[0][1].ok and before[1][1].ok


def test_a_no_op_patch_builds_its_graph_without_copying_a_table():
    ids = [f"n{i:05d}" for i in range(10_000)]
    base = LevelGraph._of(
        ids[0], {i: Node(i, "X") for i in ids},
        {(ids[(k - 1) // 2], ids[k]): D for k in range(1, len(ids))}, {"m.png": "0"},
    )
    patch = _Patch(base)
    tracemalloc.start()
    try:
        patched = patch.to_graph()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert patched == base
    assert peak < 16 * 1024
