"""The patch a graph records covers its real difference from its base.

`parse(text, base=)` and `merge3` build their graphs by patching a base,
and the graph records the node ids and (parent, child) pairs the patch
may have changed; `validate(base=)` and `classify` read only those. Here
every id whose presence or `Node` object really differs from the base,
and every pair whose presence or kind does, is found by brute force and
must be in the record, and the patched tables must hold what a whole
build of the same graph holds, in any order. Both build through `graph._Patch`, which
is also driven here by random edits of a small level. A graph whose
record names no base or another base is compared with its base whole
once: the result replaces its record.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenemerge import DepKind, LevelGraph, MergePolicy, Node, PolicyKind, merge3, parse
from scenemerge import diff as diff_module
from scenemerge import graph as graph_module
from scenemerge import merge as merge_module
from scenemerge.levelfile import FORMAT_VERSION, LevelDocument, serialize
from scenemerge.sim import SizeParams, apply_script, generate
from conftest import D, I, repairing_merges, tables

SIZE = SizeParams(nodes=40, edges=48, ops_per_branch=6)


def _text(graph: LevelGraph) -> str:
    return serialize(LevelDocument(FORMAT_VERSION, graph))


def assert_record_covers(graph: LevelGraph, base: LevelGraph) -> None:
    base_ref, ids, pairs = graph._patch
    assert base_ref() is base
    for table, base_table, recorded in (
        (graph._nodes, base._nodes, ids),
        (graph._edges, base._edges, pairs),
    ):
        keys = table.keys() | base_table.keys()
        assert {key for key in keys if table.get(key) is not base_table.get(key)} <= recorded
    assert tables(graph) == tables(LevelGraph(graph.root, graph.nodes(), graph.edges(), graph.assets))


_IDS = ("a", "b", "c", "d", "e")
_PAIRS = st.tuples(st.sampled_from(_IDS), st.sampled_from(_IDS)).filter(lambda p: p[0] != p[1])
_KINDS = st.sampled_from(list(DepKind))
_EDITS = st.one_of(
    st.tuples(st.just("set_node"), st.sampled_from(_IDS), st.sampled_from(("X", "Y"))),
    st.tuples(st.just("remove_node"), st.sampled_from(_IDS)),
    st.tuples(st.just("set_edge"), _PAIRS, _KINDS),
    st.tuples(st.just("remove_edge"), _PAIRS),
    st.tuples(st.just("set_asset"), st.sampled_from(("m.png", "n.png")), st.sampled_from(("0", "1"))),
)


def _tables(graph: LevelGraph):
    return (
        list(graph._nodes.items()), list(graph._edges.items()),
        {k: list(v) for k, v in graph._out.items()}, {k: list(v) for k, v in graph._in.items()},
    )


@settings(max_examples=300, deadline=None)
@given(
    st.sets(st.sampled_from(_IDS), min_size=1),
    st.dictionaries(_PAIRS, _KINDS, max_size=8),
    st.lists(_EDITS, max_size=14),
)
# a node removed with its edges and added back, and an edge's kind flipped
@example({"a", "b", "c"}, {("a", "b"): D, ("b", "c"): I, ("a", "c"): D}, [
    ("remove_node", "b"), ("set_node", "b", "Y"), ("set_edge", ("a", "c"), I),
    ("set_edge", ("a", "b"), D), ("remove_edge", ("a", "c")), ("set_edge", ("a", "c"), D),
])
def test_any_patch_builds_the_graph_its_record_covers(ids, edges, edits):
    base = LevelGraph._of(min(ids), {i: Node(i, "X") for i in ids}, edges, {"m.png": "0"})
    before = _tables(base)
    patch = graph_module._Patch(base)
    for name, key, *value in edits:
        if name == "set_node":
            patch.set_node(Node(key, *value))
        elif name == "remove_node":
            patch.remove_node(key)
        elif name == "set_edge":
            patch.set_edge(*key, *value)
        elif name == "remove_edge":
            patch.remove_edge(*key)
        else:
            patch.assets[key] = value[0]
    assert_record_covers(patch.to_graph(), base)
    assert _tables(base) == before


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10_000))
def test_a_branch_read_against_the_ancestor_records_its_differences(seed):
    sc = generate(seed, SIZE)
    ancestor = parse(_text(sc.base))
    for script in (sc.script_a, sc.script_b):
        version = parse(_text(apply_script(sc.base, script)), base=ancestor)
        assert_record_covers(version.graph, ancestor.graph)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10_000), st.sampled_from(list(PolicyKind)))
def test_a_merged_level_records_its_differences_from_the_ancestor(seed, policy):
    sc = generate(seed, SIZE)
    ancestor = parse(_text(sc.base))
    mine, theirs = (
        parse(_text(apply_script(sc.base, script)), base=ancestor).graph
        for script in (sc.script_a, sc.script_b)
    )
    outcome = merge3(ancestor.graph, mine, theirs, MergePolicy(policy))
    assert_record_covers(outcome.merged, ancestor.graph)


@pytest.mark.parametrize("policy", list(PolicyKind))
@pytest.mark.parametrize("case", ["cycle", "orphan", "manifest"])
def test_a_repaired_merge_records_its_differences_from_the_ancestor(case, policy, monkeypatch):
    reconnected = []
    reconnect = merge_module._reconnect_orphans

    def counting_reconnect(state):
        before = len(state.edges)
        reconnect(state)
        reconnected.append(len(state.edges) - before)

    monkeypatch.setattr(merge_module, "_reconnect_orphans", counting_reconnect)
    ancestor, mine, theirs = repairing_merges()[case]
    outcome = merge3(ancestor, mine, theirs, MergePolicy(policy))
    assert_record_covers(outcome.merged, ancestor)
    if case == "cycle":
        assert outcome.removed_cycle_edges
    elif case == "orphan" and policy is PolicyKind.PREFER_A:
        assert reconnected[0]
    elif case == "manifest":
        assert outcome.merged.assets.keys() - mine.assets.keys() == {"x.obj"}


def _whole_comparisons(monkeypatch) -> list[LevelGraph]:
    """The graphs `_differences` will compare with their base whole, one entry a comparison."""
    compared = []
    differences = graph_module._differences

    def counting_differences(graph, base):
        patch = graph._patch
        if patch is None or patch[0]() is not base:
            compared.append(graph)
        return differences(graph, base)

    # validate(base=), classify and the modification phase each read the
    # differences of both branches
    for module in (graph_module, diff_module, merge_module):
        monkeypatch.setattr(module, "_differences", counting_differences)
    return compared


@pytest.mark.parametrize("seed", [3, 17])
def test_a_merge_compares_each_branch_with_no_record_whole_once(seed, monkeypatch):
    compared = _whole_comparisons(monkeypatch)
    sc = generate(seed, SIZE)
    mine, theirs = (apply_script(sc.base, script) for script in (sc.script_a, sc.script_b))
    assert mine._patch is None and theirs._patch is None
    merge3(sc.base, mine, theirs)
    assert sorted(map(id, compared)) == sorted([id(mine), id(theirs)])
    for branch in (mine, theirs):
        assert_record_covers(branch, sc.base)


@pytest.mark.parametrize("seed", [3, 17])
def test_a_merge_against_a_reparsed_ancestor_compares_each_branch_whole_once(seed, monkeypatch):
    compared = _whole_comparisons(monkeypatch)
    sc = generate(seed, SIZE)
    read = parse(_text(sc.base))
    mine, theirs = (
        parse(_text(apply_script(sc.base, script)), base=read).graph
        for script in (sc.script_a, sc.script_b)
    )
    assert mine._patch[0]() is theirs._patch[0]() is read.graph
    ancestor = parse(_text(sc.base)).graph  # equal to the read, but not the graph recorded
    merge3(ancestor, mine, theirs)
    # the first comparison of each branch replaces its record, which answers the rest
    assert sorted(map(id, compared)) == sorted([id(mine), id(theirs)])
    for branch in (mine, theirs):
        assert_record_covers(branch, ancestor)
