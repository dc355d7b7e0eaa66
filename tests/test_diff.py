from __future__ import annotations

import random
import tracemalloc

import pytest

from scenemerge import (
    FORMAT_VERSION,
    ChangeClass,
    DepKind,
    Edge,
    GraphMismatchError,
    InvalidGraphError,
    LevelDocument,
    LevelGraph,
    PropertyValue,
    classify,
    diff_stats,
    parse,
    read_document,
    serialize,
)
from scenemerge.levelfile import format_value
from scenemerge.merge import _describe_edit
from scenemerge.sim import PRESETS, SizeParams, apply_script, generate
from conftest import D, I, fixture_path, g, real

U, A, DEL, M = (
    ChangeClass.UNCHANGED,
    ChangeClass.ADDED,
    ChangeClass.DELETED,
    ChangeClass.MODIFIED,
)


def _reparsed(graph):
    """The graph through a file round trip: equal nodes, none shared."""
    return parse(serialize(LevelDocument(FORMAT_VERSION, graph))).graph


def _classes(diff) -> dict[str, ChangeClass]:
    """Each node's class as `nodes_in_class` lists it; the four sorted lists
    must partition ancestor-union-version."""
    classes: dict[str, ChangeClass] = {}
    for cls in ChangeClass:
        listed = diff.nodes_in_class(cls)
        assert listed == sorted(listed), cls
        for node_id in listed:
            assert classes.setdefault(node_id, cls) is cls, node_id
    assert classes.keys() == set(diff.ancestor.node_ids()) | set(diff.version.node_ids())
    return classes


def _detailed_intrinsics(ancestor, version) -> dict[str, list[str]]:
    """What `merge._describe_edit` should read for every intrinsically
    modified survivor, each node compared in full through the public graph
    API with no unchanged-node shortcut."""
    edits = {}
    for node_id in ancestor.node_ids():
        if not version.has_node(node_id):
            continue
        old, new = ancestor.node(node_id).properties, version.node(node_id).properties
        fragments = [
            f"set {k} = {format_value(v)}" for k, v in sorted(new.items()) if old.get(k) != v
        ]
        fragments += [f"remove property {k}" for k in sorted(old) if k not in new]
        old_parent, new_parent = ancestor.direct_parent(node_id), version.direct_parent(node_id)
        if old_parent != new_parent:
            fragments.append(f"reparent under {new_parent or 'nothing'}")
        old_in, new_in = dict(ancestor.parents(node_id)), dict(version.parents(node_id))
        fragments += [
            f"dependency on {p} becomes {k.value}"
            for p, k in sorted(new_in.items())
            if p in old_in and old_in[p] is not k
        ]
        in_edge_change = any(p not in old_in for p in new_in) or any(
            p not in new_in and version.has_node(p) for p in old_in
        )
        if fragments or in_edge_change:
            edits[node_id] = fragments or ["edited"]
    return edits


class TestClassify:
    def test_identity_diff(self, chain3):
        diff = classify(chain3, chain3)
        assert set(_classes(diff).values()) == {U}
        assert diff.nodes_in_class(U) == chain3.node_ids()
        assert not diff.intrinsic and not diff.modified

    def test_property_edit_propagates_down_direct_chain(self, chain3):
        edited = g(
            "root",
            [("root", "Scene"), ("a", "GameObject", {"k": real(1.0)}), ("b", "Transform")],
            [("root", "a", D), ("a", "b", D)],
        )
        diff = classify(chain3, edited)
        classes = _classes(diff)
        assert classes["root"] is U
        assert classes["a"] is M and "a" in diff.intrinsic
        assert classes["b"] is M and "b" not in diff.intrinsic

    def test_propagation_matches_brute_force_closure(self):
        rng = random.Random(23)
        for seed in range(25):
            scenario = generate(
                seed + 1000, SizeParams(nodes=14, edges=17, ops_per_branch=4)
            )
            version = apply_script(scenario.base, scenario.script_a)
            diff = classify(scenario.base, version)
            intrinsic = diff.intrinsic
            # brute force: repeatedly mark direct children of marked nodes
            marked = set(intrinsic)
            changed = True
            while changed:
                changed = False
                for node_id in list(marked):
                    for child, kind in version.children(node_id):
                        if kind is DepKind.DIRECT and child not in marked:
                            if version.has_node(child) and scenario.base.has_node(child):
                                if child not in diff.added:
                                    marked.add(child)
                                    changed = True
            expected_modified = {n for n, c in _classes(diff).items() if c is M}
            computed = {
                n
                for n in marked
                if scenario.base.has_node(n) and version.has_node(n)
            }
            assert computed == expected_modified

    def test_fig3_user_b_classification(self):
        base = read_document(fixture_path("fig3-base.lvl")).graph
        theirs = read_document(fixture_path("fig3-theirs.lvl")).graph
        diff = classify(base, theirs)
        classes = _classes(diff)
        assert classes["bunny"] is M
        assert "bunny" in diff.intrinsic
        assert _describe_edit(diff, "bunny") == ["reparent under dollhouse"]
        assert classes["drawers"] is DEL
        assert classes["dollhouse"] is A
        # the move mirrors onto bunny's components
        assert classes["bunny-transform"] is M
        assert "bunny-transform" not in diff.intrinsic

    def test_cascade_fallout_is_not_a_modification(self):
        # deleting drawers severs its reference to the lamp; the lamp was
        # not edited
        base = read_document(fixture_path("fig3-base.lvl")).graph
        theirs = read_document(fixture_path("fig3-theirs.lvl")).graph
        diff = classify(base, theirs)
        assert _classes(diff)["lamp"] is U

    def test_root_mismatch_rejected(self, chain3):
        other = g("other", [("other", "Scene")])
        with pytest.raises(GraphMismatchError):
            classify(chain3, other)

    def test_kind_change_rejected(self, chain3):
        mutated = g(
            "root",
            [("root", "Scene"), ("a", "Renamed"), ("b", "Transform")],
            [("root", "a", D), ("a", "b", D)],
        )
        with pytest.raises(GraphMismatchError, match="kind"):
            classify(chain3, mutated)

    def test_invalid_input_rejected(self, chain3):
        cyclic = g(
            "root",
            [("root", "Scene"), ("a", "GameObject"), ("b", "Transform")],
            [("root", "a", D), ("a", "b", D), ("b", "a", I)],
        )
        with pytest.raises(InvalidGraphError):
            classify(chain3, cyclic)

    def test_partition_and_set_sizes(self):
        rng = random.Random(5)
        for seed in range(20):
            scenario = generate(seed, SizeParams(nodes=12, edges=15, ops_per_branch=5))
            version = apply_script(scenario.base, scenario.script_a)
            diff = classify(scenario.base, version)
            _classes(diff)
            assert diff.added == set(version.node_ids()) - set(scenario.base.node_ids())
            assert diff.deleted == set(scenario.base.node_ids()) - set(version.node_ids())

    def test_unchanged_shortcut_matches_full_comparison(self):
        # versions from apply_script share the base's unchanged node
        # objects; reparsed versions share none, so the shortcut compares
        # by value; a version parsed against the parsed ancestor is read
        # through the patch it records
        equal_node_edits = 0
        for seed in range(40):
            scenario = generate(seed + 300, SizeParams(nodes=30, edges=40, ops_per_branch=8))
            base = scenario.base
            parsed_base = parse(serialize(LevelDocument(FORMAT_VERSION, base)))
            for script in (scenario.script_a, scenario.script_b):
                version = apply_script(base, script)
                patched = parse(serialize(LevelDocument(FORMAT_VERSION, version)), base=parsed_base)
                assert patched.graph._patch[0]() is parsed_base.graph
                for ancestor, edited in (
                    (base, version),
                    (_reparsed(base), _reparsed(version)),
                    (parsed_base.graph, patched.graph),
                ):
                    diff = classify(ancestor, edited)
                    expected = _detailed_intrinsics(ancestor, edited)
                    assert diff.intrinsic - diff.added == set(expected), seed
                    assert {n: _describe_edit(diff, n) for n in expected} == expected, seed
                    a_ids, v_ids = set(ancestor.node_ids()), set(edited.node_ids())
                    classes = _classes(diff)
                    assert diff.nodes_in_class(A) == sorted(v_ids - a_ids)
                    assert diff.nodes_in_class(DEL) == sorted(a_ids - v_ids)
                    assert {n for n, c in classes.items() if c is M} >= set(expected)
                    equal_node_edits += sum(
                        ancestor.node(n) == edited.node(n) for n in expected
                    )
        # the scenarios edit in-edges of nodes whose content is unchanged
        assert equal_node_edits > 20, equal_node_edits

    def test_in_edge_edits_of_an_unchanged_node_are_intrinsic(self):
        base = g(
            "root",
            [("root", "Scene"), ("a", "GameObject"), ("b", "Prop"), ("c", "Light")],
            [("root", "a", D), ("root", "b", D), ("a", "c", D), ("b", "c", I)],
        )
        nodes = list(base.nodes())
        # the same node objects throughout; only c's in-edges differ
        tree = [Edge("root", "a", D), Edge("root", "b", D)]
        flipped = LevelGraph("root", nodes, [*tree, Edge("a", "c", I), Edge("b", "c", D)])
        dropped = LevelGraph("root", nodes, [*tree, Edge("a", "c", D)])
        diff = classify(base, flipped)
        assert diff.intrinsic == {"c"}
        assert _describe_edit(diff, "c") == [
            "reparent under b",
            "dependency on a becomes indirect",
            "dependency on b becomes direct",
        ]
        diff = classify(base, dropped)
        assert diff.intrinsic == {"c"} and _describe_edit(diff, "c") == ["edited"]

    def test_round_trip_reports_exactly_touched_intrinsics(self):
        # scripts built to avoid cancellation and cascade fallout
        from scenemerge.sim import AddIndirectEdge, Reparent, SetProperty

        base = g(
            "root",
            [
                ("root", "Scene"),
                ("a", "GameObject", {"x": real(1.0)}),
                ("b", "Prop"),
                ("c", "Light", {"on": PropertyValue.boolean(True)}),
            ],
            [("root", "a", D), ("a", "b", D), ("root", "c", D)],
        )
        script = (
            SetProperty("c", "intensity", real(3.5)),
            Reparent("b", "root"),
            AddIndirectEdge("a", "c"),
        )
        version = apply_script(base, script)
        diff = classify(base, version)
        assert diff.intrinsic == {"c", "b"} | {"c"}  # edge add anchors at child c
        assert diff.added == set() and diff.deleted == set()


def _classify_peak(nodes: int) -> int:
    """The `tracemalloc` peak of classifying one 400-edit branch, read
    against its canonically read ancestor, on a level of ``nodes`` nodes."""
    scenario = generate(7, SizeParams(nodes=nodes, edges=nodes * 9 // 8, edits_a=400))
    version = apply_script(scenario.base, scenario.script_a)
    read = parse(serialize(LevelDocument(FORMAT_VERSION, scenario.base)))
    ancestor = read.graph
    branch = parse(serialize(LevelDocument(FORMAT_VERSION, version)), base=read).graph
    assert branch._patch[0]() is ancestor
    tracemalloc.start()
    try:
        diff = classify(ancestor, branch, validated=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diff_stats(diff).total_edited >= 400
    return peak


def test_classify_allocates_with_the_diff_not_the_level():
    # the same edit count at 10k and 40k nodes: no table keyed by every
    # ancestor id, so the peak does not grow with the level
    small, large = _classify_peak(10_000), _classify_peak(40_000)
    assert large <= 1.25 * small, (small, large)


class TestDiffStats:
    def test_identity_all_zero(self, chain3):
        stats = diff_stats(classify(chain3, chain3))
        assert (stats.added, stats.deleted, stats.modified_intrinsic,
                stats.modified_propagated, stats.total_edited) == (0, 0, 0, 0, 0)

    def test_fig3_user_b_tally(self):
        # hand tally: +dollhouse +chimney +chimney-smoke; -drawers
        # -drawers-mesh -drawers-transform; bunny reparented; the move
        # mirrors onto bunny's three components
        base = read_document(fixture_path("fig3-base.lvl")).graph
        theirs = read_document(fixture_path("fig3-theirs.lvl")).graph
        stats = diff_stats(classify(base, theirs))
        assert stats.added == 3
        assert stats.deleted == 3
        assert stats.modified_intrinsic == 1
        assert stats.modified_propagated == 3
        assert stats.total_edited == 10

    def test_counts_match_a_pass_over_the_classes(self):
        for seed in range(30):
            scenario = generate(seed + 700, SizeParams(nodes=25, edges=32, ops_per_branch=10))
            version = apply_script(scenario.base, scenario.script_b)
            diff = classify(scenario.base, version)
            classes = list(_classes(diff).items())
            propagated = sum(c is M and n not in diff.intrinsic for n, c in classes)
            expected = (
                sum(c is A for _, c in classes),
                sum(c is DEL for _, c in classes),
                sum(c is M and n in diff.intrinsic for n, c in classes),
                propagated,
            )
            stats = diff_stats(diff)
            assert (stats.added, stats.deleted, stats.modified_intrinsic,
                    stats.modified_propagated) == expected, seed

    def test_synthetic_diff_built_to_545_edits(self):
        scenario = generate(99, PRESETS["planets"])
        version = apply_script(scenario.base, scenario.script_a)
        stats = diff_stats(classify(scenario.base, version))
        assert stats.total_edited == 545
