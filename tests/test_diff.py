from __future__ import annotations

import random

import pytest

from scenemerge import (
    ChangeClass,
    DepKind,
    GraphMismatchError,
    InvalidGraphError,
    PropertyValue,
    classify,
    diff_stats,
    read_document,
)
from scenemerge.sim import PRESETS, SizeParams, apply_script, generate
from conftest import D, I, fixture_path, g, real

U, A, DEL, M = (
    ChangeClass.UNCHANGED,
    ChangeClass.ADDED,
    ChangeClass.DELETED,
    ChangeClass.MODIFIED,
)


class TestClassify:
    def test_identity_diff(self, chain3):
        diff = classify(chain3, chain3)
        assert set(diff.classes.values()) == {U}
        assert not diff.deltas
        assert not diff.added_edges and not diff.removed_edges

    def test_property_edit_propagates_down_direct_chain(self, chain3):
        edited = g(
            "root",
            [("root", "Scene"), ("a", "GameObject", {"k": real(1.0)}), ("b", "Transform")],
            [("root", "a", D), ("a", "b", D)],
        )
        diff = classify(chain3, edited)
        assert diff.classes["root"] is U
        assert diff.classes["a"] is M and diff.deltas["a"].intrinsic
        assert diff.classes["b"] is M and not diff.deltas["b"].intrinsic

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
                                if diff.classes.get(child) is not ChangeClass.ADDED:
                                    marked.add(child)
                                    changed = True
            expected_modified = {
                n for n, c in diff.classes.items() if c is M
            }
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
        assert diff.classes["bunny"] is M
        assert diff.deltas["bunny"].intrinsic
        assert diff.deltas["bunny"].reparented
        assert diff.deltas["bunny"].new_direct_parent == "dollhouse"
        assert diff.classes["drawers"] is DEL
        assert diff.classes["dollhouse"] is A
        # the move mirrors onto bunny's components
        assert diff.classes["bunny-transform"] is M
        assert not diff.deltas["bunny-transform"].intrinsic

    def test_cascade_fallout_is_not_a_modification(self):
        # deleting drawers severs its reference to the lamp; the lamp was
        # not edited
        base = read_document(fixture_path("fig3-base.lvl")).graph
        theirs = read_document(fixture_path("fig3-theirs.lvl")).graph
        diff = classify(base, theirs)
        assert diff.classes["lamp"] is U

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
            all_ids = set(scenario.base.node_ids()) | set(version.node_ids())
            assert set(diff.classes) == all_ids
            assert diff.added == set(version.node_ids()) - set(scenario.base.node_ids())
            assert diff.deleted == set(scenario.base.node_ids()) - set(version.node_ids())

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

    def test_synthetic_diff_built_to_545_edits(self):
        scenario = generate(99, PRESETS["planets"])
        version = apply_script(scenario.base, scenario.script_a)
        stats = diff_stats(classify(scenario.base, version))
        assert stats.total_edited == 545
