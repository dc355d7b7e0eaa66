from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import scenemerge
from scenemerge import (
    AddAddConflict,
    Branch,
    DeleteModifyConflict,
    DepKind,
    LevelGraph,
    MergePolicy,
    PolicyKind,
    PropertyConflict,
    PropertyValue,
    ReparentConflict,
    Resolution,
    canonical_bytes,
    classify,
    merge3,
    read_document,
    validate,
)
from scenemerge import merge as merge_module
from scenemerge.graph import _closure
from scenemerge.merge import MergeOutcome, _State, _apply_additions, _repair_cycles_state
from scenemerge.sim import SizeParams, apply_script, generate
from conftest import D, I, fixture_path, g, real, text

MANUAL = MergePolicy(PolicyKind.MANUAL)
PREFER_A = MergePolicy(PolicyKind.PREFER_A)
PREFER_B = MergePolicy(PolicyKind.PREFER_B)


def load(name):
    return read_document(fixture_path(name)).graph


class TestMerge3Fixtures:
    def test_triple_identity(self, chain3):
        out = merge3(chain3, chain3, chain3, MANUAL)
        assert out.merged == chain3
        assert not out.conflicts and not out.dropped

    def test_fig3_conflict_free_merge(self):
        base, mine, theirs = load("fig3-base.lvl"), load("fig3-mine.lvl"), load("fig3-theirs.lvl")
        out = merge3(base, mine, theirs, MANUAL)
        assert out.conflicts == [] and out.dropped == []
        assert canonical_bytes(out.merged) == canonical_bytes(load("fig3-merged.lvl"))
        merged = out.merged
        assert merged.has_node("painting") and merged.has_node("blinds")
        assert merged.has_node("dollhouse") and merged.has_node("chimney-smoke")
        assert merged.direct_parent("bunny") == "dollhouse"
        assert not merged.has_node("drawers")
        assert out.stats.wall_time_s < 0.1

    def test_fig4_manual_detects_one_delete_modify(self):
        base, mine, theirs = load("fig4-base.lvl"), load("fig4-mine.lvl"), load("fig4-theirs.lvl")
        out = merge3(base, mine, theirs, MANUAL)
        assert len(out.conflicts) == 1
        conflict = out.conflicts[0]
        assert isinstance(conflict, DeleteModifyConflict)
        assert conflict.deleting_branch is Branch.A
        assert conflict.deleted_node == "planet-front"
        assert "planet-front-material" in conflict.touched
        assert conflict.resolution is Resolution.UNRESOLVED
        # conflicting items held at ancestor state: a loadable level
        assert validate(out.merged).ok
        assert canonical_bytes(out.merged) == canonical_bytes(base)

    def test_fig4_prefer_a_deletes_subtree(self):
        base, mine, theirs = load("fig4-base.lvl"), load("fig4-mine.lvl"), load("fig4-theirs.lvl")
        out = merge3(base, mine, theirs, PREFER_A)
        assert canonical_bytes(out.merged) == canonical_bytes(load("fig4-merged-prefer-a.lvl"))
        assert out.conflicts[0].resolution is Resolution.TOOK_A
        assert len(out.dropped) == 1
        assert out.dropped[0].branch is Branch.B
        assert "color" in out.dropped[0].description

    def test_fig4_prefer_b_keeps_planet_with_edit(self):
        base, mine, theirs = load("fig4-base.lvl"), load("fig4-mine.lvl"), load("fig4-theirs.lvl")
        out = merge3(base, mine, theirs, PREFER_B)
        assert canonical_bytes(out.merged) == canonical_bytes(load("fig4-merged-prefer-b.lvl"))
        assert out.merged.node("planet-front-material").properties["color"] == text("crimson")
        assert len(out.dropped) == 1
        assert out.dropped[0].branch is Branch.A

    def test_branch_symmetry_on_fig4(self):
        base, mine, theirs = load("fig4-base.lvl"), load("fig4-mine.lvl"), load("fig4-theirs.lvl")
        forward = merge3(base, mine, theirs, PREFER_A)
        backward = merge3(base, theirs, mine, PREFER_B)
        assert canonical_bytes(forward.merged) == canonical_bytes(backward.merged)

    def test_insertion_order_of_inputs_never_changes_the_bytes(self):
        def permuted(graph):
            return LevelGraph(
                graph.root,
                sorted(graph.nodes(), key=lambda n: n.id, reverse=True),
                sorted(graph.edges(), key=lambda e: (e.parent, e.child), reverse=True),
                graph.assets,
            )

        base, mine, theirs = load("fig3-base.lvl"), load("fig3-mine.lvl"), load("fig3-theirs.lvl")
        straight = merge3(base, mine, theirs, MANUAL)
        shuffled = merge3(permuted(base), permuted(mine), permuted(theirs), MANUAL)
        assert canonical_bytes(straight.merged) == canonical_bytes(shuffled.merged)


class TestAdditions:
    def base(self):
        return g("r", [("r", "Scene"), ("p", "GameObject")], [("r", "p", D)])

    def test_single_add_under_existing_parent(self):
        base = self.base()
        mine = g(
            "r",
            [("r", "Scene"), ("p", "GameObject"), ("n", "Light")],
            [("r", "p", D), ("p", "n", D)],
        )
        out = merge3(base, mine, base, MANUAL)
        assert not out.conflicts
        assert out.merged.edge_kind("p", "n") is DepKind.DIRECT

    def test_missing_recorded_parent_falls_back_to_root(self):
        # merge3 adds before it deletes, so a recorded parent is always
        # present there; the guard is driven on a hand-built working graph
        base = self.base()
        mine = g(
            "r",
            [("r", "Scene"), ("p", "GameObject"), ("n", "Light")],
            [("r", "p", D), ("p", "n", D)],
        )
        # a working graph in which the recorded parent vanished
        state = _State(classify(base, mine), classify(base, base), MANUAL)
        state.remove_node("p")
        _apply_additions(state)
        assert not state.conflicts
        assert state.to_graph().edge_kind("r", "n") is DepKind.DIRECT

    def test_identical_double_add_dedupes(self):
        base = self.base()
        version = g(
            "r",
            [("r", "Scene"), ("p", "GameObject"), ("n", "Light", {"w": real(1.0)})],
            [("r", "p", D), ("p", "n", D)],
        )
        out = merge3(base, version, version, MANUAL)
        assert not out.conflicts
        assert out.merged.node("n").properties == {"w": real(1.0)}

    def test_same_key_disagreement_is_per_key_conflict(self):
        base = self.base()
        mine = g(
            "r",
            [("r", "Scene"), ("p", "GameObject"),
             ("n", "Light", {"color": text("red"), "only-a": real(1.0)})],
            [("r", "p", D), ("p", "n", D)],
        )
        theirs = g(
            "r",
            [("r", "Scene"), ("p", "GameObject"),
             ("n", "Light", {"color": text("blue"), "only-b": real(2.0)})],
            [("r", "p", D), ("p", "n", D)],
        )
        out = merge3(base, mine, theirs, MANUAL)
        assert [type(c) for c in out.conflicts] == [AddAddConflict]
        assert (out.conflicts[0].node, out.conflicts[0].key) == ("n", "color")
        # non-overlapping keys union; the conflicted key stays out unresolved
        assert out.merged.node("n").properties == {"only-a": real(1.0), "only-b": real(2.0)}

    def test_double_add_with_different_parents_conflicts(self):
        base = g("r", [("r", "Scene"), ("p", "GameObject"), ("q", "GameObject")],
                 [("r", "p", D), ("r", "q", D)])
        mine = g("r", [("r", "Scene"), ("p", "GameObject"), ("q", "GameObject"), ("n", "Light")],
                 [("r", "p", D), ("r", "q", D), ("p", "n", D)])
        theirs = g("r", [("r", "Scene"), ("p", "GameObject"), ("q", "GameObject"), ("n", "Light")],
                   [("r", "p", D), ("r", "q", D), ("q", "n", D)])
        out = merge3(base, mine, theirs, MANUAL)
        assert [type(c) for c in out.conflicts] == [ReparentConflict]
        assert {out.conflicts[0].parent_a, out.conflicts[0].parent_b} == {"p", "q"}


class TestDeletions:
    def fig3(self):
        return load("fig3-base.lvl"), load("fig3-mine.lvl"), load("fig3-theirs.lvl")

    def test_clean_leaf_delete(self):
        base = g("r", [("r", "Scene"), ("x", "Prop")], [("r", "x", D)])
        mine = g("r", [("r", "Scene")])
        out = merge3(base, mine, base, MANUAL)
        assert not out.conflicts
        assert not out.merged.has_node("x")

    def test_fig3_drawers_cascade(self):
        out = merge3(*self.fig3(), MANUAL)
        assert not out.conflicts
        for node_id in ("drawers", "drawers-mesh", "drawers-transform"):
            assert not out.merged.has_node(node_id)
        assert out.merged.has_node("lamp")  # referenced indirectly, still rooted

    def test_delete_vs_modified_direct_child_conflicts(self):
        base = g(
            "r",
            [("r", "Scene"), ("c", "GameObject"), ("t", "Transform")],
            [("r", "c", D), ("c", "t", D)],
        )
        mine = g("r", [("r", "Scene")])  # A deletes the container
        theirs = g(
            "r",
            [("r", "Scene"), ("c", "GameObject"), ("t", "Transform", {"x": real(9.0)})],
            [("r", "c", D), ("c", "t", D)],
        )
        out = merge3(base, mine, theirs, MANUAL)
        assert len(out.conflicts) == 1
        conflict = out.conflicts[0]
        assert isinstance(conflict, DeleteModifyConflict)
        assert conflict.deleting_branch is Branch.A
        assert conflict.deleted_node == "c"
        assert conflict.touched == ("t",)
        assert out.merged.has_node("c")  # held

    def test_a_manual_hold_restores_an_edited_node_and_its_edited_direct_child(self):
        # A deletes c; B edits t and u, t's Direct child, giving each a
        # property and a new Indirect in-edge from r
        nodes = [("r", "Scene"), ("c", "GameObject"), ("t", "Transform"), ("u", "Mesh")]
        edges = [("r", "c", D), ("c", "t", D), ("t", "u", D)]
        base = g("r", nodes, edges)
        mine = g("r", [("r", "Scene")])
        theirs = g(
            "r",
            [*nodes[:2], ("t", "Transform", {"x": real(9.0)}), ("u", "Mesh", {"y": real(1.0)})],
            [*edges, ("r", "t", I), ("r", "u", I)],
        )
        out = merge3(base, mine, theirs, MANUAL)
        [conflict] = out.conflicts
        assert conflict.touched == ("t", "u")
        # both held at the ancestor's state: no new in-edge, u still under t
        assert set(out.merged.edges()) == set(base.edges())
        assert canonical_bytes(out.merged) == canonical_bytes(base)

    def test_agreed_deletion_is_silent(self):
        base = g("r", [("r", "Scene"), ("x", "Prop")], [("r", "x", D)])
        version = g("r", [("r", "Scene")])
        out = merge3(base, version, version, MANUAL)
        assert not out.conflicts
        assert not out.merged.has_node("x")

    def test_orphaned_indirect_subtree_relinks_to_deleted_nodes_parent(self):
        base = g(
            "r",
            [("r", "Scene"), ("holder", "GameObject"), ("gadget", "Prop"), ("sub", "Prop")],
            [("r", "holder", D), ("holder", "gadget", I), ("gadget", "sub", D)],
        )
        mine = g(
            "r",
            [("r", "Scene"), ("gadget", "Prop"), ("sub", "Prop")],
            [("r", "gadget", I), ("gadget", "sub", D)],
        )
        out = merge3(base, mine, base, MANUAL)
        assert not out.conflicts
        # gadget's only route went through holder; it ends under holder's
        # parent with the indirect kind kept
        assert out.merged.edge_kind("r", "gadget") is DepKind.INDIRECT
        assert validate(out.merged).ok

    def test_severed_survivor_relinks_under_nearest_surviving_ancestor(self):
        # A deletes holder and moves gadget under p, B moves gadget under q:
        # the reparent conflict holds gadget off both, so the relink made
        # when holder went is what keeps it rooted, Direct, under box
        nodes = [("r", "Scene"), ("box", "A"), ("holder", "A"), ("gadget", "B"),
                 ("p", "A"), ("q", "A")]
        edges = [("r", "box", D), ("r", "p", D), ("r", "q", D)]
        base = g("r", nodes, [*edges, ("box", "holder", D), ("holder", "gadget", D)])
        mine = g("r", [n for n in nodes if n[0] != "holder"], [*edges, ("p", "gadget", D)])
        theirs = g("r", nodes, [*edges, ("box", "holder", D), ("q", "gadget", D)])
        out = merge3(base, mine, theirs, MANUAL)
        assert [type(c) for c in out.conflicts] == [ReparentConflict]
        assert not out.merged.has_node("holder")
        assert out.merged.parents("gadget") == [("box", DepKind.DIRECT)]

    def test_still_reachable_survivor_not_relinked(self):
        base = g(
            "r",
            [("r", "Scene"), ("holder", "GameObject"), ("gadget", "Prop")],
            [("r", "holder", D), ("holder", "gadget", I), ("r", "gadget", D)],
        )
        mine = g("r", [("r", "Scene"), ("gadget", "Prop")], [("r", "gadget", D)])
        out = merge3(base, mine, base, MANUAL)
        assert not out.conflicts
        assert out.merged.edge_kind("r", "gadget") is DepKind.DIRECT
        assert out.merged.edge_count == 1


class TestModifications:
    def light(self, intensity=2.0, color="white"):
        return g(
            "r",
            [("r", "Scene"), ("lamp", "Light",
                              {"intensity": real(intensity), "color": text(color)})],
            [("r", "lamp", D)],
        )

    def test_disjoint_keys_union(self):
        out = merge3(self.light(), self.light(intensity=4.0), self.light(color="blue"), MANUAL)
        assert not out.conflicts
        assert out.merged.node("lamp").properties["intensity"] == real(4.0)
        assert out.merged.node("lamp").properties["color"] == text("blue")

    def test_same_key_same_value_applies_once(self):
        edited = self.light(intensity=4.0)
        out = merge3(self.light(), edited, edited, MANUAL)
        assert not out.conflicts
        assert out.merged.node("lamp").properties["intensity"] == real(4.0)

    def test_same_key_different_values_conflict_and_hold(self):
        out = merge3(
            self.light(), self.light(intensity=4.0), self.light(intensity=6.0), MANUAL
        )
        assert [type(c) for c in out.conflicts] == [PropertyConflict]
        assert out.conflicts[0].key == "intensity"
        assert out.merged.node("lamp").properties["intensity"] == real(2.0)

    def test_numeric_averaging_takes_the_mean(self):
        policy = MergePolicy(PolicyKind.MANUAL, numeric_averaging=True,
                             averageable_kinds=frozenset({"Light"}))
        # ancestor intensity differs from both edits, so both branches wrote
        out = merge3(
            self.light(intensity=1.0), self.light(intensity=2.0), self.light(intensity=4.0),
            policy,
        )
        assert not out.conflicts
        assert out.merged.node("lamp").properties["intensity"] == real(3.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_averaging_reals_whose_sum_overflows_stays_finite(self, sign):
        policy = MergePolicy(PolicyKind.MANUAL, numeric_averaging=True,
                             averageable_kinds=frozenset({"Light"}))
        mine, theirs = sign * 1.7e308, sign * 1.6e308
        out = merge3(
            self.light(intensity=1.0), self.light(intensity=mine), self.light(intensity=theirs),
            policy,
        )
        assert not out.conflicts
        assert out.merged.node("lamp").properties["intensity"] == real(mine / 2 + theirs / 2)

    def test_averaging_requires_averageable_kind(self):
        policy = MergePolicy(PolicyKind.MANUAL, numeric_averaging=True,
                             averageable_kinds=frozenset({"Material"}))
        out = merge3(
            self.light(intensity=1.0), self.light(intensity=2.0), self.light(intensity=4.0),
            policy,
        )
        assert [type(c) for c in out.conflicts] == [PropertyConflict]

    def test_averaging_requires_real_values(self):
        policy = MergePolicy(PolicyKind.MANUAL, numeric_averaging=True,
                             averageable_kinds=frozenset({"Light"}))
        out = merge3(
            self.light(color="white"), self.light(color="red"), self.light(color="blue"),
            policy,
        )
        assert [type(c) for c in out.conflicts] == [PropertyConflict]

    def test_set_versus_remove_conflicts(self):
        removed = g("r", [("r", "Scene"), ("lamp", "Light", {"color": text("white")})],
                    [("r", "lamp", D)])
        out = merge3(self.light(), self.light(intensity=9.0), removed, MANUAL)
        assert [type(c) for c in out.conflicts] == [PropertyConflict]
        assert out.conflicts[0].value_a == real(9.0)
        assert out.conflicts[0].value_b is None

    def test_reparent_conflict(self):
        base = g(
            "r",
            [("r", "Scene"), ("p", "A"), ("q", "A"), ("n", "B")],
            [("r", "p", D), ("r", "q", D), ("r", "n", D)],
        )
        mine = g(
            "r",
            [("r", "Scene"), ("p", "A"), ("q", "A"), ("n", "B")],
            [("r", "p", D), ("r", "q", D), ("p", "n", D)],
        )
        theirs = g(
            "r",
            [("r", "Scene"), ("p", "A"), ("q", "A"), ("n", "B")],
            [("r", "p", D), ("r", "q", D), ("q", "n", D)],
        )
        out = merge3(base, mine, theirs, MANUAL)
        assert [type(c) for c in out.conflicts] == [ReparentConflict]
        assert out.merged.direct_parent("n") == "r"  # ancestor state held

    def test_same_reparent_applies_once(self):
        base = g(
            "r",
            [("r", "Scene"), ("p", "A"), ("n", "B")],
            [("r", "p", D), ("r", "n", D)],
        )
        moved = g(
            "r",
            [("r", "Scene"), ("p", "A"), ("n", "B")],
            [("r", "p", D), ("p", "n", D)],
        )
        out = merge3(base, moved, moved, MANUAL)
        assert not out.conflicts
        assert out.merged.direct_parent("n") == "p"

    def test_kind_promotion_vs_reparent_is_a_reparent_conflict(self):
        # A promotes an indirect in-edge to Direct; B assigns a different
        # Direct parent: two competing Direct-parent claims for one node
        base = g(
            "r",
            [("r", "Scene"), ("p", "A"), ("q", "A"), ("n", "B")],
            [("r", "p", D), ("r", "q", D), ("p", "n", I), ("r", "n", D)],
        )
        mine = g(  # kind change: n's direct parent becomes p
            "r",
            [("r", "Scene"), ("p", "A"), ("q", "A"), ("n", "B")],
            [("r", "p", D), ("r", "q", D), ("p", "n", D), ("r", "n", I)],
        )
        theirs = g(  # reparent: n under q
            "r",
            [("r", "Scene"), ("p", "A"), ("q", "A"), ("n", "B")],
            [("r", "p", D), ("r", "q", D), ("p", "n", I), ("q", "n", D)],
        )
        out = merge3(base, mine, theirs, MANUAL)
        reparents = [c for c in out.conflicts if isinstance(c, ReparentConflict)]
        assert len(reparents) == 1
        assert {reparents[0].parent_a, reparents[0].parent_b} == {"p", "q"}

    def test_dependency_kind_change_applies(self):
        base = g(
            "r",
            [("r", "Scene"), ("s", "Script"), ("x", "Prop")],
            [("r", "s", D), ("r", "x", D), ("s", "x", I)],
        )
        mine = g(
            "r",
            [("r", "Scene"), ("s", "Script"), ("x", "Prop")],
            [("r", "s", D), ("r", "x", D)],
        )
        out = merge3(base, mine, base, MANUAL)
        assert not out.conflicts
        assert out.merged.edge_kind("s", "x") is None


class TestResolveConflicts:
    def triple(self):
        def level(k):
            return g("r", [("r", "Scene"), ("n", "X", {"k": real(k)})], [("r", "n", D)])

        return level(1.0), level(2.0), level(3.0)

    def test_no_conflicts_is_identity(self, chain3):
        out = merge3(chain3, chain3, chain3, PREFER_A)
        assert out.merged == chain3 and not out.conflicts and not out.dropped

    def test_property_conflict_prefer_a(self):
        out = merge3(*self.triple(), PREFER_A)
        assert out.merged.node("n").properties["k"] == real(2.0)
        assert out.conflicts[0].resolution is Resolution.TOOK_A
        assert len(out.dropped) == 1
        assert out.dropped[0].branch is Branch.B and out.dropped[0].node == "n"
        assert "3.0" in out.dropped[0].description

    def test_manual_keeps_ancestor_and_unresolved(self):
        out = merge3(*self.triple(), MANUAL)
        assert out.merged.node("n").properties["k"] == real(1.0)
        assert out.conflicts[0].resolution is Resolution.UNRESOLVED
        assert not out.dropped

    def test_a_winning_deletion_names_every_dropped_edit(self):
        # A deletes c with its subtree; B edits each member a different way:
        # t's properties, u's Direct edge flipped to Indirect, v moved under s
        # by two flips, and w given only an Indirect in-edge
        nodes = [("r", "Scene"), ("c", "X"), ("s", "X"), ("u", "X"), ("v", "X"), ("w", "X")]
        edges = [("r", "c", D), ("r", "s", D), ("c", "t", D), ("c", "w", D), ("s", "v", I)]
        base = g("r", [*nodes, ("t", "X", {"x": real(1.0), "y": real(2.0)})],
                 [*edges, ("c", "u", D), ("c", "v", D)])
        mine = g("r", [("r", "Scene"), ("s", "X")], [("r", "s", D)])
        theirs = g(
            "r", [*nodes, ("t", "X", {"x": real(9.0)})],
            [*edges[:4], ("c", "u", I), ("c", "v", I), ("s", "v", D), ("s", "w", I)],
        )
        out = merge3(base, mine, theirs, PREFER_A)
        assert [type(c) for c in out.conflicts] == [DeleteModifyConflict]
        assert [(d.branch, d.node, d.description) for d in out.dropped] == [
            (Branch.B, "t", "set x = real 9.0"),
            (Branch.B, "t", "remove property y"),
            (Branch.B, "u", "reparent under nothing"),
            (Branch.B, "u", "dependency on c becomes indirect"),
            (Branch.B, "v", "reparent under s"),
            (Branch.B, "v", "dependency on c becomes indirect"),
            (Branch.B, "v", "dependency on s becomes direct"),
            (Branch.B, "w", "edited"),
        ]
        assert out.merged.node_ids() == ["r", "s"]


class TestRepairCycles:
    """Every input is acyclic, so each cycle here is one the merge closes.

    All members of a strongly connected component share its height, so
    among a component's internal edges the (parent, child) tie-break
    decides.
    """

    def test_acyclic_is_untouched(self, chain3):
        out = merge3(chain3, chain3, chain3, MANUAL)
        assert out.merged == chain3 and out.removed_cycle_edges == []

    def test_indirect_edge_removed_first(self):
        # A moves b under a, B adds the reference b -> a: a -> b -> a
        base = g("root", [("root", "Scene"), ("a", "X"), ("b", "X")],
                 [("root", "a", D), ("root", "b", D)])
        mine = g("root", [("root", "Scene"), ("a", "X"), ("b", "X")],
                 [("root", "a", D), ("a", "b", D)])
        theirs = g("root", [("root", "Scene"), ("a", "X"), ("b", "X")],
                   [("root", "a", D), ("root", "b", D), ("b", "a", I)])
        out = merge3(base, mine, theirs, MANUAL)
        assert [(e.parent, e.child, e.kind) for e in out.removed_cycle_edges] == [("b", "a", I)]
        assert out.merged.edge_kind("a", "b") is D
        assert validate(out.merged).ok

    def test_all_direct_cycle_breaks_lexicographically_smallest(self):
        # A moves b under a, B moves a under b: an all-Direct two-node cycle
        base = g("root", [("root", "Scene"), ("a", "X"), ("b", "X")],
                 [("root", "a", D), ("root", "b", D)])
        mine = g("root", [("root", "Scene"), ("a", "X"), ("b", "X")],
                 [("root", "a", D), ("a", "b", D)])
        theirs = g("root", [("root", "Scene"), ("a", "X"), ("b", "X")],
                   [("root", "b", D), ("b", "a", D)])
        out = merge3(base, mine, theirs, MANUAL)
        assert [(e.parent, e.child) for e in out.removed_cycle_edges] == [("a", "b")]
        assert validate(out.merged).ok

    def test_lowest_height_source_preferred(self):
        # A adds b -> c, B adds c -> a: with the ancestor's a -> b, a
        # cycle a -> b -> c -> a, all indirect
        nodes = [("root", "Scene"), ("a", "X"), ("b", "X"), ("c", "X")]
        tree = [("root", "a", D), ("root", "b", D), ("root", "c", D), ("a", "b", I)]
        base = g("root", nodes, tree)
        mine = g("root", nodes, [*tree, ("b", "c", I)])
        theirs = g("root", nodes, [*tree, ("c", "a", I)])
        out = merge3(base, mine, theirs, MANUAL)
        assert validate(out.merged).ok
        assert len(out.removed_cycle_edges) == 1
        # all cycle members share the component height; lexicographic
        # tie-break picks the smallest (parent, child)
        removed = out.removed_cycle_edges[0]
        assert (removed.parent, removed.child) == ("a", "b")

    def test_self_loop_removed(self):
        # parse rejects self-loops and inputs are acyclic, so merge3 never
        # meets one; the guard is driven on a hand-built working graph
        level = g("root", [("root", "Scene"), ("a", "X")], [("root", "a", D)])
        state = _State(classify(level, level), classify(level, level), MANUAL)
        state.set_edge("a", "a", I, owner=Branch.B)
        _repair_cycles_state(state)
        assert [(e.parent, e.child) for e in state.removed_edges] == [("a", "a")]
        assert [(d.branch, d.node) for d in state.dropped] == [(Branch.B, "a")]
        assert validate(state.to_graph()).ok

    def test_merge_created_cycle_is_repaired(self):
        base = g(
            "r",
            [("r", "Scene"), ("a", "X"), ("b", "X")],
            [("r", "a", D), ("r", "b", D)],
        )
        mine = g(
            "r",
            [("r", "Scene"), ("a", "X"), ("b", "X")],
            [("r", "a", D), ("r", "b", D), ("a", "b", I)],
        )
        theirs = g(
            "r",
            [("r", "Scene"), ("a", "X"), ("b", "X")],
            [("r", "a", D), ("r", "b", D), ("b", "a", I)],
        )
        out = merge3(base, mine, theirs, MANUAL)
        assert validate(out.merged).ok
        assert len(out.removed_cycle_edges) == 1
        assert len(out.dropped) == 1  # a branch edge had to go


class TestMergeLaws:
    def test_one_sided_merge_equals_the_edited_branch(self):
        base = load("fig3-base.lvl")
        theirs = load("fig3-theirs.lvl")
        out = merge3(base, theirs, base, MANUAL)
        assert canonical_bytes(out.merged) == canonical_bytes(theirs)
        assert not out.conflicts

    def test_agreement_absorption(self):
        base = load("fig3-base.lvl")
        theirs = load("fig3-theirs.lvl")
        out = merge3(base, theirs, theirs, MANUAL)
        assert canonical_bytes(out.merged) == canonical_bytes(theirs)
        assert not out.conflicts

    def test_reparent_into_deleted_subtree_is_delete_modify(self):
        base = g(
            "r",
            [("r", "Scene"), ("box", "A"), ("item", "B"), ("loose", "C")],
            [("r", "box", D), ("box", "item", D), ("r", "loose", D)],
        )
        mine = g(  # A deletes the box subtree
            "r", [("r", "Scene"), ("loose", "C")], [("r", "loose", D)]
        )
        theirs = g(  # B moves loose under the doomed item
            "r",
            [("r", "Scene"), ("box", "A"), ("item", "B"), ("loose", "C")],
            [("r", "box", D), ("box", "item", D), ("item", "loose", D)],
        )
        out = merge3(base, mine, theirs, MANUAL)
        kinds = [type(c) for c in out.conflicts]
        assert kinds == [DeleteModifyConflict]
        assert out.conflicts[0].touched == ("loose",)
        # manual resolution holds everything at ancestor state
        assert canonical_bytes(out.merged) == canonical_bytes(base)

        win_delete = merge3(base, mine, theirs, PREFER_A)
        assert not win_delete.merged.has_node("box")
        assert win_delete.merged.direct_parent("loose") == "r"
        assert any(d.branch is Branch.B for d in win_delete.dropped)

        win_move = merge3(base, mine, theirs, PREFER_B)
        assert win_move.merged.direct_parent("loose") == "item"
        assert any(d.branch is Branch.A for d in win_move.dropped)

    def test_addition_anchored_into_deleted_subtree_is_delete_modify(self):
        base = g(
            "r",
            [("r", "Scene"), ("box", "A"), ("item", "B")],
            [("r", "box", D), ("box", "item", D)],
        )
        mine = g("r", [("r", "Scene")])
        theirs = g(
            "r",
            [("r", "Scene"), ("box", "A"), ("item", "B"), ("new", "C")],
            [("r", "box", D), ("box", "item", D), ("item", "new", D)],
        )
        out = merge3(base, mine, theirs, MANUAL)
        assert [type(c) for c in out.conflicts] == [DeleteModifyConflict]
        assert "new" in out.conflicts[0].touched
        assert canonical_bytes(out.merged) == canonical_bytes(base)

        win_delete = merge3(base, mine, theirs, PREFER_A)
        assert not win_delete.merged.has_node("new")
        win_add = merge3(base, mine, theirs, PREFER_B)
        assert win_add.merged.direct_parent("new") == "item"

    def test_both_branches_adding_same_id_with_different_kinds_is_an_error(self):
        from scenemerge import GraphMismatchError

        base = g("r", [("r", "Scene")])
        mine = g("r", [("r", "Scene"), ("n", "Light")], [("r", "n", D)])
        theirs = g("r", [("r", "Scene"), ("n", "Camera")], [("r", "n", D)])
        with pytest.raises(GraphMismatchError, match="kind"):
            merge3(base, mine, theirs, MANUAL)

    @pytest.mark.parametrize("swap", [False, True])
    def test_add_add_kind_mismatch_names_the_smallest_id_in_both_orders(self, swap):
        from scenemerge import GraphMismatchError

        # "s" is shared with the ancestor, so only the ids both branches
        # added are compared between them: "m" before "z", "k" agrees
        base = g("r", [("r", "Scene"), ("s", "Mesh")], [("r", "s", D)])
        added = [("k", "Light"), ("z", "Light"), ("m", "Light")]
        mine = g("r", [("r", "Scene"), ("s", "Mesh"), *added],
                 [("r", "s", D)] + [("r", n, D) for n, _ in added])
        theirs = g("r", [("r", "Scene"), ("s", "Mesh"), ("k", "Light"), ("z", "Camera"), ("m", "Camera")],
                   [("r", "s", D)] + [("r", n, D) for n, _ in added])
        first, second = ("Camera", "Light") if swap else ("Light", "Camera")
        if swap:
            mine, theirs = theirs, mine
        with pytest.raises(GraphMismatchError) as raised:
            merge3(base, mine, theirs, MANUAL)
        assert str(raised.value) == (
            f"node 'm' has kind {first!r} in mine but {second!r} in theirs; "
            "a kind change must be modeled as delete plus add under a new id"
        )

    def test_overlapping_deletions_with_a_rescued_member(self):
        # A deletes the whole box; B reparents the item out first and then
        # deletes only the box. The deletions agree on the box; A's intent
        # to delete the item clashes with B's rescue of it.
        base = g(
            "r",
            [("r", "Scene"), ("box", "A"), ("item", "B"), ("shelf", "C")],
            [("r", "box", D), ("box", "item", D), ("r", "shelf", D)],
        )
        mine = g("r", [("r", "Scene"), ("shelf", "C")], [("r", "shelf", D)])
        theirs = g(
            "r",
            [("r", "Scene"), ("item", "B"), ("shelf", "C")],
            [("r", "shelf", D), ("shelf", "item", D)],
        )
        out = merge3(base, mine, theirs, MANUAL)
        assert [type(c) for c in out.conflicts] == [DeleteModifyConflict]
        assert validate(out.merged).ok
        assert not out.merged.has_node("box")  # agreed deletion still lands

        win_delete = merge3(base, mine, theirs, PREFER_A)
        assert not win_delete.merged.has_node("item")
        assert validate(win_delete.merged).ok
        win_rescue = merge3(base, mine, theirs, PREFER_B)
        assert win_rescue.merged.direct_parent("item") == "shelf"
        assert not win_rescue.merged.has_node("box")
        assert validate(win_rescue.merged).ok

    def test_all_delete_modify_triggers_at_once(self):
        # one doomed subtree, the other branch hitting it three ways:
        # a property edit inside, an anchored addition chain, and a
        # survivor reparented in
        base = g(
            "r",
            [("r", "Scene"), ("box", "A"), ("inner", "B", {"x": real(1.0)}),
             ("loose", "C"), ("spare", "C")],
            [("r", "box", D), ("box", "inner", D), ("r", "loose", D), ("r", "spare", D)],
        )
        mine = g("r", [("r", "Scene"), ("loose", "C"), ("spare", "C")],
                 [("r", "loose", D), ("r", "spare", D)])
        theirs = g(
            "r",
            [("r", "Scene"), ("box", "A"), ("inner", "B", {"x": real(7.0)}),
             ("loose", "C"), ("spare", "C"),
             ("extra", "E"), ("extra-child", "E")],
            [("r", "box", D), ("box", "inner", D), ("r", "spare", D),
             ("inner", "extra", D), ("extra", "extra-child", D),
             ("inner", "loose", D)],
        )
        out = merge3(base, mine, theirs, MANUAL)
        assert [type(c) for c in out.conflicts] == [DeleteModifyConflict]
        conflict = out.conflicts[0]
        assert set(conflict.touched) == {"inner", "extra", "extra-child", "loose"}
        assert canonical_bytes(out.merged) == canonical_bytes(base)  # fully held

        win_delete = merge3(base, mine, theirs, PREFER_A)
        assert validate(win_delete.merged).ok
        for gone in ("box", "inner", "extra", "extra-child"):
            assert not win_delete.merged.has_node(gone)
        assert win_delete.merged.direct_parent("loose") == "r"  # reparent reverted
        assert {d.branch for d in win_delete.dropped} == {Branch.B}
        assert len(win_delete.dropped) == 4  # prop edit, 2 adds, 1 reparent

        win_edits = merge3(base, mine, theirs, PREFER_B)
        assert validate(win_edits.merged).ok
        assert canonical_bytes(win_edits.merged) == canonical_bytes(theirs)
        assert [d.branch for d in win_edits.dropped] == [Branch.A]

        # the laws hold on this shape too
        mirrored = merge3(base, theirs, mine, PREFER_B)
        assert canonical_bytes(mirrored.merged) == canonical_bytes(win_delete.merged)

    @pytest.mark.xfail(strict=True, reason="settling a reparent drops the other's indirect edge")
    def test_indirect_edit_survives_a_settled_reparent(self):
        # root -> p0 -> x Direct; A puts x under p1 and keeps p0 -> x as an
        # Indirect edge, B puts x under p2. The indirect-presence cell keeps
        # A's p0 -> x, but settling the reparent conflict removes the pair
        # with the old Direct parent, so A's edit is lost without a dropped
        # edit. The same happens on the benchmark's random-10k/6/prefer-a
        # merge (n0616 -> n0620), so mending it changes a pinned digest.
        nodes = [("r", "Scene"), ("p0", "A"), ("p1", "A"), ("p2", "A"), ("x", "B")]
        parents = [("r", "p0", D), ("r", "p1", D), ("r", "p2", D)]
        base = g("r", nodes, [*parents, ("p0", "x", D)])
        mine = g("r", nodes, [*parents, ("p1", "x", D), ("p0", "x", I)])
        theirs = g("r", nodes, [*parents, ("p2", "x", D)])
        for policy in (PREFER_A, PREFER_B):
            assert merge3(base, mine, theirs, policy).merged.edge_kind("p0", "x") is I

    def test_merged_manifest_union(self):
        base = g("r", [("r", "Scene")], assets={"a.png": "1"})
        mine = g("r", [("r", "Scene")], assets={"a.png": "1", "b.png": "2"})
        theirs = g("r", [("r", "Scene")], assets={"a.png": "9"})
        out = merge3(base, mine, theirs, MANUAL)
        assert out.merged.assets == {"a.png": "9", "b.png": "2"}
        assert not out.conflicts

    def test_asset_conflict_resolution(self):
        base = g("r", [("r", "Scene")], assets={"a.png": "1"})
        mine = g("r", [("r", "Scene")], assets={"a.png": "2"})
        theirs = g("r", [("r", "Scene")], assets={"a.png": "3"})
        manual = merge3(base, mine, theirs, MANUAL)
        assert manual.merged.assets == {"a.png": "1"}
        assert len(manual.unresolved) == 1
        prefer = merge3(base, mine, theirs, PREFER_B)
        assert prefer.merged.assets == {"a.png": "3"}
        assert prefer.dropped and prefer.dropped[0].branch is Branch.A

    def test_surviving_reference_restores_deleted_manifest_entry(self):
        base = g(
            "r",
            [("r", "Scene"), ("m", "Mesh", {"src": PropertyValue.asset_ref("x.obj")})],
            [("r", "m", D)],
            assets={"x.obj": "111"},
        )
        mine = g(  # A deletes the asset and drops the reference
            "r", [("r", "Scene"), ("m", "Mesh")], [("r", "m", D)], assets={}
        )
        theirs = base  # B untouched
        out = merge3(base, mine, theirs, MANUAL)
        assert not out.merged.node("m").properties  # reference removed by A
        assert out.merged.assets == {}

        # but if B re-points another property at it concurrently, the
        # reference wins and the manifest entry is restored
        theirs2 = g(
            "r",
            [("r", "Scene"), ("m", "Mesh", {"src": PropertyValue.asset_ref("x.obj"),
                                            "alt": PropertyValue.asset_ref("x.obj")})],
            [("r", "m", D)],
            assets={"x.obj": "111"},
        )
        out2 = merge3(base, mine, theirs2, MANUAL)
        assert out2.merged.assets == {"x.obj": "111"}
        assert validate(out2.merged).ok

    def test_new_reference_restores_an_asset_the_other_branch_deleted(self):
        base = g("r", [("r", "Scene")], assets={"x.obj": "111", "y.png": "222"})
        mine = g("r", [("r", "Scene")], assets={"y.png": "222"})  # A deletes x.obj
        theirs = g(  # B adds a node that references it
            "r",
            [("r", "Scene"), ("n", "Mesh", {"src": PropertyValue.asset_ref("x.obj")})],
            [("r", "n", D)],
            assets={"x.obj": "111", "y.png": "222"},
        )
        for a, b in ((mine, theirs), (theirs, mine)):
            out = merge3(base, a, b, MANUAL)
            assert out.merged.node("n").properties["src"] == PropertyValue.asset_ref("x.obj")
            assert out.merged.assets == {"x.obj": "111", "y.png": "222"}
            assert validate(out.merged).ok


# an ancestor in which h refers to t1 and t2, and t1 to t3
REF_BASE = """lvl 1
root r
node h Prop
node r Scene
node t1 Prop
node t2 Prop
node t3 Prop
prop h link ref t1
prop h other ref t2
prop t1 next ref t3
edge r h direct
edge r t1 direct
edge r t3 direct
edge t1 t2 direct
"""
# A deletes every node; B edits h, so h's deletion is a delete-modify
# conflict while t1 (with t2) and t3 are deleted cleanly
REF_MINE = "lvl 1\nroot r\nnode r Scene\n"
REF_THEIRS = REF_BASE.replace("prop h link", "prop h note text edited\nprop h link")


def _surviving_ref() -> tuple[LevelGraph, LevelGraph, LevelGraph]:
    """B edits t1 to refer to t3, which A deletes cleanly along with t2,
    t1's Direct child; the ref wins, and t3 returns under r."""
    base = g("r", [("r", "Scene"), ("t1", "P"), ("t2", "P"), ("t3", "P")],
             [("r", "t1", D), ("t1", "t2", D), ("r", "t3", D)])
    mine = g("r", [("r", "Scene"), ("t1", "P")], [("r", "t1", D)])
    theirs = g("r", [("r", "Scene"), ("t1", "P", {"next": PropertyValue.node_ref("t3")}),
                     ("t2", "P"), ("t3", "P")],
               [("r", "t1", D), ("t1", "t2", D), ("r", "t3", D)])
    return base, mine, theirs


class TestReferenceRepair:
    def test_a_held_holder_restores_the_targets_its_branch_deleted_cleanly(self, tmp_path):
        paths = []
        for name, level in (("base", REF_BASE), ("mine", REF_MINE), ("theirs", REF_THEIRS)):
            path = tmp_path / f"{name}.lvl"
            path.write_text(level)
            paths.append(path)
        graphs = [read_document(path).graph for path in paths]
        out = merge3(*graphs, MANUAL)
        assert [type(c) for c in out.conflicts] == [DeleteModifyConflict]
        # h is held at the ancestor's state, and what it names comes back
        assert canonical_bytes(out.merged) == canonical_bytes(graphs[0])

        # the restored set and its edges do not depend on set order
        env = {**os.environ, "PYTHONPATH": str(Path(scenemerge.__file__).resolve().parents[1])}
        env.pop("SCENEMERGE_CONFIG", None)
        merged = []
        for seed in ("0", "1"):
            output = tmp_path / f"merged-{seed}.lvl"
            done = subprocess.run(
                [sys.executable, "-m", "scenemerge.cli", "merge", *map(str, paths),
                 "--output", str(output)],
                env={**env, "PYTHONHASHSEED": seed}, capture_output=True, text=True,
            )
            assert done.returncode == 1, done.stderr  # one conflict left unresolved
            merged.append(output.read_bytes())
        assert merged[0] == merged[1] == canonical_bytes(out.merged)

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_a_surviving_ref_restores_its_target_under_every_policy(self, kind):
        base, mine, theirs = _surviving_ref()
        policy = MergePolicy(kind)
        out = merge3(base, mine, theirs, policy)
        assert out.merged.direct_parent("t3") == "r"
        assert not out.merged.has_node("t2")
        assert canonical_bytes(out.merged) == canonical_bytes(
            merge3(base, theirs, mine, policy.mirrored()).merged
        )


    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_a_restored_node_keeps_its_edge_from_the_restored_parent_it_names(self, kind):
        # A deletes w with its Direct child v, which names w; B makes h name
        # v, so v and then w come back, and v goes back under w
        base = g("r", [("r", "Scene"), ("h", "P"), ("v", "P", {"up": PropertyValue.node_ref("w")}),
                       ("w", "P")],
                 [("r", "h", D), ("r", "w", D), ("w", "v", D)])
        mine = g("r", [("r", "Scene"), ("h", "P")], [("r", "h", D)])
        theirs = g("r", [("r", "Scene"), ("h", "P", {"link": PropertyValue.node_ref("v")}),
                         ("v", "P", {"up": PropertyValue.node_ref("w")}), ("w", "P")],
                   [("r", "h", D), ("r", "w", D), ("w", "v", D)])
        out = merge3(base, mine, theirs, MergePolicy(kind))
        assert not out.conflicts
        assert set(out.merged.edges()) == set(theirs.edges())
        assert canonical_bytes(out.merged) == canonical_bytes(theirs)


class TestEveryEditAccountedFor:
    """Merges in which a branch's edit, or a repair, goes unreported: the
    merged level holds neither the edit nor a conflict or dropped edit
    naming it. Each is pinned as a strict xfail until it is mended."""

    @staticmethod
    def _seed_144() -> tuple[MergeOutcome, list[tuple[str, str]]]:
        """sim seed 144 at 300 nodes under prefer-a: A flips n0132 -> n0134 to
        Indirect, leaving n0134 no Direct parent, and B moves n0134 under
        n0048; A wins the reparent. Also the edges orphan reconnection adds."""
        sc = generate(144, SizeParams(nodes=300, edges=375, ops_per_branch=60))
        mine, theirs = (apply_script(sc.base, script) for script in (sc.script_a, sc.script_b))
        assert mine.edge_kind("n0132", "n0134") is I and mine.direct_parent("n0134") is None
        assert theirs.direct_parent("n0134") == "n0048"
        reconnects = []
        reconnect = merge_module._reconnect_orphans

        def recording(state):
            before = set(state.edges)
            reconnect(state)
            reconnects.extend(pair for pair in state.edges if pair not in before)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(merge_module, "_reconnect_orphans", recording)
            return merge3(sc.base, mine, theirs, PREFER_A), reconnects

    @pytest.mark.xfail(strict=True, reason="settling the reparent drops the winner's own flip")
    def test_the_winners_kind_flip_is_kept_or_reported(self):
        out, _ = self._seed_144()
        assert out.merged.edge_kind("n0132", "n0134") is I or any(
            drop.branch is Branch.A and drop.node == "n0134" for drop in out.dropped
        )

    @pytest.mark.xfail(strict=True, reason="a restored reference target is not reported")
    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_a_restored_reference_target_is_reported(self, kind):
        out = merge3(*_surviving_ref(), MergePolicy(kind))
        assert out.merged.has_node("t3")  # A deleted it; B's ref restores it
        named = {getattr(c, "node", None) for c in out.conflicts} | {d.node for d in out.dropped}
        assert "t3" in named

    @pytest.mark.xfail(strict=True, reason="a node reached from another reconnected node is reconnected too")
    def test_no_reconnected_node_is_reached_from_another(self):
        out, reconnects = self._seed_144()
        # n0090 hangs under n0137, which hangs under n0134
        assert ("root", "n0090") in reconnects and ("root", "n0134") in reconnects
        assert "n0090" not in _closure(["n0134"], out.merged._out)
