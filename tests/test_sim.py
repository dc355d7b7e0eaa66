from __future__ import annotations

from dataclasses import replace

import pytest

from scenemerge import MergePolicy, PolicyKind, canonical_bytes, classify, read_document, validate
from scenemerge.diff import diff_stats
from scenemerge.sim import (
    AddNode,
    DeleteNode,
    PRESETS,
    Reparent,
    ScriptError,
    SetProperty,
    SizeParams,
    apply_script,
    check_scenario,
    generate,
)
from conftest import D, fixture_path, g, real

SMALL = SizeParams(nodes=16, edges=19, ops_per_branch=4)


class TestGenerate:
    def test_deterministic_for_a_seed(self):
        one = generate(12, SMALL)
        two = generate(12, SMALL)
        assert canonical_bytes(one.base) == canonical_bytes(two.base)
        assert one.script_a == two.script_a
        assert one.script_b == two.script_b

    def test_base_is_valid_and_sized(self):
        scenario = generate(5, SMALL)
        assert validate(scenario.base).ok
        assert scenario.base.node_count == 16
        assert scenario.base.edge_count == 19

    def test_zero_ops_means_empty_scripts(self):
        scenario = generate(5, SizeParams(nodes=10, edges=11, ops_per_branch=0))
        assert scenario.script_a == () and scenario.script_b == ()

    def test_exact_edit_targets_hit_by_construction(self):
        scenario = generate(31, SizeParams(nodes=120, edges=140, edits_a=25, edits_b=13))
        version_a = apply_script(scenario.base, scenario.script_a)
        version_b = apply_script(scenario.base, scenario.script_b)
        assert diff_stats(classify(scenario.base, version_a)).total_edited == 25
        assert diff_stats(classify(scenario.base, version_b)).total_edited == 13

    def test_unsatisfiable_dimensions_rejected(self):
        from scenemerge.sim import GenerationError

        with pytest.raises(GenerationError):
            generate(1, SizeParams(nodes=10, edges=3))

    def test_lab_preset_dimensions(self):
        scenario = generate(7, PRESETS["lab"])
        assert scenario.base.node_count == 2800
        assert scenario.base.edge_count == 3156


class TestApplyScript:
    def test_empty_script_is_identity(self, chain3):
        assert apply_script(chain3, ()) == chain3

    def test_add_then_delete_cancels(self, chain3):
        script = (AddNode("n", "Prop", "a"), DeleteNode("n"))
        assert canonical_bytes(apply_script(chain3, script)) == canonical_bytes(chain3)

    def test_inapplicable_op_names_its_index(self, chain3):
        with pytest.raises(ScriptError, match="op 1"):
            apply_script(chain3, (SetProperty("a", "k", real(1.0)), DeleteNode("ghost")))

    def test_delete_cascades_over_direct_subtree(self, chain3):
        result = apply_script(chain3, (DeleteNode("a"),))
        assert result.node_ids() == ["root"]

    def test_reparent_cycle_rejected(self, chain3):
        with pytest.raises(ScriptError, match="cycle"):
            apply_script(chain3, (Reparent("a", "b"),))

    def test_fig3_user_b_script_reproduces_fixture(self):
        base = read_document(fixture_path("fig3-base.lvl")).graph
        expected = read_document(fixture_path("fig3-theirs.lvl")).graph
        from scenemerge import PropertyValue

        script = (
            AddNode("dollhouse", "GameObject", "room",
                    (("name", PropertyValue.text("doll house")),)),
            AddNode("chimney", "GameObject", "dollhouse"),
            AddNode("chimney-smoke", "Particles", "chimney",
                    (("rate", PropertyValue.real(4.5)),)),
            Reparent("bunny", "dollhouse"),
            DeleteNode("drawers"),
        )
        result = apply_script(base, script)
        assert canonical_bytes(result) == canonical_bytes(expected)


class TestCheckScenario:
    def test_disjoint_scripts_pass_without_conflicts(self):
        from scenemerge.sim import Scenario

        base = g(
            "r",
            [("r", "Scene"), ("a", "X"), ("b", "X")],
            [("r", "a", D), ("r", "b", D)],
        )
        scenario = Scenario(
            seed=1,
            size=SizeParams(nodes=3, edges=2),
            base=base,
            script_a=(SetProperty("a", "k", real(1.0)),),
            script_b=(SetProperty("b", "k", real(2.0)),),
            policy=MergePolicy(PolicyKind.MANUAL),
        )
        verdict = check_scenario(scenario)
        assert verdict.passed, verdict.violations
        assert verdict.outcome.conflicts == []

    def test_a_lost_disjoint_edit_is_a_violation(self, monkeypatch):
        from scenemerge import LevelGraph, merge3
        from scenemerge.sim import Scenario

        base = g(
            "r",
            [("r", "Scene"), ("a", "X"), ("b", "X")],
            [("r", "a", D), ("r", "b", D)],
        )

        def merge3_losing_as_edit(ancestor, mine, theirs, policy):
            # a loses its edit in every merge of two distinct edits, so the
            # rerun and the swapped merge agree; one-sided merges keep it
            outcome = merge3(ancestor, mine, theirs, policy)
            if ancestor != mine != theirs != ancestor:
                merged = outcome.merged
                nodes = [ancestor.node("a") if n.id == "a" else n for n in merged.nodes()]
                outcome.merged = LevelGraph(merged.root, nodes, merged.edges(), merged.assets)
            return outcome

        monkeypatch.setattr("scenemerge.sim.merge3", merge3_losing_as_edit)
        scenario = Scenario(
            seed=1,
            size=SizeParams(nodes=3, edges=2),
            base=base,
            script_a=(SetProperty("a", "k", real(1.0)),),
            script_b=(SetProperty("b", "k", real(2.0)),),
            policy=MergePolicy(PolicyKind.MANUAL),
        )
        verdict = check_scenario(scenario)
        assert verdict.violations == ["disjoint preservation: delta of 'a' not observable"]

    def test_same_key_disagreement_is_exactly_one_property_conflict(self):
        from oracle import conflict_key, expected_conflicts
        from scenemerge.sim import Scenario

        base = g("r", [("r", "Scene"), ("a", "X")], [("r", "a", D)])
        scenario = Scenario(
            seed=1,
            size=SizeParams(nodes=2, edges=1),
            base=base,
            script_a=(SetProperty("a", "k", real(1.0)),),
            script_b=(SetProperty("a", "k", real(2.0)),),
            policy=MergePolicy(PolicyKind.MANUAL),
        )
        verdict = check_scenario(scenario)
        assert verdict.passed, verdict.violations
        (op_a,), (op_b,) = scenario.script_a, scenario.script_b
        expected = expected_conflicts(base, op_a, op_b, scenario.policy)
        assert {conflict_key(c) for c in verdict.outcome.conflicts} == expected
        assert len(verdict.outcome.conflicts) == 1

    def test_random_scenarios_uphold_all_laws(self):
        policies = [PolicyKind.MANUAL, PolicyKind.PREFER_A, PolicyKind.PREFER_B]
        for seed in range(60):
            scenario = generate(seed, SMALL, MergePolicy(policies[seed % 3]))
            verdict = check_scenario(scenario)
            assert verdict.passed, (seed, verdict.violations)


class TestScaleRuns:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("policy", list(PolicyKind), ids=lambda p: p.value)
    def test_laws_hold_on_3k_node_random_op_levels(self, seed, policy):
        # big enough that deletions meet concurrent edits: every seed conflicts
        size = SizeParams(nodes=3000, edges=3400, ops_per_branch=200)
        verdict = check_scenario(generate(seed, size, MergePolicy(policy)))
        assert verdict.passed, verdict.violations
        assert verdict.outcome.conflicts

    def test_laws_hold_on_10k_node_random_op_levels(self):
        # the engine benchmark's level size, one generation for all policies
        size = SizeParams(nodes=10_000, edges=11_000, ops_per_branch=600)
        scenario = generate(1, size)
        for policy in PolicyKind:
            verdict = check_scenario(replace(scenario, policy=MergePolicy(policy)))
            assert verdict.passed, (policy, verdict.violations)
            assert verdict.outcome.conflicts

    def test_laws_hold_where_a_large_random_op_merge_repairs_a_cycle(self):
        # no 10k-node, 600-op seed searched closes a cycle; this one does
        size = SizeParams(nodes=7_500, edges=8_250, ops_per_branch=600)
        scenario = generate(9, size)
        for policy in PolicyKind:
            verdict = check_scenario(replace(scenario, policy=MergePolicy(policy)))
            assert verdict.passed, (policy, verdict.violations)
            assert verdict.outcome.removed_cycle_edges

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_each_benchmark_row_merges_within_its_targets(self, preset):
        from scenemerge import merge3

        size = PRESETS[preset]
        scenario = generate(17, size, MergePolicy(PolicyKind.PREFER_B))
        version_a = apply_script(scenario.base, scenario.script_a)
        version_b = apply_script(scenario.base, scenario.script_b)
        out = merge3(scenario.base, version_a, version_b, scenario.policy)
        assert validate(out.merged).ok
        assert out.stats.diff_a_edited == size.edits_a
        assert out.stats.diff_b_edited == size.edits_b
        adds = sum(1 for op in scenario.script_a + scenario.script_b
                   if isinstance(op, AddNode))
        assert abs(out.stats.merged_nodes - (size.nodes + adds)) <= 0.1 * (size.nodes + adds)
        assert abs(out.stats.merged_edges - (size.edges + adds)) <= 0.1 * (size.edges + adds)
        assert out.stats.wall_time_s > 0.0  # recorded
