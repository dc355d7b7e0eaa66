"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line when it completes (run with ``-s``
or ``-rA`` to see them). Tolerances and trial counts are pinned here
and must not be loosened.
"""

from __future__ import annotations

import os
import random
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenemerge
from scenemerge import (
    Branch,
    DeleteModifyConflict,
    DepKind,
    Edge,
    LevelGraph,
    MergePolicy,
    Node,
    PolicyKind,
    canonical_bytes,
    merge3,
    parse,
    read_document,
    serialize,
    validate,
)
from scenemerge.cli import main
from scenemerge.levelfile import FORMAT_VERSION, LevelDocument
from scenemerge.sim import (
    AddIndirectEdge,
    PRESETS,
    Reparent,
    SizeParams,
    apply_script,
    check_scenario,
    generate,
)
from conftest import fixture_path, fixture_text, merge3_manifests
from oracle import _descendants, conflict_key, expected_conflicts, sweep_ops
from test_format import documents

MANUAL = MergePolicy(PolicyKind.MANUAL)
PREFER_A = MergePolicy(PolicyKind.PREFER_A)
PREFER_B = MergePolicy(PolicyKind.PREFER_B)
POLICIES = (MANUAL, PREFER_A, PREFER_B)


def load(name: str) -> LevelGraph:
    return read_document(fixture_path(name)).graph


def report_pass(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_concurrent_room_edits_merge_cleanly():
    base, mine, theirs = load("fig3-base.lvl"), load("fig3-mine.lvl"), load("fig3-theirs.lvl")
    start = time.perf_counter()
    out = merge3(base, mine, theirs, MANUAL)
    elapsed = time.perf_counter() - start

    assert out.conflicts == []
    merged = out.merged
    for added in ("painting", "blinds", "dollhouse", "chimney", "chimney-smoke"):
        assert merged.has_node(added)
    assert merged.direct_parent("bunny") == "dollhouse"
    assert not merged.has_node("drawers")
    assert canonical_bytes(merged) == canonical_bytes(load("fig3-merged.lvl"))
    assert elapsed < 0.1
    report_pass("1", f"conflict-free room merge, exact expected bytes, {elapsed * 1000:.1f} ms")


def test_criterion_2_delete_modify_conflict_under_all_policies(tmp_path):
    paths = [str(fixture_path(n)) for n in ("fig4-base.lvl", "fig4-mine.lvl", "fig4-theirs.lvl")]

    out_manual = merge3(load("fig4-base.lvl"), load("fig4-mine.lvl"), load("fig4-theirs.lvl"), MANUAL)
    assert len(out_manual.conflicts) == 1
    assert isinstance(out_manual.conflicts[0], DeleteModifyConflict)
    exit_manual = main(["merge", *paths, "--policy", "manual",
                        "--output", str(tmp_path / "manual.lvl")])
    assert exit_manual == 1

    for policy_name, expected_doc, loser in (
        ("prefer-a", "fig4-merged-prefer-a.lvl", Branch.B),
        ("prefer-b", "fig4-merged-prefer-b.lvl", Branch.A),
    ):
        out_path = tmp_path / f"{policy_name}.lvl"
        exit_code = main(["merge", *paths, "--policy", policy_name,
                          "--output", str(out_path)])
        assert exit_code == 0
        assert out_path.read_text() == fixture_text(expected_doc)
        outcome = merge3(
            load("fig4-base.lvl"), load("fig4-mine.lvl"), load("fig4-theirs.lvl"),
            MergePolicy(PolicyKind(policy_name)),
        )
        assert len(outcome.dropped) == 1
        assert outcome.dropped[0].branch is loser
    report_pass("2", "one delete-vs-modify conflict; both preference documents exact")


def test_criterion_3_safety_suite_10k_scenarios():
    trials = 10_000
    failures = []
    for seed in range(trials):
        rng = random.Random(seed)
        size = SizeParams(
            nodes=rng.randint(5, 30),
            edges=0,  # filled below to stay satisfiable
            ops_per_branch=rng.randint(0, 6),
        )
        size = SizeParams(
            nodes=size.nodes,
            edges=size.nodes - 1 + rng.randint(0, max(2, size.nodes // 4)),
            ops_per_branch=size.ops_per_branch,
        )
        scenario = generate(seed, size, POLICIES[seed % 3])
        verdict = check_scenario(scenario)
        if not verdict.passed:
            failures.append((seed, verdict.violations))
            if len(failures) >= 5:
                break
    assert not failures, failures[:5]
    report_pass("3", f"{trials} seeded scenarios, all policies, zero violations")


def test_criterion_4_oracle_equivalence_exhaustive_sweep():
    from scenemerge.graph import PropertyValue

    D, I = DepKind.DIRECT, DepKind.INDIRECT
    base = LevelGraph(
        "root",
        [
            Node("root", "Scene"),
            Node("a", "GameObject", {"color": PropertyValue.text("red"),
                                     "size": PropertyValue.integer(2)}),
            Node("b", "Prop"),
            Node("c", "Gadget", {"power": PropertyValue.real(1.5)}),
            Node("d", "Widget"),
        ],
        [
            Edge("root", "a", D), Edge("a", "b", D), Edge("b", "d", D),
            Edge("root", "c", I), Edge("a", "d", I),
        ],
    )
    assert validate(base).ok

    ops = sweep_ops(base)
    versions = [apply_script(base, [op]) for op in ops]
    mismatches = []
    combos = 0
    for i, op_a in enumerate(ops):
        for j, op_b in enumerate(ops):
            combos += 1
            outcome = merge3(base, versions[i], versions[j], MANUAL)
            actual = {conflict_key(c) for c in outcome.conflicts}
            expected = expected_conflicts(base, op_a, op_b, MANUAL)
            if actual != expected:
                mismatches.append((op_a, op_b, expected, actual))
    assert not mismatches, mismatches[:5]
    report_pass("4", f"{combos} op-pair combinations match the independent oracle")


def _engineered_cycle_scenario(seed: int):
    """Base plus branch scripts whose union of edge edits must cycle."""
    rng = random.Random(seed)
    node_count = rng.randint(6, 12)
    base = generate(seed, SizeParams(nodes=node_count, edges=node_count - 1)).base

    ids = [n for n in base.node_ids() if n != base.root]
    pairs = []
    for u in ids:
        for v in ids:
            if u < v and v not in _descendants(base, u) and u not in _descendants(base, v):
                pairs.append((u, v))
    if not pairs:
        return None
    u, v = pairs[rng.randrange(len(pairs))]
    variant = seed % 3
    if variant == 0:
        script_a = (AddIndirectEdge(u, v),)
        script_b = (AddIndirectEdge(v, u),)
    elif variant == 1:
        script_a = (Reparent(u, v),)
        script_b = (Reparent(v, u),)
    else:
        bridge = next((w for w in ids if w not in (u, v)
                       and w not in _descendants(base, v)
                       and u not in _descendants(base, w)
                       and v not in _descendants(base, w)
                       and w not in _descendants(base, u)), None)
        if bridge is None:
            script_a = (AddIndirectEdge(u, v),)
            script_b = (AddIndirectEdge(v, u),)
        else:
            script_a = (AddIndirectEdge(u, bridge), AddIndirectEdge(bridge, v))
            script_b = (AddIndirectEdge(v, u),)
    return base, script_a, script_b


def _relabel(graph: LevelGraph, prefix: str) -> LevelGraph:
    def m(node_id: str) -> str:
        return prefix + node_id

    nodes = [Node(m(n.id), n.kind, dict(n.properties)) for n in graph.nodes()]
    edges = [Edge(m(e.parent), m(e.child), e.kind) for e in graph.edges()]
    return LevelGraph(m(graph.root), nodes, edges, graph.assets)


def test_criterion_5_cycle_repair_suite():
    ran = 0
    seed = 0
    while ran < 1_000:
        built = _engineered_cycle_scenario(seed)
        seed += 1
        if built is None:
            continue
        base, script_a, script_b = built
        try:
            version_a = apply_script(base, script_a)
            version_b = apply_script(base, script_b)
        except Exception:
            continue  # the random base rejected a script; engineer another
        ran += 1
        out = merge3(base, version_a, version_b, PREFER_B)
        assert validate(out.merged).ok
        assert out.removed_cycle_edges, "the engineered union must have cycled"

        # every removed edge lay on a cycle at its removal step, and a
        # Direct edge was only removed from a component with no Indirect
        # candidate
        removed = out.removed_cycle_edges
        for index, edge in enumerate(removed):
            edges = {(e.parent, e.child): e.kind for e in out.merged.edges()}
            for later in removed[index:]:
                edges[(later.parent, later.child)] = later.kind
            graph_at_step = LevelGraph(
                out.merged.root,
                out.merged.nodes(),
                [Edge(p, c, k) for (p, c), k in edges.items()],
            )

            from scenemerge.graph import strongly_connected_components

            assert edge.parent in _descendants(graph_at_step, edge.child), (
                "removed edge was not on a cycle"
            )
            if edge.kind is DepKind.DIRECT:
                comps = strongly_connected_components(
                    graph_at_step.node_ids(),
                    lambda n: [c for c, _ in graph_at_step.children(n)],
                )
                comp = next(set(c) for c in comps if edge.parent in c)
                internal_indirect = [
                    e for e in graph_at_step.edges()
                    if e.parent in comp and e.child in comp and e.kind is DepKind.INDIRECT
                ]
                assert not internal_indirect, "Direct removed although Indirect existed"

        # determinism under order-preserving relabeling
        relabeled = merge3(
            _relabel(base, "z-"), _relabel(version_a, "z-"), _relabel(version_b, "z-"),
            PREFER_B,
        )
        expected = [("z-" + e.parent, "z-" + e.child, e.kind) for e in removed]
        actual = [(e.parent, e.child, e.kind) for e in relabeled.removed_cycle_edges]
        assert actual == expected
    report_pass("5", f"{ran} engineered cyclic merges repaired deterministically")


def test_criterion_6_scaled_performance():
    results = []
    for preset_name, bound in (("lab", 2.0), ("planets", 1.5)):
        preset = PRESETS[preset_name]
        scenario = generate(2026, preset, PREFER_B)
        version_a = apply_script(scenario.base, scenario.script_a)
        version_b = apply_script(scenario.base, scenario.script_b)
        out = merge3(scenario.base, version_a, version_b, PREFER_B)
        assert out.stats.ancestor_nodes == preset.nodes
        assert out.stats.ancestor_edges == preset.edges
        assert out.stats.diff_a_edited == preset.edits_a
        assert out.stats.diff_b_edited == preset.edits_b
        assert out.stats.wall_time_s < bound, (
            f"{preset_name} merge took {out.stats.wall_time_s:.2f}s (bound {bound}s)"
        )
        # merged size within 10% of the construction's own targets
        adds = sum(1 for op in scenario.script_a + scenario.script_b
                   if type(op).__name__ == "AddNode")
        expected_nodes = preset.nodes + adds
        expected_edges = preset.edges + adds
        assert abs(out.stats.merged_nodes - expected_nodes) <= 0.1 * expected_nodes
        assert abs(out.stats.merged_edges - expected_edges) <= 0.1 * expected_edges
        results.append(f"{preset_name} {out.stats.wall_time_s:.2f}s")
    report_pass("6", "; ".join(results))


# The directory holding the scenemerge package this test process imported.
# Git's driver process gets it on PYTHONPATH, so it runs the same code whether
# or not scenemerge is installed (an installed copy is shadowed by it).
_PACKAGE_ROOT = str(Path(scenemerge.__file__).resolve().parents[1])


def _git(repo: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True,
        text=True,
        env={
            "GIT_AUTHOR_NAME": "test", "GIT_AUTHOR_EMAIL": "t@example.com",
            "GIT_COMMITTER_NAME": "test", "GIT_COMMITTER_EMAIL": "t@example.com",
            "HOME": str(repo),
            "PATH": os.environ["PATH"],
            "PYTHONPATH": _PACKAGE_ROOT,
        },
    )


def _git_ok(repo: Path, *args: str) -> None:
    proc = _git(repo, *args)
    assert proc.returncode == 0, f"git {' '.join(args)}: {proc.stderr}"


def _driver_command() -> str:
    exe = shutil.which("scenemerge")
    if exe:
        return exe
    return f"{sys.executable} -m scenemerge.cli"


def _driver_repo(repo: Path, policy: str, driver: str) -> None:
    """A new repository whose ``.lvl`` files merge through the ``driver`` command."""
    repo.mkdir()
    _git_ok(repo, "init", "-q", "-b", "main")
    (repo / ".gitattributes").write_text("*.lvl merge=scenemerge\n")
    (repo / "scenemerge.conf").write_text(f"policy {policy}\n")
    _git_ok(repo, "config", "merge.scenemerge.name", "level merge")
    _git_ok(repo, "config", "merge.scenemerge.driver", driver)


@pytest.mark.skipif(shutil.which("git") is None, reason="git not available")
def test_criterion_7_merge_driver_conformance(tmp_path):
    driver = f"{_driver_command()} merge-driver %O %A %B --report merge.lvlreport"

    def setup_repo(repo: Path, policy: str) -> None:
        _driver_repo(repo, policy, driver)

    # clean concurrent edits merge via the registered driver
    repo = tmp_path / "clean"
    setup_repo(repo, "manual")
    shutil.copy(fixture_path("fig3-base.lvl"), repo / "level.lvl")
    _git_ok(repo, "add", ".")
    _git_ok(repo, "commit", "-qm", "base")
    _git_ok(repo, "checkout", "-qb", "other")
    shutil.copy(fixture_path("fig3-theirs.lvl"), repo / "level.lvl")
    _git_ok(repo, "commit", "-aqm", "their edits")
    _git_ok(repo, "checkout", "-q", "main")
    shutil.copy(fixture_path("fig3-mine.lvl"), repo / "level.lvl")
    _git_ok(repo, "commit", "-aqm", "my edits")
    proc = _git(repo, "merge", "other", "-m", "merged")
    assert proc.returncode == 0, proc.stderr
    merged = read_document(repo / "level.lvl").graph
    assert validate(merged).ok
    assert merged.has_node("painting") and merged.has_node("dollhouse")

    # a conflicting pair under manual policy: driver exits 1, git reports a
    # conflict, the file stays parseable, and the report names the conflict
    repo = tmp_path / "conflicted"
    setup_repo(repo, "manual")
    shutil.copy(fixture_path("fig4-base.lvl"), repo / "level.lvl")
    _git_ok(repo, "add", ".")
    _git_ok(repo, "commit", "-qm", "base")
    _git_ok(repo, "checkout", "-qb", "other")
    shutil.copy(fixture_path("fig4-theirs.lvl"), repo / "level.lvl")
    _git_ok(repo, "commit", "-aqm", "material edit")
    _git_ok(repo, "checkout", "-q", "main")
    shutil.copy(fixture_path("fig4-mine.lvl"), repo / "level.lvl")
    _git_ok(repo, "commit", "-aqm", "delete planet")
    proc = _git(repo, "merge", "other", "-m", "merged")
    assert proc.returncode != 0
    merged = read_document(repo / "level.lvl").graph  # parseable despite conflict
    assert validate(merged).ok
    from report_reader import parse_report

    report = parse_report((repo / "merge.lvlreport").read_text())
    assert [c.kind for c in report.conflicts] == ["delete-modify"]
    assert report.conflicts[0].node == "planet-front"
    report_pass("7", "registered driver merges cleanly and signals conflicts")


@pytest.mark.skipif(shutil.which("git") is None, reason="git not available")
def test_criss_cross_history_merges_through_a_virtual_ancestor(tmp_path):
    """Each branch merges the other's first commit and resolves the fig4
    conflict its own way, so the final merge has two merge bases. Git then
    calls the driver to merge the two bases into a virtual ancestor (its
    delete/modify conflict held at ancestor state), and again for the final
    merge against it."""

    def run(repo: Path) -> tuple[list[str], int, bytes, str]:
        # the report and the driver's exit codes are kept outside the work tree
        log, report = repo.parent / f"{repo.name}.codes", repo.parent / f"{repo.name}.lvlreport"
        _driver_repo(
            repo, "manual",
            f"{_driver_command()} merge-driver %O %A %B --report {shlex.quote(str(report))}; "
            f"code=$?; echo $code >> {shlex.quote(str(log))}; exit $code",
        )

        def commit(fixture: str, message: str) -> None:
            shutil.copy(fixture_path(fixture), repo / "level.lvl")
            _git_ok(repo, "add", ".")
            _git_ok(repo, "commit", "-qm", message)

        commit("fig4-base.lvl", "base")
        _git_ok(repo, "checkout", "-qb", "other")
        commit("fig4-theirs.lvl", "material edit")
        _git_ok(repo, "checkout", "-q", "main")
        commit("fig4-mine.lvl", "delete planet")
        first_mine = _git(repo, "rev-parse", "HEAD").stdout.strip()
        assert _git(repo, "merge", "other", "-m", "merge").returncode != 0
        commit("fig4-merged-prefer-a.lvl", "keep the deletion")
        _git_ok(repo, "checkout", "-q", "other")
        assert _git(repo, "merge", first_mine, "-m", "merge").returncode != 0
        commit("fig4-merged-prefer-b.lvl", "keep the edit")
        _git_ok(repo, "checkout", "-q", "main")
        bases = _git(repo, "merge-base", "--all", "main", "other").stdout.split()
        assert len(bases) == 2

        proc = _git(repo, "merge", "other", "-m", "final")
        level = (repo / "level.lvl").read_bytes()
        return log.read_text().split(), proc.returncode, level, report.read_text()

    codes, returncode, merged_bytes, report = run(tmp_path / "first")
    # two resolved merges, then the virtual ancestor and the final merge:
    # each meets the delete/modify conflict and exits 1 with a loadable level
    assert codes == ["1", "1", "1", "1"]
    assert returncode != 0
    merged = parse(merged_bytes.decode("utf-8")).graph
    assert validate(merged).ok
    from report_reader import parse_report

    assert [c.kind for c in parse_report(report).conflicts] == ["delete-modify"]
    # the driver's inner merge is the ancestor the final merge ran against
    virtual = merge3(load("fig4-base.lvl"), load("fig4-mine.lvl"), load("fig4-theirs.lvl"))
    final = merge3(
        virtual.merged, load("fig4-merged-prefer-a.lvl"), load("fig4-merged-prefer-b.lvl")
    )
    assert merged_bytes == canonical_bytes(final.merged)

    again = run(tmp_path / "second")
    assert again[:3] == (codes, returncode, merged_bytes)


@settings(max_examples=1_000, deadline=None, derandomize=True)
@given(documents())
def test_criterion_8_format_round_trip(doc):
    text = serialize(doc)
    again = parse(text)
    assert again == doc
    assert serialize(again) == text


def test_criterion_8_report_line():
    report_pass("8", "1000 generated documents round-tripped byte-exactly")


def test_criterion_9_code_asset_gate(tmp_path):
    from scenemerge.assets import BlobStore

    store = BlobStore(tmp_path / "blobs")
    good = store.put(b"health = 100\n")
    broken = store.put(b"def attack(:\n")
    fixed = store.put(b"health = 250\n")
    validators = {"py": [sys.executable, "-m", "py_compile"]}

    manifest, _, dropped = merge3_manifests(
        {"ai.py": good}, {"ai.py": broken}, {"ai.py": good},
        store, PREFER_A, validators=validators,
    )
    assert manifest["ai.py"] == good  # failing blob never admitted
    assert broken not in manifest.values()
    assert any("rejected by validator" in d.description for d in dropped)

    manifest, _, dropped = merge3_manifests(
        {"ai.py": good}, {"ai.py": fixed}, {"ai.py": good},
        store, PREFER_A, validators=validators,
    )
    assert manifest["ai.py"] == fixed
    assert not dropped
    report_pass("9", "failing validator blocks the blob; passing validator admits it")
