"""The deletion phase's indexed scans against the full scans they replaced.

The deletion phase walks the other branch's additions below a scope with
`graph._closure`, over an index built from the diff, and finds the
survivors moved into that reach in another such index. The functions
below are the full-level scans they replaced, kept here as the oracle:
on seeded random-op scenarios both must give exactly the same lists.
"""

from __future__ import annotations

import random

from scenemerge.diff import DiffResult, classify
from scenemerge.graph import _closure, direct_subtree
from scenemerge.merge import _by_new_direct_parent
from scenemerge.sim import SizeParams, apply_script, generate

SIZE = SizeParams(nodes=300, edges=340, ops_per_branch=30)


def full_scan_anchored_adds(other: DiffResult, scope: set[str]) -> list[str]:
    """Fixed point over every addition: anchored when its parent is in scope or anchored."""
    parent_of = {a: other.version.direct_parent(a) for a in other.added}
    anchored: set[str] = set()
    changed = True
    while changed:
        changed = False
        for added, parent in parent_of.items():
            if added in anchored or parent is None:
                continue
            if parent in scope or parent in anchored:
                anchored.add(added)
                changed = True
    return sorted(anchored)


def full_scan_reparent_ins(other: DiffResult, target_set: set[str], scope: set[str]) -> list[str]:
    """Every surviving ancestor node whose new Direct parent lies in the targets."""
    result = []
    for node_id in other.ancestor.node_ids():
        if node_id in scope or not other.version.has_node(node_id):
            continue
        old = other.ancestor.direct_parent(node_id)
        new = other.version.direct_parent(node_id)
        if new is not None and new != old and new in target_set:
            result.append(node_id)
    return sorted(result)


def _scopes(diff: DiffResult, rng: random.Random):
    """The merge's own deletion scopes (one per deleted node whose parent
    survives), then Direct subtrees of random ancestor nodes."""
    for root_id in sorted(diff.deleted):
        if diff.ancestor.direct_parent(root_id) not in diff.deleted:
            yield direct_subtree(diff.ancestor, root_id) & diff.deleted
    for node_id in rng.sample(diff.ancestor.node_ids(), 20):
        yield direct_subtree(diff.ancestor, node_id)


def test_indexed_scans_match_full_scans_on_random_scenarios():
    anchored_hits = reparent_hits = 0
    for seed in range(30):
        scenario = generate(seed, SIZE)
        version_a = apply_script(scenario.base, scenario.script_a)
        version_b = apply_script(scenario.base, scenario.script_b)
        diff_a = classify(scenario.base, version_a)
        diff_b = classify(scenario.base, version_b)
        rng = random.Random(seed)
        for diff, other in ((diff_a, diff_b), (diff_b, diff_a)):
            added_children = _by_new_direct_parent(other, other.added)
            reparented_into = _by_new_direct_parent(other, other.intrinsic)
            for scope in _scopes(diff, rng):
                anchored = sorted(_closure(scope, added_children) - scope)
                assert anchored == full_scan_anchored_adds(other, scope), seed
                targets = scope | set(anchored)
                # the lookup `_apply_deletions` makes for its `touched` set
                reparent_ins = sorted(
                    node_id
                    for target in targets
                    for node_id, _ in reparented_into.get(target, ())
                    if node_id not in scope
                )
                assert reparent_ins == full_scan_reparent_ins(other, targets, scope), seed
                anchored_hits += bool(anchored)
                reparent_hits += bool(reparent_ins)
    # the comparison means little unless both scans found something often
    assert anchored_hits >= 40 and reparent_hits >= 40, (anchored_hits, reparent_hits)
