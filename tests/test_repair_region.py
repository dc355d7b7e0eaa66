"""Structural repair over the edited region against the whole-level passes.

`_cascade_delete`, `_repair_cycles_state` and `_reconnect_orphans` look
only at what the merge changed: a backward walk from a severed survivor
to the root, and the forward closure of the nodes whose in-edges the
merge set or removed. The functions below are the whole-level versions
they replaced, kept here as the oracle: on seeded random working graphs
with injected cycles, orphans and severed subtrees both sides must leave
the same edges and report the same removed cycle edges and dropped
edits. A generated 10k-node merge with a handful of edits then checks
that the region stays small.
"""

from __future__ import annotations

import random

from scenemerge import merge as merge_module
from scenemerge.diff import classify
from scenemerge.graph import DepKind, Edge, LevelGraph, Node, direct_subtree
from scenemerge.merge import (
    Branch,
    DroppedEdit,
    MergePolicy,
    PolicyKind,
    _alive_chain,
    _cascade_delete,
    _reconnect_orphans,
    _repair_cycles_state,
    _State,
    merge3,
)
from scenemerge.sim import SizeParams, apply_script, generate

D = DepKind.DIRECT
I = DepKind.INDIRECT


# -- the whole-level oracles ------------------------------------------------------


def _grow(state: _State, reached: set[str], start: str) -> None:
    if start in reached:
        return
    reached.add(start)
    frontier = [start]
    while frontier:
        for child, _ in state.out_.get(frontier.pop(), ()):
            if child not in reached and child in state.nodes:
                reached.add(child)
                frontier.append(child)


def _reachable(state: _State) -> set[str]:
    reached: set[str] = set()
    if state.root in state.nodes:
        _grow(state, reached, state.root)
    return reached


def full_scan_cascade_delete(state: _State, root_id: str, scope: set[str], branch: Branch) -> None:
    """Remove the scope, then relink each severed survivor the root no longer
    reaches, against one reached set over the whole level."""
    severed: dict[str, DepKind] = {}
    for member in sorted(scope):
        if member not in state.nodes:
            continue
        for child, kind in state.out_.get(member, ()):
            if child not in scope and severed.get(child) is not D:
                severed[child] = kind
        state.remove_node(member)
    if not severed:
        return
    reached = _reachable(state)
    chain = _alive_chain(state, root_id)
    for child in sorted(severed):
        if child not in state.nodes or child in reached:
            continue
        target = next((t for t in chain if t != child), state.root)
        if target == child:
            continue
        state.set_edge(target, child, severed[child], owner=branch, relink=True)
        _grow(state, reached, child)


def _component_heights(vertices, successors, root) -> dict[str, int]:
    """Longest-path distance from the root on the condensation."""
    vertex_list = list(vertices)
    components = merge_module.strongly_connected_components(vertex_list, successors)
    comp_of = {v: i for i, comp in enumerate(components) for v in comp}
    comp_succ: list[set[int]] = [set() for _ in components]
    for v in vertex_list:
        for w in successors(v):
            if w in comp_of and comp_of[w] != comp_of[v]:
                comp_succ[comp_of[v]].add(comp_of[w])
    heights: list[int | None] = [None] * len(components)
    if root in comp_of:
        heights[comp_of[root]] = 0
    for ci in reversed(range(len(components))):
        h = heights[ci]
        if h is None:
            continue
        for cj in comp_succ[ci]:
            if heights[cj] is None or heights[cj] < h + 1:
                heights[cj] = h + 1
    return {v: heights[comp_of[v]] or 0 for v in vertex_list}


def full_scan_repair_cycles(state: _State) -> tuple[list[Edge], list[DroppedEdit]]:
    """SCCs over every node; the Indirect edge of lowest source height first."""
    removed: list[Edge] = []
    dropped: list[DroppedEdit] = []
    while True:
        node_ids = sorted(state.nodes)

        def successors(v: str) -> list[str]:
            return sorted(c for c, _ in state.out_.get(v, ()))

        components = merge_module.strongly_connected_components(node_ids, successors)
        cyclic = [
            comp
            for comp in components
            if len(comp) > 1 or state.edge_kind(comp[0], comp[0]) is not None
        ]
        if not cyclic:
            return removed, dropped
        members = set(min(cyclic, key=min))
        internal = [(p, c) for p in members for c, _ in state.out_.get(p, ()) if c in members]
        indirect = [pc for pc in internal if state.edge_kind(*pc) is I]
        heights = _component_heights(node_ids, successors, state.root)
        parent, child = min(indirect or internal, key=lambda pc: (heights[pc[0]], pc))
        kind = state.edge_kind(parent, child)
        owner = state.owners.get((parent, child))
        state.remove_edge(parent, child)
        removed.append(Edge(parent, child, kind))
        if owner is not None:
            dropped.append(
                DroppedEdit(
                    owner, child, f"edge {parent} -> {child} ({kind.value}) removed to break a cycle"
                )
            )


def full_scan_reconnect_orphans(state: _State) -> None:
    reached = _reachable(state)
    for node_id in sorted(state.nodes):
        if node_id in reached or node_id == state.root:
            continue
        state.set_edge(state.root, node_id, I)
        _grow(state, reached, node_id)


# -- seeded random working graphs ---------------------------------------------------


def _state_of(level: LevelGraph) -> _State:
    """A merge in progress of two unedited branches: the level as its working
    graph. Some levels here leave nodes unreachable, so none is validated."""
    unedited = classify(level, level, validated=True)
    return _State(unedited, unedited, MergePolicy())


def _random_level(rng: random.Random) -> LevelGraph:
    """An acyclic level: a Direct tree plus forward references in creation
    order, with ids drawn at random so that sorted order is not topological."""
    n = rng.randint(8, 60)
    ids = [f"n{label:02d}" for label in rng.sample(range(100), n)]
    edges = {(ids[rng.randrange(i)], ids[i]): D for i in range(1, n)}
    for _ in range(rng.randint(0, n // 2)):
        lo, hi = sorted(rng.sample(range(n), 2))
        edges.setdefault((ids[lo], ids[hi]), I)
    nodes = {i: Node(i, "Scene" if i == ids[0] else "X") for i in ids}
    return LevelGraph._of(ids[0], nodes, edges, {})


def _random_state(rng: random.Random, ancestor: LevelGraph, doomed: str) -> _State:
    """The ancestor with added nodes and random edge and node edits applied
    through the working graph's own methods, so its region bookkeeping holds.

    Some states also cut the doomed node's parent off the root, so that a
    relink lands under a node the root does not reach.
    """
    state = _state_of(ancestor)
    added = [f"x{j}" for j in range(rng.randint(0, 4))]
    for x in added:
        state.set_node(Node(x, "X"))
    for x in added:
        if rng.random() < 0.6:
            state.set_edge(rng.choice(sorted(state.nodes)), x, rng.choice((D, I)))
    for _ in range(rng.randint(0, 5)):
        # may close a cycle, a self-loop included
        parent, child = rng.choice(sorted(state.nodes)), rng.choice(sorted(state.nodes))
        if child != state.root:
            state.set_edge(parent, child, rng.choice((D, I)), owner=rng.choice((None, *Branch)))
    for _ in range(rng.randint(0, 3)):
        pairs = sorted(state.edges)
        if pairs:
            state.remove_edge(*rng.choice(pairs))
    for _ in range(rng.randint(0, 2)):
        victims = sorted(set(state.nodes) - {state.root})
        if victims:
            state.remove_node(rng.choice(victims))
    parent = ancestor.direct_parent(doomed)
    if parent != state.root and rng.random() < 0.4:
        for grandparent, _ in list(state.in_.get(parent, ())):
            state.remove_edge(grandparent, parent)
    return state


def _clone(state: _State) -> _State:
    copy = _State(*state.diffs, state.policy)
    copy.nodes = dict(state.nodes)
    copy.edges = dict(state.edges)
    # the clone owns copies of the adjacency dicts the state has written
    copy.out_, copy.in_ = dict(state.out_), dict(state.in_)
    for table, owned, owned_copy in zip((copy.out_, copy.in_), state.owned, copy.owned):
        for node_id, adjacency in owned.items():
            owned_copy[node_id] = dict(adjacency)
            table[node_id] = owned_copy[node_id].items()
    copy.relinks = set(state.relinks)
    copy.owners = dict(state.owners)
    copy.ids, copy.pairs = set(state.ids), set(state.pairs)
    return copy


def _snapshot(state: _State):
    edges = sorted((p, c, k.value) for p, out in state.out_.items() for c, k in out)
    return sorted(state.nodes), edges, sorted(state.relinks), sorted(state.owners.items())


def test_region_repair_matches_whole_level_repair_on_random_states():
    relinks = unreached_targets = cycles = orphans = 0
    for seed in range(300):
        rng = random.Random(seed)
        ancestor = _random_level(rng)
        doomed = rng.choice([n for n in ancestor.node_ids() if n != ancestor.root])
        state = _random_state(rng, ancestor, doomed)

        scope = direct_subtree(ancestor, doomed)
        branch = rng.choice(list(Branch))
        old, new = _clone(state), _clone(state)
        full_scan_cascade_delete(old, doomed, scope, branch)
        _cascade_delete(new, doomed, scope, branch)
        assert _snapshot(new) == _snapshot(old), seed
        relinks += bool(new.relinks)
        reached = _reachable(old)
        unreached_targets += any(parent not in reached for parent, _ in old.relinks)

        old_cycles = full_scan_repair_cycles(old)
        _repair_cycles_state(new)
        assert (new.removed_edges, new.dropped) == old_cycles, seed
        assert _snapshot(new) == _snapshot(old), seed
        cycles += bool(old_cycles[0])

        before = len(_reachable(old))
        full_scan_reconnect_orphans(old)
        _reconnect_orphans(new)
        assert _snapshot(new) == _snapshot(old), seed
        orphans += len(old.nodes) > before
    # the seeds exercise every repair
    hits = (relinks, unreached_targets, cycles, orphans)
    assert min(hits) > 10, hits


def test_reaches_root_walks_back_to_the_root_or_a_via_member():
    #   root -> a -> b      c <-> d (cut off)      e -> d
    nodes = ["root", "a", "b", "c", "d", "e"]
    state = _state_of(
        LevelGraph._of(
            "root",
            {n: Node(n, "Scene" if n == "root" else "X") for n in nodes},
            {("root", "a"): D, ("a", "b"): D},
            {},
        )
    )
    state.set_edge("c", "d", D)
    state.set_edge("d", "c", I)
    state.set_edge("e", "d", I)
    assert state.reaches_root("root") and state.reaches_root("b")
    # a cycle the root does not reach ends the walk without an answer
    assert not state.reaches_root("c") and not state.reaches_root("d")
    assert state.reaches_root("c", via={"e"}) and state.reaches_root("d", via={"d"})
    assert not state.reaches_root("c", via={"a", "b"})
    state.set_edge("b", "e", I)
    assert state.reaches_root("c")
    state.remove_edge("a", "b")
    assert not state.reaches_root("c") and state.reaches_root("c", via={"b"})


def test_edited_region_is_the_forward_closure_of_touched_nodes():
    for seed in range(200):
        rng = random.Random(seed)
        ancestor = _random_level(rng)
        doomed = rng.choice([n for n in ancestor.node_ids() if n != ancestor.root])
        state = _random_state(rng, ancestor, doomed)
        # the seeds: the children of the pairs set or removed, and the
        # nodes not in the ancestor, kept to present nodes
        seeds = {child for _, child in state.pairs}
        seeds |= set(state.nodes) - set(ancestor.node_ids())
        expected: set[str] = set()
        for node_id in seeds & set(state.nodes):
            _grow(state, expected, node_id)
        region = state.edited_region()
        assert region == expected, seed
        # outside the region every node keeps the ancestor's in-edges, and
        # so still reaches the root
        outside = set(state.nodes) - region
        for node_id in outside:
            assert dict(state.in_.get(node_id, ())) == dict(ancestor.parents(node_id)), seed
        assert outside <= _reachable(state), seed


# -- no merge walks the whole level ----------------------------------------------------


class _CountingMembership:
    """Counts membership tests: `_State.reaches_root` tests each node it
    takes off its frontier against ``via`` once."""

    def __init__(self, inner, counts: dict[str, int]):
        self.inner, self.counts = inner, counts

    def __contains__(self, item) -> bool:
        self.counts["visited"] += 1
        return item in self.inner


def test_a_few_edits_on_a_10k_level_stay_off_the_rest_of_it(monkeypatch):
    counts = {"scc_vertices": 0, "visited": 0, "queries": 0}
    scc = merge_module.strongly_connected_components
    reaches_root = _State.reaches_root

    def counting_scc(vertices, successors):
        vertices = list(vertices)
        counts["scc_vertices"] += len(vertices)
        return scc(vertices, successors)

    def counting_reaches_root(self, node_id, via=()):
        counts["queries"] += 1
        return reaches_root(self, node_id, _CountingMembership(via, counts))

    monkeypatch.setattr(merge_module, "strongly_connected_components", counting_scc)
    monkeypatch.setattr(_State, "reaches_root", counting_reaches_root)

    # seed 2 deletes a node with a survivor below it, so the reachability
    # helper runs
    size = SizeParams(nodes=10_000, edges=11_000, ops_per_branch=5)
    scenario = generate(2, size)
    version_a = apply_script(scenario.base, scenario.script_a)
    version_b = apply_script(scenario.base, scenario.script_b)
    outcome = merge3(scenario.base, version_a, version_b, MergePolicy(PolicyKind.PREFER_A))

    level = scenario.base.node_count
    assert level == 10_000 and counts["queries"] >= 1
    assert 0 < counts["scc_vertices"] < level // 10, counts
    assert 0 < counts["visited"] < level // 10, counts
