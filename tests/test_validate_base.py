"""`validate(graph, base=...)` against the whole check, and merge3's input errors.

A branch is checked against its valid ancestor from the differences
only. These tests break random valid branches in every way a level can
be invalid and require the same report as `validate(graph)`, built both
with fresh adjacency lists and as a patch of the ancestor that records
its changed ids and pairs, as `parse(text, base=...)` builds it, and
read from its text against the ancestor's canonical read, whose ref and
asset index comes from its lines. Deletions leave refs and asset refs
dangling on unchanged nodes, on edited ones, and on deleted ones. A
merged level is checked against the ancestor through the patch `merge3`
records, including levels whose merge repaired a cycle, an orphan or a
manifest entry, and broken the same ways. Valid inputs, holder breaks
included, merge to a valid level under every policy, and to the same
bytes with the branches swapped.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemerge import (
    DepKind,
    Edge,
    GraphMismatchError,
    InvalidGraphError,
    LevelGraph,
    MergePolicy,
    Node,
    PolicyKind,
    ParseError,
    PropertyValue,
    SceneMergeError,
    merge3,
    parse,
    validate,
)
from scenemerge.diff import check_same_level
from scenemerge.graph import _Patch
from scenemerge.levelfile import FORMAT_VERSION, LevelDocument, serialize
from scenemerge.sim import SizeParams, apply_script, generate
from conftest import repairing_merges

SIZE = SizeParams(nodes=40, edges=48, ops_per_branch=6)

BREAKS = (
    "cycle",
    "orphan",
    "dangling-edge",
    "second-direct-parent",
    "root-in-edge",
    "ref-to-deleted",
    "asset-dropped",
    "kind-change",
    "add-add-kind",
)
# deletions that leave a ref or asset ref on an edited or deleted holder;
# a merge can keep such a holder (at its ancestor state, say) while the
# node or asset it names is deleted, and then restores what it names
HOLDER_BREAKS = ("ref-dropped-with-target", "holder-deleted-with-target", "asset-dropped-holder-edited")


class _Level:
    """Mutable tables of one level, for breaking it on purpose."""

    def __init__(self, graph: LevelGraph):
        self.root = graph.root
        self.nodes = dict(graph._nodes)
        self.edges = dict(graph._edges)
        self.assets = dict(graph.assets)

    def parents(self, node_id):
        return [p for (p, c) in self.edges if c == node_id]

    def ancestors(self, node_id):
        seen, frontier = set(), [node_id]
        while frontier:
            for parent in self.parents(frontier.pop()):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return seen

    def graph(self, base: LevelGraph | None = None) -> LevelGraph:
        if base is None:
            edges = [Edge(p, c, k) for (p, c), k in self.edges.items()]
            return LevelGraph(self.root, self.nodes.values(), edges, self.assets)
        # every node at neither end of a changed pair keeps the base's
        # lists, and the graph records the changed ids and pairs
        patch = _Patch(base)
        for node_id in self.nodes.keys() | base._nodes.keys():
            node = self.nodes.get(node_id)
            if node is None:  # removed, its edges left as they are
                patch.nodes.pop(node_id)
                patch.ids.add(node_id)
            elif node is not base._nodes.get(node_id):
                patch.set_node(node)
        for pair in self.edges.keys() | base._edges.keys():
            kind = self.edges.get(pair)
            if kind is None:
                patch.remove_edge(*pair)
            elif kind is not base._edges.get(pair):
                patch.set_edge(*pair, kind)
        patch.root, patch.assets = self.root, dict(self.assets)
        return patch.to_graph()


def _with(node: Node, key: str, value: PropertyValue) -> Node:
    return Node(node.id, node.kind, {**node.properties, key: value})


def _break(name: str, level: _Level, base: _Level, rng: random.Random, tag: str) -> None:
    """Apply one edit to ``level``, invalidating unless it drops the dangling
    ref it makes; ``base`` gains what it must share."""
    ids = sorted(level.nodes)
    others = [n for n in ids if n != level.root]
    shared = [n for n in others if base.nodes.get(n) is level.nodes[n]]
    leaves = [n for n in others if n in base.nodes and not any(p == n for p, _ in level.edges)]

    def delete(node_id):
        del level.nodes[node_id]
        for parent in level.parents(node_id):
            del level.edges[parent, node_id]
    if name == "cycle":
        for child in rng.sample(others, len(others)):
            above = sorted(level.ancestors(child) - {level.root})
            if above:
                level.edges[child, rng.choice(above)] = DepKind.INDIRECT
                return
    elif name == "orphan" and others:
        node_id = rng.choice(others)
        for parent in level.parents(node_id):
            del level.edges[parent, node_id]
    elif name == "dangling-edge":
        pair = (rng.choice(ids), "ghost") if rng.random() < 0.5 else ("ghost", rng.choice(others or ids))
        level.edges[pair] = DepKind.INDIRECT
    elif name == "second-direct-parent":
        for child in rng.sample(others, len(others)):
            parents = level.parents(child)
            if any(level.edges[p, child] is DepKind.DIRECT for p in parents):
                candidates = [n for n in ids if n != child and n not in parents]
                if candidates:
                    level.edges[rng.choice(candidates), child] = DepKind.DIRECT
                    return
    elif name == "root-in-edge" and others:
        level.edges[rng.choice(others), level.root] = DepKind.INDIRECT
    elif name in ("ref-to-deleted", "ref-dropped-with-target"):
        # an ancestor node refers to a leaf the branch deletes; the node is
        # unchanged, or the branch's edit of it drops the ref (valid)
        holders = [n for n in shared if n not in leaves]
        if leaves and holders:
            target, holder = rng.choice(leaves), rng.choice(holders)
            old = level.nodes[holder]
            base.nodes[holder] = level.nodes[holder] = _with(old, "link", PropertyValue.node_ref(target))
            if name == "ref-dropped-with-target":
                level.nodes[holder] = _with(old, "note", PropertyValue.text(tag))
            delete(target)
    elif name == "holder-deleted-with-target":
        # an ancestor leaf refers to another, and the branch deletes both (valid)
        holders = [n for n in shared if n in leaves]
        if len(holders) > 1:
            holder, target = rng.sample(holders, 2)
            base.nodes[holder] = _with(level.nodes[holder], "link", PropertyValue.node_ref(target))
            delete(holder)
            delete(target)
    elif name in ("asset-dropped", "asset-dropped-holder-edited"):
        # an ancestor node uses an asset the branch's manifest drops; the
        # node is unchanged, or edited and still using it
        kept = sorted(level.assets.keys() & base.assets.keys())
        if kept and shared:
            asset_id, holder = rng.choice(kept), rng.choice(shared)
            node = _with(level.nodes[holder], "skin", PropertyValue.asset_ref(asset_id))
            level.nodes[holder] = base.nodes[holder] = node
            if name == "asset-dropped-holder-edited":
                level.nodes[holder] = _with(node, "note", PropertyValue.text(tag))
            del level.assets[asset_id]
    elif name == "kind-change" and shared:
        old = level.nodes[rng.choice(shared)]
        level.nodes[old.id] = Node(old.id, old.kind + "X", old.properties)
    elif name == "add-add-kind":
        # both branches add "twin"; each tags its kind
        level.nodes["twin"] = Node("twin", f"Kind{tag}")
        level.edges[level.root, "twin"] = DepKind.DIRECT


@st.composite
def scenarios(draw, breaks=BREAKS):
    """A valid ancestor and two branches, each broken by a few random edits."""
    sc = generate(draw(st.integers(1, 10_000)), SIZE)
    base = _Level(sc.base)
    branches = [_Level(apply_script(sc.base, script)) for script in (sc.script_a, sc.script_b)]
    for level, tag in zip(branches, "AB"):
        rng = random.Random(draw(st.integers(0, 2**32)))
        for name in draw(st.lists(st.sampled_from(breaks), max_size=3)):
            _break(name, level, base, rng, tag)
    ancestor = base.graph()
    assert validate(ancestor).ok
    return ancestor, branches


@settings(max_examples=300, deadline=None)
@given(scenarios(BREAKS + HOLDER_BREAKS))
def test_validate_against_the_ancestor_equals_the_whole_check(scenario):
    ancestor, branches = scenario
    read = parse(_text(ancestor))
    for level in branches:
        versions = [(level.graph(), ancestor), (level.graph(base=ancestor), ancestor)]
        try:
            versions.append((parse(_text(level.graph()), base=read).graph, read.graph))
        except ParseError:
            pass  # a break the text cannot hold, such as a dangling edge
        for version, base in versions:
            assert validate(version, base=base) == validate(version)


def _text(graph: LevelGraph) -> str:
    return serialize(LevelDocument(FORMAT_VERSION, graph))


def _check_merged(ancestor, mine, theirs, policy, rng, names) -> None:
    """The merged level, and the merged level broken by ``names``, validate as whole."""
    merged = merge3(ancestor, mine, theirs, MergePolicy(policy)).merged
    assert merged._patch[0]() is ancestor  # read through merge3's own record
    assert validate(merged, base=ancestor) == validate(merged)
    base, level = _Level(ancestor), _Level(merged)
    for name in names:
        _break(name, level, base, rng, "A")
    ancestor = base.graph()
    assert validate(ancestor).ok
    broken = level.graph(base=ancestor)
    assert validate(broken, base=ancestor) == validate(broken)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10_000),
    st.sampled_from(list(PolicyKind)),
    st.integers(0, 2**32),
    st.lists(st.sampled_from(BREAKS), max_size=3),
)
def test_merged_levels_validate_against_the_ancestor_as_whole(seed, policy, rng_seed, names):
    sc = generate(seed, SIZE)
    mine, theirs = (apply_script(sc.base, script) for script in (sc.script_a, sc.script_b))
    _check_merged(sc.base, mine, theirs, policy, random.Random(rng_seed), names)


@pytest.mark.parametrize("policy", list(PolicyKind))
@pytest.mark.parametrize("case", ["cycle", "orphan", "manifest"])
def test_repaired_merges_validate_against_the_ancestor_as_whole(case, policy):
    ancestor, mine, theirs = repairing_merges()[case]
    for names in ([], *([name] for name in BREAKS)):
        _check_merged(ancestor, mine, theirs, policy, random.Random(len(names)), names)


def _seed_error(ancestor, mine, theirs):
    """The error merge3 raised when every input was validated whole, or None."""

    def require(graph, role):
        report = validate(graph)
        if not report.ok:
            raise InvalidGraphError(role, report)

    try:
        require(ancestor, "ancestor")
        require(mine, "mine")
        check_same_level(ancestor, mine, "ancestor", "version", ancestor.node_ids())
        require(theirs, "theirs")
        check_same_level(ancestor, theirs, "ancestor", "version", ancestor.node_ids())
        check_same_level(mine, theirs, "mine", "theirs", mine.node_ids())
    except SceneMergeError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(scenarios(BREAKS + HOLDER_BREAKS), st.booleans())
def test_merge3_raises_what_it_raised_with_whole_validation(scenario, shared_lists):
    ancestor, branches = scenario
    mine, theirs = (level.graph(base=ancestor if shared_lists else None) for level in branches)
    expected = _seed_error(ancestor, mine, theirs)
    if expected is None:
        # valid inputs merge to a valid level under every policy, the
        # same with the branches swapped
        for policy in map(MergePolicy, PolicyKind):
            merged = merge3(ancestor, mine, theirs, policy).merged
            assert validate(merged).ok
            swapped = merge3(ancestor, theirs, mine, policy.mirrored()).merged
            assert _text(swapped) == _text(merged)
        return
    with pytest.raises(SceneMergeError) as raised:
        merge3(ancestor, mine, theirs)
    assert (type(raised.value), str(raised.value)) == expected


def test_an_input_both_invalid_and_kind_mismatched_reports_as_before():
    sc = generate(7, SIZE)
    base = _Level(sc.base)
    mine, theirs = _Level(sc.base), _Level(sc.base)
    rng = random.Random(7)
    _break("kind-change", mine, base, rng, "A")
    _break("cycle", theirs, base, rng, "B")
    _break("add-add-kind", mine, base, rng, "A")
    _break("add-add-kind", theirs, base, rng, "B")
    ancestor = base.graph()
    # mine's kind change is named before theirs is validated
    with pytest.raises(GraphMismatchError, match="in ancestor but") as raised:
        merge3(ancestor, mine.graph(), theirs.graph())
    assert (GraphMismatchError, str(raised.value)) == _seed_error(ancestor, mine.graph(), theirs.graph())
    # the other way round, the invalid branch comes first
    with pytest.raises(InvalidGraphError, match="mine graph is invalid") as raised:
        merge3(ancestor, theirs.graph(), mine.graph())
    assert (InvalidGraphError, str(raised.value)) == _seed_error(ancestor, theirs.graph(), mine.graph())
