"""Three-way merge of level graphs with conflict detection and repair.

`merge3` replays both branches' edits onto the common ancestor in a
fixed phase order: additions, deletions, property/edge modifications,
conflict resolution, then repair (references, relinks, cycles and
orphans). The phase order is normative: deletions must see concurrently
added children to detect conflicts and relink correctly, and structural
repair must see the final node and edge sets. Each phase takes only
`_State`, the merge in progress, and appends what it finds to its
conflicts, dropped edits and removed cycle edges, in phase order.

Conflicts are data. Under the manual policy they stay unresolved and
every conflicting item is held at its ancestor state, so the merged
graph always loads; under a branch preference one rule (`_settle`)
takes the winner's side of a conflicted cell and records the loser's
as a dropped edit. A surviving reference wins over the deletion of what
it names, for nodes as for manifest entries.

Edge merging works on two kinds of three-way cells. Each surviving
node's Direct parent is one cell (two branches assigning different
parents is a reparent conflict, because a node has at most one Direct
parent). Each (parent, child) pair's *indirect presence* is an
independent boolean cell; boolean cells cannot conflict three-way, so
indirect references merge silently. Kind flips fall out of the two
cells combined.
"""

from __future__ import annotations

import math
import time
from enum import Enum
from typing import Container, Mapping, Union

from .diff import (
    DiffResult,
    _require_valid,
    check_same_level,
    classify,
    diff_stats,
)
from .graph import (
    DepKind,
    Edge,
    LevelGraph,
    Node,
    PropertyValue,
    SceneMergeError,
    _gc_paused,
    _closure,
    _differences,
    _holders,
    _Patch,
    _Record,
    _touched,
    direct_subtree,
    strongly_connected_components,
    validate,
)
from .levelfile import format_value


class MergeInternalError(SceneMergeError):
    """The pipeline was about to emit an invalid graph; this is a bug."""


class Branch(Enum):
    A = "a"
    B = "b"

    @property
    def other(self) -> "Branch":
        return Branch.B if self is Branch.A else Branch.A


class PolicyKind(Enum):
    MANUAL = "manual"
    PREFER_A = "prefer-a"
    PREFER_B = "prefer-b"


class Resolution(Enum):
    UNRESOLVED = "unresolved"
    TOOK_A = "took-a"
    TOOK_B = "took-b"


def _took(branch: Branch) -> Resolution:
    return Resolution.TOOK_A if branch is Branch.A else Resolution.TOOK_B


CONFLICT = object()
"""What `merge_cell` returns when both branches changed a cell differently."""


def merge_cell(base, mine, theirs):
    """Three-way merge of one independent cell: the merged value, or CONFLICT.

    Agreement wins, then a one-sided change; two different changes
    conflict (the diff3 rule on a single value, after Khanna, Kunal and
    Pierce, "A Formal Investigation of Diff3", FSTTCS 2007). Every cell
    of a merge goes through here: a property, a Direct parent, an
    indirect edge's presence, and an asset's digest.
    """
    if mine == theirs:
        return mine
    if mine == base:
        return theirs
    if theirs == base:
        return mine
    return CONFLICT


class MergePolicy(_Record):
    """How conflicts resolve, plus the opt-in numeric averaging rule.

    Averaging applies only to real-valued properties on nodes whose kind
    is listed in ``averageable_kinds``; such concurrent edits take the
    arithmetic mean instead of conflicting.
    """

    resolution: PolicyKind
    numeric_averaging: bool
    averageable_kinds: frozenset[str]
    __slots__ = ("resolution", "numeric_averaging", "averageable_kinds")
    _defaults = {
        "resolution": PolicyKind.MANUAL,
        "numeric_averaging": False,
        "averageable_kinds": frozenset(),
    }

    @property
    def winner(self) -> Branch | None:
        if self.resolution is PolicyKind.PREFER_A:
            return Branch.A
        if self.resolution is PolicyKind.PREFER_B:
            return Branch.B
        return None

    def mirrored(self) -> "MergePolicy":
        """The same policy seen with the branch arguments swapped."""
        mapping = {
            PolicyKind.PREFER_A: PolicyKind.PREFER_B,
            PolicyKind.PREFER_B: PolicyKind.PREFER_A,
            PolicyKind.MANUAL: PolicyKind.MANUAL,
        }
        return MergePolicy(mapping[self.resolution], self.numeric_averaging, self.averageable_kinds)


# -- conflicts and outcome ----------------------------------------------------


class PropertyConflict(_Record, frozen=False):
    """Both branches changed the same property to different values."""

    node: str
    key: str
    value_a: PropertyValue | None  # None = the branch removed the property
    value_b: PropertyValue | None
    ancestor_value: PropertyValue | None
    resolution: Resolution
    __slots__ = ("node", "key", "value_a", "value_b", "ancestor_value", "resolution")
    _defaults = {"resolution": Resolution.UNRESOLVED}


class AddAddConflict(_Record, frozen=False):
    """Both branches added the same node id with different values for a key."""

    node: str
    key: str
    value_a: PropertyValue | None
    value_b: PropertyValue | None
    resolution: Resolution
    __slots__ = ("node", "key", "value_a", "value_b", "resolution")
    _defaults = {"resolution": Resolution.UNRESOLVED}


class ReparentConflict(_Record, frozen=False):
    """The branches assign different Direct parents to one node."""

    node: str
    parent_a: str | None
    parent_b: str | None
    resolution: Resolution
    __slots__ = ("node", "parent_a", "parent_b", "resolution")
    _defaults = {"resolution": Resolution.UNRESOLVED}


class DeleteModifyConflict(_Record, frozen=False):
    """One branch deletes a subtree the other branch touched.

    ``subtree`` is the set of nodes the deletion covers; ``touched``
    lists the other branch's affected nodes: intrinsic modifications
    inside the subtree, added nodes anchored under it, and nodes
    reparented into it.
    """

    deleting_branch: Branch
    deleted_node: str
    subtree: tuple[str, ...]
    touched: tuple[str, ...]
    resolution: Resolution
    __slots__ = ("deleting_branch", "deleted_node", "subtree", "touched", "resolution")
    _defaults = {"resolution": Resolution.UNRESOLVED}


class AssetConflict(_Record, frozen=False):
    """Both branches changed one asset's content in incompatible ways."""

    asset_id: str
    digest_a: str | None
    digest_b: str | None
    ancestor_digest: str | None
    resolution: Resolution
    __slots__ = ("asset_id", "digest_a", "digest_b", "ancestor_digest", "resolution")
    _defaults = {"resolution": Resolution.UNRESOLVED}


Conflict = Union[
    PropertyConflict, AddAddConflict, ReparentConflict, DeleteModifyConflict, AssetConflict
]


class DroppedEdit(_Record):
    """A losing edit fragment discarded by automatic resolution or repair."""

    branch: Branch
    node: str | None
    description: str
    __slots__ = ("branch", "node", "description")


class MergeStats(_Record):
    ancestor_nodes: int
    ancestor_edges: int
    diff_a_edited: int
    diff_b_edited: int
    merged_nodes: int
    merged_edges: int
    wall_time_s: float
    __slots__ = (
        "ancestor_nodes", "ancestor_edges", "diff_a_edited", "diff_b_edited",
        "merged_nodes", "merged_edges", "wall_time_s",
    )


class MergeOutcome(_Record, frozen=False):
    merged: LevelGraph
    conflicts: list[Conflict]
    dropped: list[DroppedEdit]
    removed_cycle_edges: list[Edge]
    stats: MergeStats
    __slots__ = ("merged", "conflicts", "dropped", "removed_cycle_edges", "stats")

    @property
    def unresolved(self) -> list[Conflict]:
        return [c for c in self.conflicts if c.resolution is Resolution.UNRESOLVED]


# -- the merge in progress ----------------------------------------------------


class _State(_Patch):
    """The merge in progress: the ancestor patched through `_Patch`, the
    branches' diffs and the policy, and what the phases have found.

    ``diffs`` holds branch A's diff, then B's; ``base`` is their
    ancestor. The phases append to ``conflicts``, ``dropped`` and
    ``removed_edges``, which become the `MergeOutcome`'s lists.
    Mutation stays inside this module. ``owners`` records which branch's
    edit set an edge and ``relinks`` the edges a cascading deletion set
    to keep a survivor reachable; removing an edge forgets both.
    """

    __slots__ = ("diffs", "policy", "conflicts", "dropped", "removed_edges", "relinks", "owners")

    def __init__(self, diff_a: DiffResult, diff_b: DiffResult, policy: MergePolicy) -> None:
        super().__init__(diff_a.ancestor)
        self.diffs = (diff_a, diff_b)
        self.policy = policy
        self.conflicts: list[Conflict] = []
        self.dropped: list[DroppedEdit] = []
        self.removed_edges: list[Edge] = []
        self.relinks: set[tuple[str, str]] = set()
        self.owners: dict[tuple[str, str], Branch] = {}

    def set_edge(
        self, parent: str, child: str, kind: DepKind, owner: Branch | None = None,
        relink: bool = False,
    ) -> None:
        super().set_edge(parent, child, kind)
        if owner is not None:
            self.owners[(parent, child)] = owner
        if relink:
            self.relinks.add((parent, child))

    def remove_edge(self, parent: str, child: str) -> None:
        super().remove_edge(parent, child)
        self.relinks.discard((parent, child))
        self.owners.pop((parent, child), None)

    def reaches_root(self, node_id: str, via: Container[str] = ()) -> bool:
        """Whether a path of current edges leads to the node from the root
        or from a member of ``via``.

        The walk goes backward along in-edges, so it costs the node's
        ancestry, not the level.
        """
        seen = {node_id}
        frontier = [node_id]
        while frontier:
            current = frontier.pop()
            if current == self.root or current in via:
                return True
            for parent, _ in self.in_.get(current, ()):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return False

    def edited_region(self) -> set[str]:
        """Forward closure of the nodes whose in-edges may differ from the ancestor's.

        Every cycle runs through an edge the merge set, since the ancestor
        is acyclic, so it lies inside. A node outside it has the ancestor's
        in-edges, from parents outside it too, so by induction along the
        ancestor's paths it still reaches the root.
        """
        return _closure(_touched(self.nodes, self.base._nodes, self.ids, self.pairs), self.out_)


# -- phase 2: additions -------------------------------------------------------


def _apply_additions(state: _State) -> None:
    diff_a, diff_b = state.diffs
    added_a = diff_a.added
    added_b = diff_b.added

    added = sorted(added_a | added_b)
    for node_id in added:
        if node_id in added_a and node_id in added_b:
            node_a = diff_a.version.node(node_id)
            node_b = diff_b.version.node(node_id)
            props: dict[str, PropertyValue] = {}
            for key in sorted(set(node_a.properties) | set(node_b.properties)):
                va = node_a.properties.get(key)
                vb = node_b.properties.get(key)
                value = merge_cell(None, va, vb)  # an addition has no base value
                if value is CONFLICT:
                    state.conflicts.append(AddAddConflict(node_id, key, va, vb))
                else:
                    props[key] = value
            state.set_node(Node(node_id, node_a.kind, props))
        else:
            source = diff_a.version if node_id in added_a else diff_b.version
            state.set_node(source.node(node_id))

    for node_id in added:
        in_a = node_id in added_a
        in_b = node_id in added_b
        parent_a = diff_a.version.direct_parent(node_id) if in_a else None
        parent_b = diff_b.version.direct_parent(node_id) if in_b else None
        if in_a and in_b and parent_a != parent_b:
            # same added id, two different Direct parents: hold at the
            # scene root until the conflict resolves
            state.conflicts.append(ReparentConflict(node_id, parent_a, parent_b))
            state.set_edge(state.root, node_id, DepKind.DIRECT)
            continue
        recorded = parent_a if in_a else parent_b
        owner = Branch.A if in_a else Branch.B
        if recorded is None:
            continue  # reachable via indirect references, or reconnected later
        if recorded in state.nodes:
            state.set_edge(recorded, node_id, DepKind.DIRECT, owner=owner)
        else:
            state.set_edge(state.root, node_id, DepKind.DIRECT, owner=owner)


# -- phase 3: deletions -------------------------------------------------------


def _by_new_direct_parent(diff: DiffResult, node_ids) -> dict[str, list[tuple[str, DepKind]]]:
    """New Direct parent -> a (node, Direct) pair for each of ``node_ids`` the
    branch put under it: out-edges that `_closure` can walk.

    A node is indexed under its Direct parent in ``diff``'s version when
    it has one the ancestor did not give it, so over a diff's ``added``
    this indexes additions by parent and over its ``intrinsic`` it
    indexes reparented survivors by their new parent, at the cost of the
    diff, not the level.
    """
    ancestor, version = diff.ancestor, diff.version
    index: dict[str, list[tuple[str, DepKind]]] = {}
    for node_id in node_ids:
        parent = version.direct_parent(node_id)
        if parent is not None and parent != ancestor.direct_parent(node_id):
            index.setdefault(parent, []).append((node_id, DepKind.DIRECT))
    return index


def _alive_chain(state: _State, root_id: str) -> list[str]:
    """Ancestor Direct-parent chain of a deleted node, filtered to the living."""
    chain = []
    current = state.base.direct_parent(root_id)
    while current is not None:
        if current in state.nodes:
            chain.append(current)
        current = state.base.direct_parent(current)
    chain.append(state.root)
    return chain


def _cascade_delete(state: _State, root_id: str, scope: set[str], branch: Branch) -> None:
    """Remove the scope and relink survivors that lost their route to the root.

    A severed survivor that no longer reaches the root is re-attached
    under the nearest surviving node on the deleted node's ancestor
    Direct chain, or under the root, preserving the severed edge's
    dependency kind; Direct wins when several severed edges disagree.
    """
    severed: dict[str, DepKind] = {}
    for member in sorted(scope):
        if member not in state.nodes:
            continue
        for child, kind in state.out_.get(member, ()):
            if child not in scope:
                if severed.get(child) is not DepKind.DIRECT:
                    severed[child] = kind
        state.remove_node(member)
    if not severed:
        return
    chain = _alive_chain(state, root_id)
    relinked: set[str] = set()
    for child in sorted(severed):
        # a survivor below an earlier relinked one counts as reconnected
        if child not in state.nodes or state.reaches_root(child, relinked):
            continue
        target = next((t for t in chain if t != child), state.root)
        if target == child:
            continue
        state.set_edge(target, child, severed[child], owner=branch, relink=True)
        relinked.add(child)


def _apply_deletions(state: _State) -> None:
    diff_a, diff_b = state.diffs
    clean: dict[str, tuple[set[str], Branch]] = {}

    for branch, diff, other in ((Branch.A, diff_a, diff_b), (Branch.B, diff_b, diff_a)):
        added_children = _by_new_direct_parent(other, other.added)
        reparented_into = _by_new_direct_parent(other, other.intrinsic)
        for root_id in sorted(diff.deleted):
            if state.base.direct_parent(root_id) in diff.deleted:
                continue  # its deleted parent's subtree holds it
            scope = direct_subtree(state.base, root_id) & diff.deleted
            # the scope and the other branch's additions whose Direct-parent chain lands in it
            reach = _closure(scope, added_children)
            touched = (scope & other.intrinsic) | (reach - scope)
            touched.update(  # and the survivors the other branch moved into the reach
                node_id
                for target in reach
                for node_id, _ in reparented_into.get(target, ())
                if node_id not in scope
            )
            if touched:
                state.conflicts.append(
                    DeleteModifyConflict(
                        deleting_branch=branch,
                        deleted_node=root_id,
                        subtree=tuple(sorted(scope)),
                        touched=tuple(sorted(touched)),
                    )
                )
            elif root_id in clean:
                clean[root_id] = (clean[root_id][0] | scope, clean[root_id][1])
            else:
                clean[root_id] = (scope, branch)

    for root_id in sorted(clean):
        scope, branch = clean[root_id]
        _cascade_delete(state, root_id, scope, branch)


# -- phase 4: modifications ---------------------------------------------------


def _set_direct_parent(state: _State, node_id: str, parent: str | None, owner: Branch | None) -> None:
    current = state.direct_parent(node_id)
    if current is not None:
        state.remove_edge(current, node_id)
    if parent is None:
        return
    if parent not in state.nodes:
        raise MergeInternalError(
            f"direct parent {parent!r} of {node_id!r} vanished before application"
        )
    state.set_edge(parent, node_id, DepKind.DIRECT, owner=owner)


def _apply_modifications(state: _State) -> None:
    diff_a, diff_b = state.diffs
    ancestor, version_a, version_b = state.base, diff_a.version, diff_b.version
    policy = state.policy

    # only an intrinsic modification changes a node's properties or Direct parent
    for node_id in sorted(diff_a.intrinsic | diff_b.intrinsic):
        if node_id not in state.nodes:
            continue
        anc_node = ancestor.node(node_id)
        in_a = version_a.has_node(node_id)
        in_b = version_b.has_node(node_id)
        props_a = version_a.node(node_id).properties if in_a else anc_node.properties
        props_b = version_b.node(node_id).properties if in_b else anc_node.properties

        node = state.nodes[node_id]
        current = dict(node.properties)
        for key in sorted(set(anc_node.properties) | set(props_a) | set(props_b)):
            base = anc_node.properties.get(key)
            mine = props_a.get(key)
            theirs = props_b.get(key)
            value = merge_cell(base, mine, theirs)
            if value is CONFLICT:
                if not (
                    policy.numeric_averaging
                    and mine is not None
                    and theirs is not None
                    and mine.kind == "real"
                    and theirs.kind == "real"
                    and anc_node.kind in policy.averageable_kinds
                ):
                    state.conflicts.append(PropertyConflict(node_id, key, mine, theirs, base))
                    continue
                a, b = float(mine.value), float(theirs.value)
                mean = (a + b) / 2.0  # halved first only where the sum overflows
                value = PropertyValue.real(mean if math.isfinite(mean) else a / 2.0 + b / 2.0)
            if value is None:
                current.pop(key, None)
            else:
                current[key] = value
        if current != node.properties:
            state.set_node(Node(node_id, node.kind, current))

        base_dp = ancestor.direct_parent(node_id)
        dp_a = version_a.direct_parent(node_id) if in_a else base_dp
        dp_b = version_b.direct_parent(node_id) if in_b else base_dp
        parent = merge_cell(base_dp, dp_a, dp_b)
        if parent is CONFLICT:
            state.conflicts.append(ReparentConflict(node_id, dp_a, dp_b))
        elif parent != base_dp:
            _set_direct_parent(state, node_id, parent, Branch.A if parent == dp_a else Branch.B)

    # Indirect-presence cells, one per (parent, child) pair some branch's
    # patch record names: every pair whose edge a branch added, removed or
    # flipped is among them. The record may hold more pairs than changed.
    # A pair no branch changed merges to the ancestor's presence, and
    # applying that leaves the working graph as it is. If the ancestor has
    # the indirect edge, the graph still has an edge on the pair: only a
    # deleted endpoint removes one before this point, and a Direct parent
    # set over it is a kind flip. If not, the graph holds an indirect edge
    # there only as a relink, which the removal rule spares.
    pairs = set(_differences(version_a, ancestor)[1])
    pairs.update(_differences(version_b, ancestor)[1])
    for parent, child in sorted(pairs):
        if parent not in state.nodes or child not in state.nodes:
            continue
        base = ancestor.edge_kind(parent, child) is DepKind.INDIRECT
        mine = (
            version_a.edge_kind(parent, child) is DepKind.INDIRECT
            if version_a.has_node(parent) and version_a.has_node(child)
            else base
        )
        theirs = (
            version_b.edge_kind(parent, child) is DepKind.INDIRECT
            if version_b.has_node(parent) and version_b.has_node(child)
            else base
        )
        # a boolean cell never conflicts
        merged = merge_cell(base, mine, theirs)
        current = state.edge_kind(parent, child)
        if merged:
            if current is None:
                owner = Branch.A if mine and not base else Branch.B
                state.set_edge(parent, child, DepKind.INDIRECT, owner=owner)
            # an existing Direct edge on the pair wins over indirect presence
        elif current is DepKind.INDIRECT and (parent, child) not in state.relinks:
            state.remove_edge(parent, child)


# -- settling a conflict ---------------------------------------------------------


def _settle(state: _State, conflict: Conflict, mine, theirs, node, describe):
    """The policy winner's side of a conflicted cell; the loser's is recorded as dropped.

    ``mine`` and ``theirs`` are the branches' sides, and ``describe``
    turns the losing side into the dropped edit's description.
    """
    winner = state.policy.winner
    take, lost = (mine, theirs) if winner is Branch.A else (theirs, mine)
    conflict.resolution = _took(winner)
    state.dropped.append(DroppedEdit(winner.other, node, describe(lost)))
    return take


# -- assets (one digest cell per asset id) -------------------------------------


def _merge_manifests(state: _State, merger) -> None:
    """Manifest merge, one `merge_cell` per asset id; conflicts resolve like property conflicts.

    ``merger`` is the optional content step (an ``assets.ManifestMerger``;
    None merges digests only). ``merger.merge(id, a, m, t)`` gets each
    divergent cell and returns a merged digest or CONFLICT;
    ``merger.admit(id, a, m, t, take, winner, dropped)`` gets each taken
    digest that differs from the ancestor's and returns the digest to
    keep.
    """
    base = state.base.assets
    mine, theirs = (diff.version.assets for diff in state.diffs)
    manifest: dict[str, str] = {}
    winner = state.policy.winner
    for asset_id in sorted(set(base) | set(mine) | set(theirs)):
        a, m, t = base.get(asset_id), mine.get(asset_id), theirs.get(asset_id)
        take = merge_cell(a, m, t)
        if take is CONFLICT and merger is not None:
            take = merger.merge(asset_id, a, m, t)
        if take is CONFLICT:
            conflict = AssetConflict(asset_id, m, t, a)
            state.conflicts.append(conflict)
            # without a winner the ancestor digest is held
            take = a if winner is None else _settle(
                state, conflict, m, t, None,
                lambda lost: f"delete asset {asset_id}"
                if lost is None else f"asset {asset_id} -> {lost}",
            )
        if merger is not None and take is not None and take != a:
            take = merger.admit(asset_id, a, m, t, take, winner, state.dropped)
        if take is not None:
            manifest[asset_id] = take
    state.assets = manifest


# -- phase 5: resolution --------------------------------------------------------


def _describe_edit(diff: DiffResult, node_id: str) -> list[str]:
    """What ``diff``'s version changed on ``node_id``, a node both graphs hold:
    its property sets and removals, its new Direct parent and the kind
    flips of its in-edges, or ``edited`` when only Indirect in-edges came
    or went."""
    old, new = diff.ancestor, diff.version
    old_properties, properties = old.node(node_id).properties, new.node(node_id).properties
    fragments = [
        f"set {key} = {format_value(properties[key])}"
        for key in sorted(properties)
        if old_properties.get(key) != properties[key]
    ]
    for key in sorted(old_properties.keys() - properties.keys()):
        fragments.append(f"remove property {key}")
    parent = new.direct_parent(node_id)
    if parent != old.direct_parent(node_id):
        fragments.append(f"reparent under {parent or 'nothing'}")
    old_in = dict(old.parents(node_id))
    for parent, kind in new.parents(node_id):
        if parent in old_in and old_in[parent] is not kind:
            fragments.append(f"dependency on {parent} becomes {kind.value}")
    return fragments or ["edited"]


def _restore(state: _State, sources: Mapping[str, LevelGraph]) -> None:
    """Put each node of ``sources`` back as the graph it maps to holds it: every
    node is set without in-edges, then each, in sorted id order, gets its
    source's in-edges from the parents the merge holds, restored ones included."""
    ordered = sorted(sources)
    for node_id in ordered:
        state.set_node(sources[node_id].node(node_id))
        for parent, _ in list(state.in_.get(node_id, ())):
            state.remove_edge(parent, node_id)
    for node_id in ordered:
        for parent, kind in sources[node_id].parents(node_id):
            if parent in state.nodes:
                state.set_edge(parent, node_id, kind)


def _settle_delete_modify(state: _State, conflict: DeleteModifyConflict) -> None:
    """Settle a delete-modify conflict against ``other``, the touching branch's diff.

    ``touched`` splits by ``other``: members of the subtree are its
    modifications, members of ``other.added`` its anchored additions,
    the rest survivors it moved into the subtree. If the touching branch
    wins, the deletion is dropped. Otherwise the moves into the doomed
    subtree are undone; then the manual policy holds the modifications
    at ancestor state, and a winning deletion drops the touching edits
    and cascades.
    """
    deleting = conflict.deleting_branch
    winner = state.policy.winner
    other = state.diffs[deleting is Branch.A]
    if winner is deleting.other:
        conflict.resolution = _took(winner)
        state.dropped.append(
            DroppedEdit(
                deleting,
                conflict.deleted_node,
                f"delete {conflict.deleted_node} and its direct subtree "
                f"({len(conflict.subtree)} nodes)",
            )
        )
        return
    subtree = set(conflict.subtree)
    mods = [n for n in conflict.touched if n in subtree]
    anchored = [n for n in conflict.touched if n in other.added]
    doomed = subtree.union(anchored)
    moved = []
    for node_id in conflict.touched:
        if node_id in doomed or node_id not in state.nodes:
            continue
        current = state.direct_parent(node_id)
        if current in doomed:
            parent = state.base.direct_parent(node_id)
            _set_direct_parent(state, node_id, parent if parent in state.nodes else None, None)
            moved.append((node_id, current))
    for added_id in anchored:
        if added_id in state.nodes:
            state.remove_node(added_id)

    if winner is None:
        _restore(state, {node_id: state.base for node_id in mods if node_id in state.nodes})
        return
    conflict.resolution = _took(winner)
    loser = deleting.other
    for node_id, left in moved:
        state.dropped.append(DroppedEdit(loser, node_id, f"reparent under {left}"))
    for added_id in anchored:
        added = other.version.node(added_id)
        recorded = other.version.direct_parent(added_id)
        state.dropped.append(
            DroppedEdit(
                loser,
                added_id,
                f"add {added.kind} node under {recorded or 'nothing'} "
                f"({len(added.properties)} properties)",
            )
        )
    for node_id in mods:
        for fragment in _describe_edit(other, node_id):
            state.dropped.append(DroppedEdit(loser, node_id, fragment))
    _cascade_delete(state, conflict.deleted_node, subtree, deleting)


def _resolve(state: _State) -> None:
    winner = state.policy.winner
    # deletions cascade last so other resolutions see their targets alive
    ordered = [c for c in state.conflicts if not isinstance(c, DeleteModifyConflict)]
    ordered += [c for c in state.conflicts if isinstance(c, DeleteModifyConflict)]

    for conflict in ordered:
        if isinstance(conflict, DeleteModifyConflict):
            _settle_delete_modify(state, conflict)
        elif winner is None:
            continue
        elif isinstance(conflict, ReparentConflict):
            parent = _settle(
                state, conflict, conflict.parent_a, conflict.parent_b, conflict.node,
                lambda lost: f"reparent under {lost or 'nothing'}",
            )
            if conflict.node in state.nodes:
                _set_direct_parent(state, conflict.node, parent, winner)
        else:  # a property or add-add conflict
            key = conflict.key
            value = _settle(
                state, conflict, conflict.value_a, conflict.value_b, conflict.node,
                lambda lost: f"remove property {key}"
                if lost is None else f"set {key} = {format_value(lost)}",
            )
            node = state.nodes.get(conflict.node)
            if node is not None:
                props = dict(node.properties)
                if value is None:
                    props.pop(key, None)
                else:
                    props[key] = value
                state.set_node(Node(node.id, node.kind, props))


# -- phase 6: structural repair -------------------------------------------------


def _repair_refs(state: _State) -> None:
    """Keep every surviving reference resolvable: the reference wins over a deletion.

    A branch can win the deletion of a node or an asset while a
    reference to it survives. A node that a surviving ref names is
    restored (`_restore`) from the ancestor, or else from the branch that
    added it, and its own refs are repaired in turn. A manifest entry
    that an asset property names is restored from whichever side still
    has the digest. Every merged value comes from a valid input, so only
    an id that the merge removed, or an asset id of an input manifest
    that the merged manifest lacks, can dangle. A node the merge did not
    set is the ancestor's, so of those only the ancestor's holders of
    such an id (`graph._holders`) are read.
    """
    ancestor = state.base
    mine, theirs = (diff.version for diff in state.diffs)
    removed = [node_id for node_id in state.ids if node_id not in state.nodes]
    lost = {
        asset_id
        for graph in (mine, theirs, ancestor)
        for asset_id in graph.assets
        if asset_id not in state.assets
    }
    if not removed and not lost:
        return
    refs, uses = _holders(ancestor)
    held = state.ids.union(
        *(refs.get(node_id, ()) for node_id in removed),
        *(uses.get(asset_id, ()) for asset_id in lost),
    )
    pending = [state.nodes[node_id] for node_id in held if node_id in state.nodes]
    sources: dict[str, LevelGraph] = {}  # restored id -> the graph it comes from
    while pending:
        for value in pending.pop().properties.values():
            target = value.value
            if value.kind == "ref" and target not in state.nodes and target not in sources:
                source = next(g for g in (ancestor, mine, theirs) if g.has_node(target))
                sources[target] = source
                pending.append(source.node(target))
            elif value.kind == "asset" and target not in state.assets:
                digest = (
                    mine.assets.get(target)
                    or theirs.assets.get(target)
                    or ancestor.assets.get(target)
                )
                if digest is not None:
                    state.assets[target] = digest
    # the set restored is the closure of the dangling refs, whatever the order of the walk
    _restore(state, sources)


def _prune_relinks(state: _State) -> None:
    """Drop relink edges whose child is reachable without them.

    Relinking is a repair mechanism, not an edit: once both branches'
    edge changes are applied, a relink edge that duplicates restored
    connectivity must not survive into the merged graph.
    """
    for parent, child in sorted(state.relinks):
        kind = state.edge_kind(parent, child)
        if kind is None:
            continue
        owner = state.owners.get((parent, child))
        state.remove_edge(parent, child)
        if not state.reaches_root(child):
            state.set_edge(parent, child, kind, owner=owner, relink=True)


def _repair_cycles_state(state: _State) -> None:
    region = sorted(state.edited_region())
    while True:
        components = strongly_connected_components(
            region, lambda v: [c for c, _ in state.out_.get(v, ())]
        )
        cyclic = [
            comp
            for comp in components
            if len(comp) > 1 or state.edge_kind(comp[0], comp[0]) is not None
        ]
        if not cyclic:
            break
        component = min(cyclic, key=min)
        members = set(component)
        internal = [(p, c) for p in component for c, _ in state.out_.get(p, ()) if c in members]
        indirect = [pc for pc in internal if state.edge_kind(*pc) is DepKind.INDIRECT]
        parent, child = min(indirect or internal)
        kind = state.edge_kind(parent, child)
        owner = state.owners.get((parent, child))
        state.remove_edge(parent, child)
        state.removed_edges.append(Edge(parent, child, kind))
        if owner is not None:
            state.dropped.append(
                DroppedEdit(
                    owner,
                    child,
                    f"edge {parent} -> {child} ({kind.value}) removed to break a cycle",
                )
            )


def _reconnect_orphans(state: _State) -> None:
    region = state.edited_region()
    # every node outside the region reaches the root, and so does a
    # region node with a parent outside it
    reached = _closure(
        [
            node_id
            for node_id in region
            if node_id == state.root or any(p not in region for p, _ in state.in_.get(node_id, ()))
        ],
        state.out_,
    )
    for node_id in sorted(region):
        if node_id not in reached:
            state.set_edge(state.root, node_id, DepKind.INDIRECT)
            _closure([node_id], state.out_, seen=reached)


# -- the merge --------------------------------------------------------------------


@_gc_paused()
def merge3(
    ancestor: LevelGraph,
    mine: LevelGraph,
    theirs: LevelGraph,
    policy: MergePolicy = MergePolicy(),
    manifest_merger=None,
) -> MergeOutcome:
    """Three-way merge of two edited versions against their common ancestor.

    The result is always a loadable, valid level: after applying both
    branches' edits and resolving conflicts per policy, a node or asset
    that the merge removed while a surviving reference names it is
    restored, cycles created by combined edge edits are broken and any
    orphaned node is reconnected under the root. Cycle repair takes the cyclic component
    whose smallest id is smallest and removes its lexicographically
    smallest internal Indirect edge, or its smallest internal edge if it
    has no Indirect one, until no cycle is left. Every
    non-conflicting edit from both branches survives into the merge.

    The manifests merge in one loop, one digest cell per asset id.
    ``manifest_merger`` adds a content step to that loop: an
    ``assets.ManifestMerger`` runs the type tag's strategy on a cell
    both branches changed differently and gates a changed digest with
    the tag's validator. None (the default) merges digests only; a tag
    with neither a strategy nor a validator never reads the blob store.
    """
    start = time.perf_counter()
    _require_valid(ancestor, "ancestor")
    _require_valid(mine, "mine", base=ancestor)
    diff_a = classify(ancestor, mine, validated=True)
    _require_valid(theirs, "theirs", base=ancestor)
    diff_b = classify(ancestor, theirs, validated=True)
    # classify checked every other shared id against the ancestor
    check_same_level(mine, theirs, "mine", "theirs", ids=diff_a.added & diff_b.added)

    state = _State(diff_a, diff_b, policy)
    _apply_additions(state)
    _apply_deletions(state)
    _apply_modifications(state)
    _resolve(state)
    _merge_manifests(state, manifest_merger)
    _repair_refs(state)
    _prune_relinks(state)
    _repair_cycles_state(state)
    _reconnect_orphans(state)

    merged = state.to_graph()
    report = validate(merged, base=ancestor)
    if not report.ok:
        raise MergeInternalError(f"merge produced an invalid graph:\n{report}")

    stats = MergeStats(
        ancestor_nodes=ancestor.node_count,
        ancestor_edges=ancestor.edge_count,
        diff_a_edited=diff_stats(diff_a).total_edited,
        diff_b_edited=diff_stats(diff_b).total_edited,
        merged_nodes=merged.node_count,
        merged_edges=merged.edge_count,
        wall_time_s=time.perf_counter() - start,
    )
    return MergeOutcome(merged, state.conflicts, state.dropped, state.removed_edges, stats)
