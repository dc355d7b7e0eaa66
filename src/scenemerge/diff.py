"""Three-way diff building blocks: classify one edited version against its ancestor.

Every node of ancestor-union-version receives exactly one class:
Unchanged, Added, Deleted, or Modified. A node is Modified intrinsically
when its own properties or incoming edges changed, and by propagation
when some Direct ancestor (in the edited graph, transitively) was
intrinsically modified; direct dependencies mirror parent changes onto
children, so the mirrored subtree counts as edited.
"""

from __future__ import annotations

from enum import Enum
from typing import Collection, Mapping

from .graph import (
    DepKind,
    Edge,
    LevelGraph,
    PropertyValue,
    SceneMergeError,
    _closure,
    _differences,
    _Record,
    _set,
    validate,
)


class GraphMismatchError(SceneMergeError):
    """The graphs being compared are not versions of the same level."""


class InvalidGraphError(SceneMergeError):
    """An input graph failed validation."""

    def __init__(self, role: str, report):
        super().__init__(f"{role} graph is invalid:\n{report}")
        self.role = role
        self.report = report


class ChangeClass(Enum):
    UNCHANGED = "unchanged"
    ADDED = "added"
    DELETED = "deleted"
    MODIFIED = "modified"


class NodeDelta(_Record):
    """What changed on one node, anchored at that node.

    Incoming-edge changes are always recorded on the child: a new Direct
    parent as ``reparented``/``new_direct_parent`` (None means the node
    lost its Direct parent), kind flips of surviving in-edges as
    ``dep_kind_changes``, and Indirect in-edge additions or removals via
    the diff-level edge sets. A delta with no recorded change and
    ``intrinsic=False`` marks a propagated-only modification.
    """

    __slots__ = (
        "property_sets", "property_removals", "reparented",
        "new_direct_parent", "dep_kind_changes", "intrinsic",
    )

    def __init__(
        self,
        property_sets: Mapping[str, PropertyValue] | None = None,
        property_removals: frozenset[str] = frozenset(),
        reparented: bool = False,
        new_direct_parent: str | None = None,
        dep_kind_changes: frozenset[tuple[str, DepKind]] = frozenset(),
        intrinsic: bool = False,
    ):
        _set(self, "property_sets", {} if property_sets is None else property_sets)
        _set(self, "property_removals", property_removals)
        _set(self, "reparented", reparented)
        _set(self, "new_direct_parent", new_direct_parent)
        _set(self, "dep_kind_changes", dep_kind_changes)
        _set(self, "intrinsic", intrinsic)


class DiffResult(_Record):
    """The edited nodes of one version plus the deltas needed to replay the edit.

    Every Added and every Modified node carries a delta; ``intrinsic``
    names the intrinsically Modified ones. A node of the ancestor that is
    neither deleted nor in ``deltas`` is Unchanged.
    """

    ancestor: LevelGraph
    version: LevelGraph
    deltas: Mapping[str, NodeDelta]
    added_edges: frozenset[Edge]
    removed_edges: frozenset[Edge]
    added: frozenset[str]
    deleted: frozenset[str]
    intrinsic: frozenset[str]
    __slots__ = (
        "ancestor", "version", "deltas",
        "added_edges", "removed_edges", "added", "deleted", "intrinsic",
    )

    def nodes_in_class(self, cls: ChangeClass) -> list[str]:
        if cls is ChangeClass.ADDED:
            return sorted(self.added)
        if cls is ChangeClass.DELETED:
            return sorted(self.deleted)
        if cls is ChangeClass.MODIFIED:
            return sorted(self.deltas.keys() - self.added)
        edited = self.deltas.keys() | self.deleted
        return [node_id for node_id in self.ancestor.node_ids() if node_id not in edited]


class DiffStats(_Record):
    added: int
    deleted: int
    modified_intrinsic: int
    modified_propagated: int
    __slots__ = ("added", "deleted", "modified_intrinsic", "modified_propagated")

    @property
    def total_edited(self) -> int:
        return self.added + self.deleted + self.modified_intrinsic + self.modified_propagated


def check_same_level(
    a: LevelGraph, b: LevelGraph, role_a: str, role_b: str, ids: Collection[str]
) -> None:
    """Reject graph pairs that cannot be versions of the same level.

    Only the kinds of the nodes of ``a`` named in ``ids`` are compared;
    the caller has checked the rest.
    """
    if a.root != b.root:
        raise GraphMismatchError(
            f"root ids differ: {a.root!r} ({role_a}) vs {b.root!r} ({role_b})"
        )
    a_nodes, b_nodes = a._nodes, b._nodes
    for node_id in sorted(ids):
        node, other = a_nodes[node_id], b_nodes.get(node_id)
        if other is not None and other.kind != node.kind:
            raise GraphMismatchError(
                f"node {node_id!r} has kind {node.kind!r} in {role_a} but {other.kind!r} "
                f"in {role_b}; a kind change must be modeled as delete plus add under a new id"
            )


def _require_valid(graph: LevelGraph, role: str, base: LevelGraph | None = None) -> None:
    """Raise `InvalidGraphError` naming ``role`` unless ``graph`` is valid.

    ``base`` is a valid graph that ``graph`` was edited from (see `validate`).
    """
    report = validate(graph, base=base)
    if not report.ok:
        raise InvalidGraphError(role, report)


def classify(
    ancestor: LevelGraph, version: LevelGraph, *, validated: bool = False
) -> DiffResult:
    """Classify every node of ancestor-union-version against the ancestor.

    Both graphs are validated first, the version against the ancestor,
    unless ``validated`` says the caller has already done so; a merge
    validates each of its inputs once. Only the ids and pairs that
    `_differences` names are compared, so a version patched from
    the ancestor costs its patch, not the level.
    """
    if not validated:
        _require_valid(ancestor, "ancestor")
        _require_valid(version, "version", base=ancestor)
    a_nodes, v_nodes = ancestor._nodes, version._nodes
    a_edges, v_edges = ancestor._edges, version._edges
    a_in, v_in = ancestor._in, version._in
    ids, pairs = _differences(version, ancestor)
    added = {node_id for node_id in ids if node_id in v_nodes and node_id not in a_nodes}
    deleted = {node_id for node_id in ids if node_id in a_nodes and node_id not in v_nodes}
    # a kind can differ only where the node object does
    replaced = {node_id for node_id in ids if node_id in a_nodes and node_id in v_nodes}
    check_same_level(ancestor, version, "ancestor", "version", ids=replaced)
    added_edges = {Edge(*p, v_edges[p]) for p in pairs if p in v_edges and p not in a_edges}
    removed_edges = {Edge(*p, a_edges[p]) for p in pairs if p in a_edges and p not in v_edges}

    deltas: dict[str, NodeDelta] = {}
    intrinsic_set: set[str] = set()
    for node_id in sorted(added):
        deltas[node_id] = NodeDelta(
            property_sets=dict(v_nodes[node_id].properties),
            reparented=True,
            new_direct_parent=version.direct_parent(node_id),
            intrinsic=True,
        )
    # a survivor can change only where its node object or an in-edge pair did
    candidates = replaced.union(c for _, c in pairs if c in a_nodes and c in v_nodes)
    for node_id in sorted(candidates):
        old, new = a_nodes[node_id], v_nodes[node_id]
        # equal in-edge lists mean no reparent, no kind flip and no in-edge
        # change; lists that differ, if only in order, are compared as dicts
        if (old is new or old == new) and a_in.get(node_id) == v_in.get(node_id):
            continue
        sets = {
            key: value
            for key, value in new.properties.items()
            if old.properties.get(key) != value
        }
        removals = frozenset(key for key in old.properties if key not in new.properties)

        old_parent = ancestor.direct_parent(node_id)
        new_parent = version.direct_parent(node_id)
        reparented = old_parent != new_parent

        kind_changes = set()
        in_edge_change = False
        old_in = dict(a_in.get(node_id, ()))
        new_in = dict(v_in.get(node_id, ()))
        for parent, kind in new_in.items():
            if parent not in old_in:
                in_edge_change = True
            elif old_in[parent] is not kind:
                kind_changes.add((parent, kind))
        for parent in old_in:
            # an in-edge that died with its deleted parent is cascade
            # fallout, not an edit of this node
            if parent not in new_in and parent in v_nodes:
                in_edge_change = True

        if sets or removals or reparented or kind_changes or in_edge_change:
            intrinsic_set.add(node_id)
            deltas[node_id] = NodeDelta(
                property_sets=sets,
                property_removals=removals,
                reparented=reparented,
                new_direct_parent=new_parent if reparented else None,
                dep_kind_changes=frozenset(kind_changes),
                intrinsic=True,
            )

    # Propagate along Direct edges of the edited graph: a direct parent's
    # change is mirrored onto its whole direct subtree. A node of the
    # edited graph with no delta yet is an unchanged ancestor node.
    for node_id in _closure(intrinsic_set, version._out, DepKind.DIRECT):
        if node_id not in deltas:
            deltas[node_id] = NodeDelta(intrinsic=False)

    return DiffResult(
        ancestor=ancestor,
        version=version,
        deltas=deltas,
        added_edges=frozenset(added_edges),
        removed_edges=frozenset(removed_edges),
        added=frozenset(added),
        deleted=frozenset(deleted),
        intrinsic=frozenset(intrinsic_set),
    )


def diff_stats(diff: DiffResult) -> DiffStats:
    # every added, intrinsic and propagated node carries a delta; a
    # deleted node does not
    added, intrinsic = len(diff.added), len(diff.intrinsic)
    return DiffStats(added, len(diff.deleted), intrinsic, len(diff.deltas) - added - intrinsic)
