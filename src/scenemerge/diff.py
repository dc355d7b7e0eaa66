"""Three-way diff building blocks: classify one edited version against its ancestor.

Every node of ancestor-union-version receives exactly one class:
Unchanged, Added, Deleted, or Modified. A node is Modified intrinsically
when its own properties or incoming edges changed, and by propagation
when some Direct ancestor (in the edited graph, transitively) was
intrinsically modified; direct dependencies mirror parent changes onto
children, so the mirrored subtree counts as edited. A `DiffResult`
records these classes only; what changed on a node is derived from the
two graphs where it is shown (`merge._describe_edit`).
"""

from __future__ import annotations

from enum import Enum
from typing import Collection

from .graph import (
    DepKind,
    LevelGraph,
    SceneMergeError,
    _closure,
    _differences,
    _Record,
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


class DiffResult(_Record):
    """The class of every node of one version against its ancestor.

    ``added`` and ``deleted`` name the nodes only one side holds,
    ``intrinsic`` the survivors whose own properties or in-edges changed,
    and ``modified`` those plus their direct subtrees in the version,
    added nodes left out. A node of the ancestor in neither ``deleted``
    nor ``modified`` is Unchanged. How a node changed is not recorded:
    the few readers of the details (`merge._describe_edit`) derive them
    from ``ancestor`` and ``version``.
    """

    ancestor: LevelGraph
    version: LevelGraph
    added: frozenset[str]
    deleted: frozenset[str]
    intrinsic: frozenset[str]
    modified: frozenset[str]
    __slots__ = ("ancestor", "version", "added", "deleted", "intrinsic", "modified")

    def nodes_in_class(self, cls: ChangeClass) -> list[str]:
        if cls is ChangeClass.ADDED:
            return sorted(self.added)
        if cls is ChangeClass.DELETED:
            return sorted(self.deleted)
        if cls is ChangeClass.MODIFIED:
            return sorted(self.modified)
        edited = self.modified | self.deleted
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

    A survivor is intrinsically modified when its properties or its
    Direct parent differ, or its in-edges do once the edges from deleted
    parents are left out; nothing more about the change is kept. Both graphs are validated first, the version against the ancestor,
    unless ``validated`` says the caller has already done so; a merge
    validates each of its inputs once. Only the ids and pairs that
    `_differences` names are compared, so a version patched from
    the ancestor costs its patch, not the level.
    """
    if not validated:
        _require_valid(ancestor, "ancestor")
        _require_valid(version, "version", base=ancestor)
    a_nodes, v_nodes = ancestor._nodes, version._nodes
    a_in, v_in = ancestor._in, version._in
    ids, pairs = _differences(version, ancestor)
    added = {node_id for node_id in ids if node_id in v_nodes and node_id not in a_nodes}
    deleted = {node_id for node_id in ids if node_id in a_nodes and node_id not in v_nodes}
    # a kind can differ only where the node object does
    replaced = {node_id for node_id in ids if node_id in a_nodes and node_id in v_nodes}
    check_same_level(ancestor, version, "ancestor", "version", ids=replaced)

    intrinsic: set[str] = set()
    # a survivor can change only where its node object or an in-edge pair did
    for node_id in replaced.union(c for _, c in pairs if c in a_nodes and c in v_nodes):
        old, new = a_nodes[node_id], v_nodes[node_id]
        same_properties = old is new or old == new
        old_in, new_in = a_in.get(node_id), v_in.get(node_id)
        if same_properties and old_in == new_in:
            continue
        # in-edge lists that differ, if only in order, are compared as dicts;
        # an in-edge that died with its deleted parent is cascade fallout,
        # not an edit of this node, unless it was the Direct one
        kept_in = {parent: kind for parent, kind in old_in or () if parent in v_nodes}
        if (
            not same_properties
            or ancestor.direct_parent(node_id) != version.direct_parent(node_id)
            or dict(new_in or ()) != kept_in
        ):
            intrinsic.add(node_id)

    # Propagate along Direct edges of the edited graph: a direct parent's
    # change is mirrored onto its whole direct subtree.
    modified = _closure(intrinsic, version._out, DepKind.DIRECT)
    modified -= added
    return DiffResult(
        ancestor=ancestor,
        version=version,
        added=frozenset(added),
        deleted=frozenset(deleted),
        intrinsic=frozenset(intrinsic),
        modified=frozenset(modified),
    )


def diff_stats(diff: DiffResult) -> DiffStats:
    intrinsic = len(diff.intrinsic)
    return DiffStats(len(diff.added), len(diff.deleted), intrinsic, len(diff.modified) - intrinsic)
