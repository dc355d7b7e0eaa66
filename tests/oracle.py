"""Naive per-op-pair conflict oracle, independent of the merge engine.

Given a base graph and one edit op per branch, this module derives the
expected conflict set straight from the merge rules stated over single
edits: same-parameter double writes conflict, two Direct-parent
assignments conflict, and a deletion conflicts with any modification
of (or new content anchored into) the doomed Direct subtree.

Deliberately shares no code with scenemerge.merge; only the data model
and the edit-op vocabulary are common ground.
"""

from __future__ import annotations

from scenemerge.graph import DepKind, LevelGraph
from scenemerge.merge import (
    AddAddConflict,
    AssetConflict,
    DeleteModifyConflict,
    MergePolicy,
    PropertyConflict,
    ReparentConflict,
)
from scenemerge.sim import (
    AddIndirectEdge,
    AddNode,
    ChangeDepKind,
    DeleteNode,
    EditOp,
    RemoveIndirectEdge,
    RemoveProperty,
    Reparent,
    SetProperty,
)

_NO_CHANGE = object()


def _direct_closure(base: LevelGraph, node_id: str) -> set[str]:
    seen = {node_id}
    frontier = [node_id]
    while frontier:
        current = frontier.pop()
        for child, kind in base.children(current):
            if kind is DepKind.DIRECT and child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


def _modified_nodes(base: LevelGraph, op: EditOp) -> set[str]:
    """Nodes the op counts as intrinsically modified (edits anchor at the
    child for edge changes; additions and deletions are separate classes)."""
    if isinstance(op, SetProperty):
        if base.node(op.id).properties.get(op.key) == op.value:
            return set()
        return {op.id}
    if isinstance(op, RemoveProperty):
        return {op.id}
    if isinstance(op, Reparent):
        return {op.id}
    if isinstance(op, (ChangeDepKind, AddIndirectEdge, RemoveIndirectEdge)):
        return {op.child}
    return set()


def _property_write(op: EditOp):
    """(node, key, new-value-or-removal) for property-level ops."""
    if isinstance(op, SetProperty):
        return (op.id, op.key, op.value)
    if isinstance(op, RemoveProperty):
        return (op.id, op.key, None)
    return None


def _new_direct_parent(base: LevelGraph, op: EditOp):
    """The op's effect on some node's Direct parent, or no change."""
    if isinstance(op, Reparent):
        return (op.id, op.new_parent)
    if isinstance(op, ChangeDepKind):
        if op.kind is DepKind.DIRECT:
            return (op.child, op.parent)
        if base.edge_kind(op.parent, op.child) is DepKind.DIRECT:
            return (op.child, None)
    return None


def expected_conflicts(
    base: LevelGraph, op_a: EditOp, op_b: EditOp, policy: MergePolicy
) -> set[tuple]:
    conflicts: set[tuple] = set()

    # same parameter written by both branches
    write_a = _property_write(op_a)
    write_b = _property_write(op_b)
    if write_a and write_b and write_a[:2] == write_b[:2]:
        node, key = write_a[:2]
        value_a, value_b = write_a[2], write_b[2]
        if value_a != value_b:
            averaged = (
                policy.numeric_averaging
                and value_a is not None
                and value_b is not None
                and value_a.kind == "real"
                and value_b.kind == "real"
                and base.node(node).kind in policy.averageable_kinds
            )
            if not averaged:
                conflicts.add(("property", node, key))

    # two Direct-parent assignments for one node
    dp_a = _new_direct_parent(base, op_a)
    dp_b = _new_direct_parent(base, op_b)
    if dp_a and dp_b and dp_a[0] == dp_b[0] and dp_a[1] != dp_b[1]:
        conflicts.add(("reparent", dp_a[0]))

    # the same node added twice
    if isinstance(op_a, AddNode) and isinstance(op_b, AddNode) and op_a.id == op_b.id:
        if op_a.parent != op_b.parent:
            conflicts.add(("reparent", op_a.id))
        props_a = dict(op_a.properties)
        props_b = dict(op_b.properties)
        for key in set(props_a) & set(props_b):
            if props_a[key] != props_b[key]:
                conflicts.add(("add-add", op_a.id, key))

    # a deletion against anything touching the doomed subtree
    for branch, deleter, other in (("a", op_a, op_b), ("b", op_b, op_a)):
        if not isinstance(deleter, DeleteNode):
            continue
        if isinstance(other, DeleteNode):
            continue  # concurrent deletions agree wherever they overlap
        scope = _direct_closure(base, deleter.id)
        hit = bool(_modified_nodes(base, other) & scope)
        if isinstance(other, AddNode) and other.parent in scope:
            hit = True  # new content anchored under the doomed subtree
        if isinstance(other, Reparent) and other.new_parent in scope:
            hit = True  # survivor moved into the doomed subtree
        if hit:
            conflicts.add(("delete-modify", branch, deleter.id))

    return conflicts


def conflict_key(conflict) -> tuple:
    """A merge conflict in the form `expected_conflicts` gives."""
    if isinstance(conflict, PropertyConflict):
        return ("property", conflict.node, conflict.key)
    if isinstance(conflict, AddAddConflict):
        return ("add-add", conflict.node, conflict.key)
    if isinstance(conflict, ReparentConflict):
        return ("reparent", conflict.node)
    if isinstance(conflict, DeleteModifyConflict):
        return ("delete-modify", conflict.deleting_branch.value, conflict.deleted_node)
    if isinstance(conflict, AssetConflict):
        return ("asset", conflict.asset_id)
    return ("unknown",)


# -- exhaustive op enumeration over a fixed base --------------------------------


def sweep_ops(base: LevelGraph) -> list[EditOp]:
    """Every applicable single op over the base, with enough value variety
    to produce both agreeing and disagreeing pairs."""
    from scenemerge.graph import PropertyValue

    ops: list[EditOp] = []
    node_ids = sorted(base.node_ids())

    value_variants = (PropertyValue.text("sweep-one"), PropertyValue.text("sweep-two"))
    for node_id in node_ids:
        node = base.node(node_id)
        for key in sorted(node.properties):
            for variant in value_variants:
                if node.properties[key] != variant:
                    ops.append(SetProperty(node_id, key, variant))
            ops.append(RemoveProperty(node_id, key))
        ops.append(SetProperty(node_id, "sweep-extra", value_variants[0]))

    for node_id in node_ids:
        if node_id == base.root:
            continue
        ops.append(DeleteNode(node_id))
        descendants = _descendants(base, node_id)
        current = base.direct_parent(node_id)
        for parent in node_ids:
            if parent in descendants or parent == node_id or parent == current:
                continue
            ops.append(Reparent(node_id, parent))

    for edge in base.edges():
        if edge.kind is DepKind.DIRECT:
            ops.append(ChangeDepKind(edge.parent, edge.child, DepKind.INDIRECT))
        elif base.direct_parent(edge.child) is None:
            ops.append(ChangeDepKind(edge.parent, edge.child, DepKind.DIRECT))

    for parent in node_ids:
        for child in node_ids:
            if parent == child or child == base.root:
                continue
            if base.edge_kind(parent, child) is not None:
                continue
            if parent in _descendants(base, child):
                continue
            ops.append(AddIndirectEdge(parent, child))

    for edge in base.edges():
        if edge.kind is not DepKind.INDIRECT:
            continue
        survivors = _reachable_without(base, (edge.parent, edge.child))
        if edge.child in survivors:
            ops.append(RemoveIndirectEdge(edge.parent, edge.child))

    for parent in (node_ids[0], node_ids[1]):
        for variant in value_variants:
            ops.append(AddNode("sweep-new", "Prop", parent, (("color", variant),)))
    return ops


def _descendants(base: LevelGraph, start: str) -> set[str]:
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for child, _ in base.children(current):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


def _reachable_without(base: LevelGraph, skip: tuple[str, str]) -> set[str]:
    seen = {base.root}
    frontier = [base.root]
    while frontier:
        current = frontier.pop()
        for child, _ in base.children(current):
            if (current, child) == skip or child in seen:
                continue
            seen.add(child)
            frontier.append(child)
    return seen
