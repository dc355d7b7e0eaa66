"""Merge report format (``.lvlreport``): line-oriented, token-structured.

The report preserves everything that did not make it into the merged
document: every conflict with both branches' values and its resolution,
every dropped edit, and every edge removed by cycle repair. Line
inventory::

    lvlreport 1
    policy prefer-b
    meta user alice
    stat ancestor_nodes 79
    conflict property lamp intensity took-b a real 2.0 b real 4.0 ancestor real 1.0
    conflict add-add painting color unresolved a text "red" b text "blue"
    conflict reparent bunny unresolved a dollhouse b crate
    conflict delete-modify planet-1 took-a branch a
    conflict-subtree planet-1 planet-1-material
    conflict-touched planet-1 planet-1-material
    conflict asset code/ai.py unresolved a 9f86d0... b e3b0c4... ancestor -
    dropped b planet-1-material "set color = text \\"green\\""
    cycle-edge engine chassis indirect

Property values reuse the level-document value syntax; ``-`` stands for
an absent value (or a removal, on property conflict sides).
"""

from __future__ import annotations

from .levelfile import _format_token, format_value
from .merge import (
    AddAddConflict,
    AssetConflict,
    DeleteModifyConflict,
    MergeOutcome,
    MergePolicy,
    PropertyConflict,
    ReparentConflict,
)

REPORT_VERSION = 1


def _value_text(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):  # asset digests, parent ids
        return _format_token(value)
    return format_value(value)


def render_report(
    outcome: MergeOutcome, policy: MergePolicy, meta: dict[str, str] | None = None
) -> str:
    lines = [f"lvlreport {REPORT_VERSION}", f"policy {policy.resolution.value}"]
    for key in sorted(meta or {}):
        lines.append(f"meta {_format_token(key)} {_format_token((meta or {})[key])}")

    stats = outcome.stats
    lines.append(f"stat ancestor_nodes {stats.ancestor_nodes}")
    lines.append(f"stat ancestor_edges {stats.ancestor_edges}")
    lines.append(f"stat diff_a_nodes {stats.diff_a_edited}")
    lines.append(f"stat diff_b_nodes {stats.diff_b_edited}")
    lines.append(f"stat merged_nodes {stats.merged_nodes}")
    lines.append(f"stat merged_edges {stats.merged_edges}")
    lines.append(f"stat conflicts {len(outcome.conflicts)}")
    lines.append(f"stat unresolved {len(outcome.unresolved)}")
    lines.append(f"stat dropped {len(outcome.dropped)}")
    lines.append(f"stat removed_cycle_edges {len(outcome.removed_cycle_edges)}")
    lines.append(f"stat wall_time_s {stats.wall_time_s:.6f}")

    for conflict in outcome.conflicts:
        res = conflict.resolution.value
        if isinstance(conflict, PropertyConflict):
            lines.append(
                f"conflict property {_format_token(conflict.node)} "
                f"{_format_token(conflict.key)} {res} "
                f"a {_value_text(conflict.value_a)} b {_value_text(conflict.value_b)} "
                f"ancestor {_value_text(conflict.ancestor_value)}"
            )
        elif isinstance(conflict, AddAddConflict):
            lines.append(
                f"conflict add-add {_format_token(conflict.node)} "
                f"{_format_token(conflict.key)} {res} "
                f"a {_value_text(conflict.value_a)} b {_value_text(conflict.value_b)}"
            )
        elif isinstance(conflict, ReparentConflict):
            lines.append(
                f"conflict reparent {_format_token(conflict.node)} {res} "
                f"a {_value_text(conflict.parent_a)} b {_value_text(conflict.parent_b)}"
            )
        elif isinstance(conflict, DeleteModifyConflict):
            lines.append(
                f"conflict delete-modify {_format_token(conflict.deleted_node)} {res} "
                f"branch {conflict.deleting_branch.value}"
            )
            for member in conflict.subtree:
                lines.append(
                    f"conflict-subtree {_format_token(conflict.deleted_node)} "
                    f"{_format_token(member)}"
                )
            for member in conflict.touched:
                lines.append(
                    f"conflict-touched {_format_token(conflict.deleted_node)} "
                    f"{_format_token(member)}"
                )
        elif isinstance(conflict, AssetConflict):
            lines.append(
                f"conflict asset {_format_token(conflict.asset_id)} {res} "
                f"a {_value_text(conflict.digest_a)} b {_value_text(conflict.digest_b)} "
                f"ancestor {_value_text(conflict.ancestor_digest)}"
            )

    for drop in outcome.dropped:
        node = _format_token(drop.node) if drop.node is not None else "-"
        # description always quoted so arbitrary text stays one token
        lines.append(f"dropped {drop.branch.value} {node} {_quoted(drop.description)}")

    for edge in outcome.removed_cycle_edges:
        lines.append(
            f"cycle-edge {_format_token(edge.parent)} {_format_token(edge.child)} "
            f"{edge.kind.value}"
        )
    return "\n".join(lines) + "\n"


def _quoted(text: str) -> str:
    rendered = _format_token(text)
    if not rendered.startswith('"'):
        rendered = '"' + rendered + '"'
    return rendered

