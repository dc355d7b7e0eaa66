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

from dataclasses import dataclass, field

from .levelfile import ParseError, _format_token, _parse_value, _split_line, format_value
from .merge import (
    AddAddConflict,
    AssetConflict,
    DeleteModifyConflict,
    MergeOutcome,
    MergePolicy,
    PropertyConflict,
    ReparentConflict,
    Resolution,
)

REPORT_VERSION = 1


@dataclass
class ReportConflict:
    """One conflict entry as read back from a report."""

    kind: str  # property | add-add | reparent | delete-modify | asset
    node: str
    key: str | None = None
    resolution: str = "unresolved"
    value_a: object = None
    value_b: object = None
    ancestor_value: object = None
    branch: str | None = None
    subtree: list[str] = field(default_factory=list)
    touched: list[str] = field(default_factory=list)


@dataclass
class MergeReport:
    policy: str
    stats: dict[str, float]
    conflicts: list[ReportConflict]
    dropped: list[tuple[str, str | None, str]]
    cycle_edges: list[tuple[str, str, str]]
    meta: dict[str, str] = field(default_factory=dict)


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


_RESOLUTIONS = {r.value for r in Resolution}


def _read_value(tokens, pos: int, line: str, lineno: int, tagged: bool):
    """Read ``-``, a tagged property value, or a bare token.

    Returns (value, next_pos). ``tagged`` distinguishes property values
    from plain identifiers (parents, digests), whose text could collide
    with a type tag.
    """
    if pos >= len(tokens):
        raise ParseError("missing value", lineno)
    text = tokens[pos].text
    if text == "-":
        return None, pos + 1
    if tagged:
        value = _parse_value([t.text for t in tokens[: pos + 2]], pos, line, lineno)
        return value, pos + 2
    return text, pos + 1


def parse_report(text: str) -> MergeReport:
    policy = "manual"
    stats: dict[str, float] = {}
    conflicts: list[ReportConflict] = []
    by_node: dict[str, ReportConflict] = {}
    dropped: list[tuple[str, str | None, str]] = []
    cycle_edges: list[tuple[str, str, str]] = []
    meta: dict[str, str] = {}
    header_seen = False

    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        tokens = _split_line(line, lineno)
        if not tokens:
            continue
        directive = tokens[0].text
        if not header_seen:
            if directive != "lvlreport" or len(tokens) != 2:
                raise ParseError("expected 'lvlreport <version>' header", lineno)
            if tokens[1].text != str(REPORT_VERSION):
                raise ParseError(f"unsupported report version {tokens[1].text}", lineno)
            header_seen = True
            continue
        if directive == "policy" and len(tokens) == 2:
            policy = tokens[1].text
        elif directive == "meta" and len(tokens) == 3:
            meta[tokens[1].text] = tokens[2].text
        elif directive == "stat" and len(tokens) == 3:
            try:
                stats[tokens[1].text] = float(tokens[2].text)
            except ValueError:
                raise ParseError(f"bad stat value {tokens[2].text!r}", lineno) from None
        elif directive == "conflict":
            if len(tokens) < 3:
                raise ParseError("malformed conflict line", lineno)
            kind = tokens[1].text
            entry = ReportConflict(kind=kind, node=tokens[2].text)
            pos = 3
            if kind in ("property", "add-add"):
                entry.key = tokens[pos].text
                pos += 1
            if pos >= len(tokens) or tokens[pos].text not in _RESOLUTIONS:
                raise ParseError("missing conflict resolution", lineno)
            entry.resolution = tokens[pos].text
            pos += 1
            tagged = kind in ("property", "add-add")
            while pos < len(tokens):
                marker = tokens[pos].text
                if marker == "a":
                    entry.value_a, pos = _read_value(tokens, pos + 1, line, lineno, tagged)
                elif marker == "b":
                    entry.value_b, pos = _read_value(tokens, pos + 1, line, lineno, tagged)
                elif marker == "ancestor":
                    entry.ancestor_value, pos = _read_value(tokens, pos + 1, line, lineno, tagged)
                elif marker == "branch":
                    entry.branch = tokens[pos + 1].text
                    pos += 2
                else:
                    raise ParseError(f"unknown conflict field {marker!r}", lineno)
            conflicts.append(entry)
            if kind == "delete-modify":
                by_node[entry.node] = entry
        elif directive == "conflict-subtree" and len(tokens) == 3:
            if tokens[1].text in by_node:
                by_node[tokens[1].text].subtree.append(tokens[2].text)
        elif directive == "conflict-touched" and len(tokens) == 3:
            if tokens[1].text in by_node:
                by_node[tokens[1].text].touched.append(tokens[2].text)
        elif directive == "dropped" and len(tokens) == 4:
            node = tokens[2].text if tokens[2].text != "-" else None
            dropped.append((tokens[1].text, node, tokens[3].text))
        elif directive == "cycle-edge" and len(tokens) == 4:
            cycle_edges.append((tokens[1].text, tokens[2].text, tokens[3].text))
        else:
            raise ParseError(f"unknown report directive {directive!r}", lineno)

    if not header_seen:
        raise ParseError("empty report", 1)
    return MergeReport(policy, stats, conflicts, dropped, cycle_edges, meta)
