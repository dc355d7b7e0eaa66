"""Reader for the ``.lvlreport`` format that `scenemerge.report` writes.

The merge driver only writes reports, so the reader lives with the tests
that read them back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from scenemerge.levelfile import ParseError, _line_texts, _parse_value
from scenemerge.merge import Resolution
from scenemerge.report import REPORT_VERSION


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


_RESOLUTIONS = {r.value for r in Resolution}


def _read_value(tokens, pos: int, line: str, lineno: int, tagged: bool):
    """Read ``-``, a tagged property value, or a bare token.

    Returns (value, next_pos). ``tagged`` distinguishes property values
    from plain identifiers (parents, digests), whose text could collide
    with a type tag.
    """
    if pos >= len(tokens):
        raise ParseError("missing value", lineno)
    text = tokens[pos]
    if text == "-":
        return None, pos + 1
    if tagged:
        value = _parse_value(tokens[: pos + 2], pos, line, lineno)
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
        tokens = _line_texts(line, lineno)
        if not tokens:
            continue
        directive = tokens[0]
        if not header_seen:
            if directive != "lvlreport" or len(tokens) != 2:
                raise ParseError("expected 'lvlreport <version>' header", lineno)
            if tokens[1] != str(REPORT_VERSION):
                raise ParseError(f"unsupported report version {tokens[1]}", lineno)
            header_seen = True
            continue
        if directive == "policy" and len(tokens) == 2:
            policy = tokens[1]
        elif directive == "meta" and len(tokens) == 3:
            meta[tokens[1]] = tokens[2]
        elif directive == "stat" and len(tokens) == 3:
            try:
                stats[tokens[1]] = float(tokens[2])
            except ValueError:
                raise ParseError(f"bad stat value {tokens[2]!r}", lineno) from None
        elif directive == "conflict":
            if len(tokens) < 3:
                raise ParseError("malformed conflict line", lineno)
            kind = tokens[1]
            entry = ReportConflict(kind=kind, node=tokens[2])
            pos = 3
            if kind in ("property", "add-add"):
                entry.key = tokens[pos]
                pos += 1
            if pos >= len(tokens) or tokens[pos] not in _RESOLUTIONS:
                raise ParseError("missing conflict resolution", lineno)
            entry.resolution = tokens[pos]
            pos += 1
            tagged = kind in ("property", "add-add")
            while pos < len(tokens):
                marker = tokens[pos]
                if marker == "a":
                    entry.value_a, pos = _read_value(tokens, pos + 1, line, lineno, tagged)
                elif marker == "b":
                    entry.value_b, pos = _read_value(tokens, pos + 1, line, lineno, tagged)
                elif marker == "ancestor":
                    entry.ancestor_value, pos = _read_value(tokens, pos + 1, line, lineno, tagged)
                elif marker == "branch":
                    entry.branch = tokens[pos + 1]
                    pos += 2
                else:
                    raise ParseError(f"unknown conflict field {marker!r}", lineno)
            conflicts.append(entry)
            if kind == "delete-modify":
                by_node[entry.node] = entry
        elif directive == "conflict-subtree" and len(tokens) == 3:
            if tokens[1] in by_node:
                by_node[tokens[1]].subtree.append(tokens[2])
        elif directive == "conflict-touched" and len(tokens) == 3:
            if tokens[1] in by_node:
                by_node[tokens[1]].touched.append(tokens[2])
        elif directive == "dropped" and len(tokens) == 4:
            node = tokens[2] if tokens[2] != "-" else None
            dropped.append((tokens[1], node, tokens[3]))
        elif directive == "cycle-edge" and len(tokens) == 4:
            cycle_edges.append((tokens[1], tokens[2], tokens[3]))
        else:
            raise ParseError(f"unknown report directive {directive!r}", lineno)

    if not header_seen:
        raise ParseError("empty report", 1)
    return MergeReport(policy, stats, conflicts, dropped, cycle_edges, meta)
