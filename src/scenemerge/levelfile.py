"""Canonical line-oriented text format for level documents and merge reports.

Level documents (``.lvl``) are plain UTF-8 text, one fact per line::

    lvl 1
    root scene
    node scene Scene
    node lamp Light
    prop lamp intensity real 2.5
    prop lamp name text "desk lamp"
    edge scene lamp direct
    asset textures/wood.png 9f86d081884c7d65...

Directives may appear in any order; parsing reorders them, and reads a
text already in canonical form, in bare tokens, in one checked pass. The
canonical form produced by `serialize` sorts nodes by id, properties by
(node, key), edges by (parent, child) and manifest entries by asset id,
renders reals in shortest round-trip decimal form, and uses LF line
endings. Equal graphs therefore always serialize to identical bytes.

Identifiers (node ids, kinds, property keys, asset ids) are written
bare when they match ``[A-Za-z0-9_.+/:@-]+`` and double-quoted with
backslash escapes otherwise. Text values follow the same rule: ``text
omega`` is written bare, ``text "desk lamp"`` and the empty ``text ""``
quoted.

A merge parses three versions of one level that share almost every
line, and reads few of their properties. A canonical read checks every
line and literal but builds no property and splits no text into lines:
it keeps the text, and a `Node` builds its properties from its own prop
lines in it when they are first read (two threads that read them at
once build equal dicts); the graph's index of the nodes holding each
ref and asset target is filled from those lines, and the whole graph
check `graph.validate` makes is decided on the read's sorted columns.
``parse(text, base=ancestor)`` reads a version against such a read: the
two texts are compared in blocks of characters, in C, and walked line
by line, as a merge of lines in section order, only where they differ;
only the lines that are not in both texts are tokenized and applied to
the base through `graph._Patch`, and every node whose lines are all
shared is the base's own `Node`. The result equals ``parse(text)``; a
text out of that order, or whose patch cannot be shown equal, is parsed
whole, so errors are the same with or without a base.

The merged level is such a patch, and its record names the ancestor, so
while that read is alive `serialize` writes the merged level as runs of
the ancestor's text with only the patched lines rendered.

Merge reports (``.lvlreport``) use the same tokenizer; see
`render_report` for the line inventory.
"""

from __future__ import annotations

import math
import os
import re
import stat
from bisect import bisect_left, bisect_right
from collections import deque
from contextlib import contextmanager, suppress
from itertools import accumulate, compress, count, repeat
from operator import eq, itemgetter, le, lt
from typing import Callable, Container, Iterable, Iterator, TextIO

from .graph import (
    DepKind,
    LevelGraph,
    Node,
    PropertyValue,
    SceneMergeError,
    _Patch,
    _VALUE_KINDS,
    _gc_paused,
    _Record,
    _set,
)

FORMAT_VERSION = 1

_BARE_TOKEN = re.compile(r"[A-Za-z0-9_.+/:@-]+")
# a line `_split_line` would cut into bare tokens at spaces and tabs only
_PLAIN_LINE = re.compile(r"[A-Za-z0-9_.+/:@\- \t]*")
_INT_LITERAL = re.compile(r"-?\d+")
_DEP_KINDS = {kind.value: kind for kind in DepKind}
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


class ParseError(SceneMergeError):
    """A syntax or consistency error in a level document or report.

    The message names ``path``, the file the text was read from, when given.
    """

    def __init__(self, message: str, line: int, column: int = 1, path=None):
        where = f"line {line}, column {column}: {message}"
        super().__init__(where if path is None else f"{path}: {where}")
        self.line = line
        self.column = column
        self.reason = message


class LevelDocument(_Record):
    """A parsed level file: format version plus the graph (and manifest)."""

    __slots__ = ("format_version", "graph")


# -- tokenizer ---------------------------------------------------------------


# characters that some line splitters treat as boundaries; always escaped
_LINEISH = "\x85  "


def _format_token(value: str) -> str:
    if value and _BARE_TOKEN.fullmatch(value):
        return value
    out = ['"']
    for ch in value:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif ord(ch) < 0x20 or ch in _LINEISH:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _split_line(line: str, lineno: int) -> list[tuple[int, str]]:
    """The (column, text) pair of each token of ``line``."""
    tokens: list[tuple[int, str]] = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch in " \t":
            i += 1
            continue
        start = i
        if ch == '"':
            i += 1
            parts: list[str] = []
            while True:
                if i >= n:
                    raise ParseError("unterminated quoted string", lineno, start + 1)
                ch = line[i]
                if ch == '"':
                    i += 1
                    break
                if ch == "\\":
                    if i + 1 >= n:
                        raise ParseError("dangling escape", lineno, i + 1)
                    esc = line[i + 1]
                    if esc in _UNESCAPES:
                        parts.append(_UNESCAPES[esc])
                        i += 2
                    elif esc == "u":
                        digits = line[i + 2 : i + 6]
                        if len(digits) != 4 or not all(c in "0123456789abcdefABCDEF" for c in digits):
                            raise ParseError("invalid \\u escape", lineno, i + 1)
                        code = int(digits, 16)
                        if 0xD800 <= code <= 0xDFFF:  # a surrogate, which UTF-8 cannot write
                            raise ParseError("invalid \\u escape", lineno, i + 1)
                        parts.append(chr(code))
                        i += 6
                    else:
                        raise ParseError(f"unknown escape \\{esc}", lineno, i + 1)
                else:
                    parts.append(ch)
                    i += 1
            tokens.append((start + 1, "".join(parts)))
        else:
            match = _BARE_TOKEN.match(line, i)
            if not match:
                raise ParseError(f"unexpected character {ch!r}", lineno, i + 1)
            i = match.end()
            tokens.append((start + 1, match.group()))
    return tokens


def _line_texts(line: str, lineno: int) -> list[str]:
    """The token texts `_split_line` gives, by `str.split` where it is the same."""
    if _PLAIN_LINE.fullmatch(line):
        return line.split()
    return [text for _, text in _split_line(line, lineno)]


def _column(line: str, lineno: int, index: int) -> int:
    """Column of token ``index`` of a line that is known to tokenize, for an error."""
    return _split_line(line, lineno)[index][0]


# -- values ------------------------------------------------------------------


def format_value(value: PropertyValue) -> str:
    """Render a property value as ``<tag> <literal>`` (canonical form)."""
    if value.kind == "bool":
        return f"bool {'true' if value.value else 'false'}"
    if value.kind == "int":
        return f"int {value.value}"
    if value.kind == "real":
        return f"real {value.value!r}"
    return f"{value.kind} {_format_token(str(value.value))}"


def _parse_value(texts: list[str], start: int, line: str, lineno: int) -> PropertyValue:
    """Read ``<tag> <literal>`` from token ``start`` of ``line``, split as ``texts``."""
    if start >= len(texts):
        raise ParseError("missing property value", lineno)
    tag = texts[start]
    if start + 1 >= len(texts):
        raise ParseError(f"missing literal after {tag!r}", lineno, _column(line, lineno, start))
    literal = texts[start + 1]
    if len(texts) > start + 2:
        raise ParseError(
            "trailing tokens after value", lineno, _column(line, lineno, start + 2)
        )
    try:
        if tag == "bool":
            if literal not in ("true", "false"):
                raise ValueError
            return PropertyValue.boolean(literal == "true")
        if tag == "int":
            if not _INT_LITERAL.fullmatch(literal):
                raise ValueError
            return PropertyValue.integer(int(literal))
        if tag == "real":
            return PropertyValue.real(float(literal))
        if tag == "text":
            return PropertyValue.text(literal)
        if tag == "ref":
            return PropertyValue.node_ref(literal)
        if tag == "asset":
            return PropertyValue.asset_ref(literal)
    except ValueError:
        raise ParseError(
            f"invalid {tag} literal {literal!r}", lineno, _column(line, lineno, start + 1)
        ) from None
    raise ParseError(f"unknown property type tag {tag!r}", lineno, _column(line, lineno, start))


# -- document parsing --------------------------------------------------------


def _walk(numbered_lines, version: int | None) -> tuple:
    """Read ``(line number, line)`` pairs into ``(version, root, nodes, props, edges, assets)``.

    ``version`` is None until the ``lvl`` header has been read. The root
    is an ``(id, line number)`` pair or None, and each table maps a key
    the document can hold once to its value and the number of the line
    that set it. Every error a single line can hold, and every key set
    twice among these lines, raises `ParseError` here; the references
    between lines are checked by the caller.
    """
    root: tuple[str, int] | None = None
    nodes: dict[str, tuple[str, int]] = {}
    props: dict[tuple[str, str], tuple[PropertyValue, int]] = {}
    edges: dict[tuple[str, str], tuple[DepKind, int]] = {}
    assets: dict[str, tuple[str, int]] = {}

    for lineno, line in numbered_lines:
        line = line.rstrip("\r")
        tokens = _line_texts(line, lineno)
        if not tokens:
            continue
        directive = tokens[0]

        if version is None:
            if directive != "lvl":
                raise ParseError("document must start with an 'lvl <version>' header", lineno)
            if len(tokens) != 2 or not re.fullmatch(r"[0-9]+", tokens[1]):
                raise ParseError("malformed header, expected 'lvl <version>'", lineno)
            version = int(tokens[1])
            if version != FORMAT_VERSION:
                raise ParseError(
                    f"unsupported format version {version}", lineno, _column(line, lineno, 1)
                )
            continue

        if directive == "root":
            if len(tokens) != 2:
                raise ParseError("expected 'root <id>'", lineno)
            if root is not None:
                raise ParseError(f"duplicate root directive (first at line {root[1]})", lineno)
            root = (tokens[1], lineno)
        elif directive == "node":
            if len(tokens) != 3:
                raise ParseError("expected 'node <id> <kind>'", lineno)
            node_id, kind = tokens[1], tokens[2]
            if node_id in nodes:
                raise ParseError(
                    f"duplicate node id {node_id!r} (first defined at line {nodes[node_id][1]})",
                    lineno,
                    _column(line, lineno, 1),
                )
            if not node_id or not kind:
                raise ParseError("node id and kind must be non-empty", lineno)
            nodes[node_id] = (kind, lineno)
        elif directive == "prop":
            if len(tokens) < 4:
                raise ParseError("expected 'prop <node> <key> <type> <value>'", lineno)
            owner, key = tokens[1], tokens[2]
            if not key:
                raise ParseError("property key must be non-empty", lineno, _column(line, lineno, 2))
            if (owner, key) in props:
                raise ParseError(
                    f"duplicate property {key!r} on node {owner!r} "
                    f"(first set at line {props[(owner, key)][1]})",
                    lineno,
                    _column(line, lineno, 2),
                )
            props[(owner, key)] = (_parse_value(tokens, 3, line, lineno), lineno)
        elif directive == "edge":
            if len(tokens) != 4:
                raise ParseError("expected 'edge <parent> <child> <direct|indirect>'", lineno)
            parent, child, kind_text = tokens[1], tokens[2], tokens[3]
            dep_kind = _DEP_KINDS.get(kind_text)
            if dep_kind is None:
                raise ParseError(
                    f"unknown dependency kind {kind_text!r}", lineno, _column(line, lineno, 3)
                )
            if parent == child:
                raise ParseError(f"self-loop edge on {parent!r}", lineno, _column(line, lineno, 1))
            if (parent, child) in edges:
                raise ParseError(
                    f"duplicate edge {parent!r} -> {child!r} "
                    f"(first at line {edges[(parent, child)][1]})",
                    lineno,
                    _column(line, lineno, 1),
                )
            edges[(parent, child)] = (dep_kind, lineno)
        elif directive == "asset":
            if len(tokens) != 3:
                raise ParseError("expected 'asset <id> <digest>'", lineno)
            asset_id = tokens[1]
            if asset_id in assets:
                raise ParseError(
                    f"duplicate asset {asset_id!r} (first at line {assets[asset_id][1]})",
                    lineno,
                    _column(line, lineno, 1),
                )
            assets[asset_id] = (tokens[2], lineno)
        elif directive == "lvl":
            raise ParseError("duplicate header", lineno)
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)

    return version, root, nodes, props, edges, assets


@_gc_paused()
def parse(text: str, base: LevelDocument | None = None) -> LevelDocument:
    """Parse a level document.

    Structural graph invariants that intermediate merge states may break
    (acyclicity, reachability, single Direct parent) are left to
    `graph.validate`; everything a document cannot meaningfully express
    twice (duplicate ids, duplicate edges, duplicate keys) is an error
    here, with line/column positions.

    A text in canonical form is read in one checked pass, and kept as
    the one copy of its lines (see `_read_canonical`); any other text is
    read line by line (`_read_lines`).

    ``base`` is an earlier parse of a version of the same level, such as
    a merge's ancestor. The result is the same document, but only the
    lines in which the text differs from the base's text are read (see
    `_parse_against`), and every node whose lines are all shared is the
    base's own `Node` object. Where that cannot be shown to give
    ``parse(text)``, the text is parsed whole, so errors are raised
    exactly as without a base.
    """
    return (base and _parse_against(text, base)) or _read_canonical(text) or _read_lines(text)


def _read_lines(text: str) -> LevelDocument:
    """Any text's document, read line by line; a token's column is found only for an error."""
    version, root, nodes, props, edges, assets = _walk(enumerate(text.split("\n"), start=1), None)
    if version is None:
        raise ParseError("empty document, expected 'lvl <version>' header", 1)
    if root is None:
        raise ParseError("document has no root directive", 1)
    if root[0] not in nodes:
        raise ParseError(f"root {root[0]!r} is not a declared node", root[1])

    for (owner, key), (_, lineno) in props.items():
        if owner not in nodes:
            raise ParseError(f"property on unknown node {owner!r}", lineno)
    for (parent, child), (_, lineno) in edges.items():
        for end in (parent, child):
            if end not in nodes:
                raise ParseError(f"edge references unknown node {end!r}", lineno)

    props_by_owner: dict[str, dict[str, PropertyValue]] = {}
    for (owner, key), (value, _) in props.items():
        props_by_owner.setdefault(owner, {})[key] = value
    graph = LevelGraph._of(
        root[0],
        {
            node_id: Node(node_id, kind, props_by_owner.get(node_id, {}))
            for node_id, (kind, _) in nodes.items()
        },
        {pair: kind for pair, (kind, _) in edges.items()},
        {aid: digest for aid, (digest, _) in assets.items()},
    )
    return LevelDocument(version, graph)


_SECTIONS = ("root", "node", "prop", "edge", "asset")  # in the order `serialize` writes them
_RANKS = {directive: rank for rank, directive in enumerate(_SECTIONS)}
_HEADER = f"lvl {FORMAT_VERSION}\n"
# a prop line's value: first a literal whose characters alone show that `format_value`
# spells it so (a real of at most 6 integer and 8 fraction digits, at least 1e-4 in
# size, with no zero after its last digit but in ``.0`` and not ``-0.0``; an int of at
# most 18 digits, with no leading zero and not ``-0``; a bool; a text; ASCII digits
# only, as `float` reads other digits too); else, the third group, a ref or an asset;
# else, the fourth, any other ``<tag> <literal>``, which the read checks in bulk
_PROP_VALUE = (
    r"(?:real -?(?:[1-9][0-9]{{0,5}}\.(?:0|[0-9]{{0,7}}[1-9])|0\.(?!0000)[0-9]{{0,7}}[1-9])|real 0\.0"
    r"|int (?:0|-?[1-9][0-9]{{0,17}})|bool (?:true|false)|text {t}|((?:ref|asset) {t})"
    r"|([a-z]+ {t}))"
)
# a canonical line of each section: bare tokens between single spaces
_SECTION_LINES = [re.compile(line.format(t=_BARE_TOKEN.pattern), re.MULTILINE) for line in (
    r"^root ({t})$", r"^node ({t}) ({t})$", r"^prop ({t}) ({t}) " + _PROP_VALUE + "$",
    r"^edge ({t}) ({t}) (direct|indirect)$", r"^asset ({t}) ({t})$",
)]
_first, _second, _third, _fourth = itemgetter(0), itemgetter(1), itemgetter(2), itemgetter(3)
# the start of a node, prop or edge line of a key, after the newline before it
_LINE_STARTS = ("\nnode {} ".format, "\nprop {} ".format, "\nedge {0[0]} {0[1]} ".format)
_MARK = 32  # prop lines between two owners whose first prop line a canonical text marks


class _Canonical(_Record):
    """A canonical read's text, where its lines are, and whether its level is valid.

    ``bounds`` holds where the root, node, prop, edge and asset sections
    start, then the text's length. ``keys`` holds, for the node, prop and
    edge sections, each line's key in text order: its node id, owner id
    or (parent, child) pair. ``marks`` holds every `_MARK`th owner of a
    prop line and where that owner's first prop line starts, so a node's
    prop lines are found a short forward search away. ``valid`` is what
    `graph._is_valid` says of the level, decided by the read on its
    columns (`_is_valid_columns`).
    """

    __slots__ = ("text", "bounds", "keys", "marks", "valid")

    def line_at(self, section: int, index: int, pos: int) -> int:
        """Where line ``index`` of the node (0), prop (1) or edge (2) section
        starts, searched forward from ``pos``, a line start at or before it,
        or from the last marked owner at or before the line's, if later.
        The line must be the first of its key (a `bisect_left` or
        `bisect_right` index); an index past the last line gives the
        section's end."""
        keys = self.keys[section]
        if index == len(keys):
            return self.bounds[section + 2]
        key = keys[index]
        if section == 1:
            marked, starts = self.marks
            pos = max(pos, starts[bisect_right(marked, key) - 1])
        return self.text.find(_LINE_STARTS[section](key), pos - 1) + 1


def _read_canonical(text: str) -> LevelDocument | None:
    """The document of ``text`` when `serialize` writes exactly that text; else None.

    That is the header, the root line, then the node, prop, edge and asset
    lines, each section in key order (as the space sorts first, its lines
    sorted, its keys distinct), bare tokens between single spaces, a final
    newline, and each literal spelled as `format_value` spells it.

    The text is not split into lines: `str.find` places each section, one
    pattern per section reads its lines' fields, and every line is checked
    to match it. The prop pattern (`_PROP_VALUE`) takes the literals whose
    characters show they are so spelled, and captures only a ref or asset
    value and any other literal; each distinct one of those is checked in
    bulk (`_spelled_as_written`). No property is built: a `Node`
    builds its properties from its own run of prop lines in the text
    (`_Canonical.line_at`) when they are first read, one `PropertyValue`
    per distinct literal, and the graph's ref and asset index
    (`graph._holders`) is filled from the captured values.

    Each id in a line is read as its position among the sorted node ids,
    and the edges as a parent and a child column of positions, sorted by
    parent. On those columns the read decides the whole check
    `graph._is_valid` would make (`_is_valid_columns`) and keeps the
    verdict in `_Canonical.valid`. The graph keeps the text, with the
    verdict, in `LevelGraph._lines`.
    """
    if not text.startswith(_HEADER) or not text.endswith("\n"):
        return None
    # each section starts at the first line of its directive, or where the next one
    # does; a line out of place fails its section's pattern
    found, at = [], len(_HEADER)
    for directive in _SECTIONS[1:]:
        found.append(text.find(f"\n{directive} ", at - 1) + 1)
        at = found[-1] or at
    bounds = [len(text)]
    for start in reversed(found):
        bounds.append(start or bounds[-1])
    bounds = [len(_HEADER), *reversed(bounds)]
    rows = []
    for pattern, lo, hi in zip(_SECTION_LINES, bounds, bounds[1:]):
        rows.append(pattern.findall(text, lo, hi))  # a match per line that matches
        if len(rows[-1]) != text.count("\n", lo, hi):
            return None
    root, node_rows, prop_rows, edge_rows, asset_rows = rows

    # each id is read as its position among the node ids, which the check below
    # requires to be sorted, so positions sort as their ids do
    kinds = dict(node_rows)
    ids = list(kinds)
    position = dict(zip(ids, count()))
    try:
        [root] = map(position.__getitem__, root)  # the one root line names a node
        owners = list(map(position.__getitem__, map(_first, prop_rows)))
        parents = list(map(position.__getitem__, map(_first, edge_rows)))
        children = list(map(position.__getitem__, map(_second, edge_rows)))
    except (KeyError, ValueError):
        return None
    keys, held = list(map(_second, prop_rows)), list(map(_third, prop_rows))
    assets = dict(asset_rows)
    if (
        _spelled_as_written(dict.fromkeys(filter(None, map(_fourth, prop_rows)))) is None
        or (len(ids), len(assets)) != (len(node_rows), len(asset_rows))
        or any(map(eq, parents, children))  # a self-loop
        # each section strictly increasing in its key columns
        or not all(map(lt, ids, ids[1:]))
        or not all(map(le, owners, owners[1:]))
        or any(compress(map(le, keys[1:], keys), map(eq, owners[1:], owners)))
        or not all(map(le, parents, parents[1:]))
        or any(compress(map(le, children[1:], children), map(eq, parents[1:], parents)))
        or sorted(asset_rows) != asset_rows
    ):
        return None
    dependencies = list(map(_third, edge_rows))
    del rows, node_rows, prop_rows, edge_rows, keys  # the read's largest allocation

    # the level's strings for the owner and edge columns: one string per id
    owners = list(map(ids.__getitem__, owners))
    pairs = list(zip(map(ids.__getitem__, parents), map(ids.__getitem__, children)))
    edges = dict(zip(pairs, map(_DEP_KINDS.get, dependencies)))
    # the index `graph._holders` would build, from the captured ref and asset values
    holders: tuple[dict[str, list[str]], dict[str, list[str]]] = ({}, {})
    for owner, value in compress(zip(owners, held), held):
        tag, _, target = value.partition(" ")
        holders[tag == "asset"].setdefault(target, []).append(owner)
    valid = _is_valid_columns(root, parents, children, dependencies, holders, position, assets)

    # the text and the keys of its node, prop and edge lines: a later parse walks its
    # text against this one, and `serialize` copies it into a level patched from it
    marked, starts = owners[::_MARK], [bounds[2]]
    for owner in marked:
        starts.append(text.find(_LINE_STARTS[1](owner), starts[-1] - 1) + 1)
    canonical = _Canonical(text, bounds, (ids, owners, pairs), (marked, starts[1:]), valid)
    # the `PropertyValue` of each checked ``<tag> <literal>``
    values = _Memo(lambda value: _parse_value(value.split(" "), 0, value, 0))

    def properties(node_id: str) -> dict[str, PropertyValue]:
        lo = bisect_left(owners, node_id)
        start = canonical.line_at(1, lo, 0)
        end = canonical.line_at(1, bisect_right(owners, node_id, lo), start)
        owned = {}
        for line in text[start:end].splitlines():
            _, _, key, value = line.split(" ", 3)
            owned[key] = values[value]
        return owned

    # each node is built field by field, in C, with no properties but their reader
    words = {}
    nodes = list(map(Node.__new__, repeat(Node, len(ids))))
    kinds = map(words.setdefault, kinds.values(), kinds.values())
    for field, column in (("id", ids), ("kind", kinds), ("_read", repeat(properties))):
        deque(map(_set, nodes, repeat(field), column), 0)
    graph = LevelGraph._of(ids[root], dict(zip(ids, nodes)), edges, assets)
    graph._holders = holders
    graph._lines = canonical
    return LevelDocument(FORMAT_VERSION, graph)


def _spelled_as_written(values: Iterable[str]) -> dict[str, list[str]] | None:
    """The literals of the distinct ``<tag> <literal>`` ``values``, each a bare
    token, by tag; None unless `format_value` spells each value so (it does
    not spell ``real 1.50``, ``real -0.0``, ``int 007`` or ``color red``).
    Checked in bulk, tag by tag."""
    by_tag: dict[str, list[str]] = {tag: [] for tag in _VALUE_KINDS}
    for value in values:
        tag, _, literal = value.partition(" ")
        if tag not in by_tag:
            return None
        by_tag[tag].append(literal)
    reals, ints = by_tag["real"], by_tag["int"]
    try:
        floats = list(map(float, reals))
        spelled = list(map(repr, floats)) == reals and list(map(str, map(int, ints))) == ints
    except ValueError:
        return None
    finite = all(map(math.isfinite, floats)) and "-0.0" not in reals
    return by_tag if spelled and finite and {*by_tag["bool"]} <= {"true", "false"} else None


def _is_valid_columns(
    root: int, parents: list[int], children: list[int], dependencies: list[str],
    holders: tuple[dict, dict], declared: dict[str, int], assets: Container[str],
) -> bool:
    """`graph._is_valid` of a canonical read's level, decided on its columns.

    ``parents`` and ``children`` hold each edge's ends as positions among
    the sorted node ids, in the edge section's order, so by parent, and
    ``dependencies`` each edge's kind as written. So every edge ends on a
    node, and a node's out-edges are one slice of the child column, at an
    offset counted from the parent column. The level is valid when the
    root has no in-edge, no child is named by two Direct edges, Kahn's
    walk from the root takes every node, and the ``holders`` of
    `graph._holders` name only ``declared`` nodes and manifest ``assets``.
    """
    direct = list(compress(children, map("direct".__eq__, dependencies)))
    if len(set(direct)) != len(direct):
        return False  # a node with two Direct parents
    pending, out = [0] * len(declared), [0] * len(declared)  # in- and out-degrees
    for child in children:
        pending[child] += 1
    if pending[root]:
        return False  # an edge into the root
    for parent in parents:
        out[parent] += 1
    offsets = [0, *accumulate(out)]
    taken = [root]  # a node is taken once, when its last parent is
    for node in taken:
        for child in children[offsets[node] : offsets[node + 1]]:
            left = pending[child] - 1
            pending[child] = left
            if not left:
                taken.append(child)
    refs, uses = holders
    return len(taken) == len(declared) and all(map(declared.__contains__, refs)) and all(
        map(assets.__contains__, uses)
    )


def _line_key(line: str) -> tuple[int, str]:
    """The order of a canonical text's lines after its header: by section, then as strings."""
    return _RANKS.get(line.partition(" ")[0], len(_SECTIONS)), line


_BLOCK = (256, 8192)  # the characters the walk compares in C at first, and at most


def _changed_lines(old: str, new: str, at: int) -> tuple[list[str], list[str]] | None:
    """The lines of ``old`` not in ``new``, and those of ``new`` not in ``old``.

    ``old`` is a canonical text, so its lines after the header (which ends
    at ``at`` in both texts) are strictly increasing by `_line_key`; None
    unless ``new``'s are too. The texts are compared a block of characters
    at a time, in C, the blocks doubling from `_BLOCK`'s first size to its
    second after each difference; at the first block that differs, a
    bisection finds the first differing character, and from the start of
    its line the two texts are walked line by line, as a merge of sorted
    lists, until their lines agree again. Every line of ``new`` is so
    matched in order with one of ``old`` or is new, and ``new``'s order,
    checked at each new line and its neighbours (the empty line after a
    final newline included), is what keeps the two results as small as
    the difference; a text out of order is parsed whole instead. A text
    without a final newline reads as its lines split at ``"\\n"`` do.
    """
    gone, added = [], []
    i = j = at
    old_end, new_end = len(old), len(new)
    while True:
        start, size = i, _BLOCK[0]
        while (a := old[i : i + size]) == (b := new[j : j + size]):
            if len(a) < size:
                return gone, added
            i, j, size = i + size, j + size, min(2 * size, _BLOCK[1])
        lo, hi = 0, min(len(a), len(b))  # a[:lo] == b[:lo], and they differ before hi + 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if a[lo:mid] == b[lo:mid] else (lo, mid - 1)
        back = max(old.rfind("\n", 0, i + lo) + 1, start)  # to the start of the line
        i, j = back, j + back - i
        x = kx = last = None  # old's line at ``i`` and its key; the key of the new line before ``j``
        while True:
            if x is None and i <= old_end:
                stop = old.find("\n", i)
                stop = old_end if stop < 0 else stop
                x, kx = old[i:stop], None
            if j > new_end:
                gone += old[i:].split("\n")
                return gone, added
            end = new.find("\n", j)
            end = new_end if end < 0 else end
            line = new[j:end]
            if line == x:
                i, j = stop + 1, end + 1
                break  # a line added before it was below ``x``, so it is in order
            key = _line_key(line)
            if x is not None and (kx := kx or _line_key(x)) < key:
                gone.append(x)
                i, x = stop + 1, None
                continue
            if last is None and j > at:
                last = _line_key(new[new.rfind("\n", 0, j - 1) + 1 : j - 1])
            if last is not None and last >= key:
                return None
            added.append(line)
            last, j = key, end + 1


def _parse_against(text: str, base: LevelDocument) -> LevelDocument | None:
    """``parse(text)``, by patching ``base`` with the lines not in both texts.

    ``base``'s graph must be a canonical read, and ``text`` its header followed by
    lines in the same order, as every text `serialize` writes is; the
    lines one text holds and the other lacks are found by comparing the
    two texts, in C where they agree (`_changed_lines`), and only those
    are split off and read. A text without a final newline reads as a
    whole parse reads it.
    None where the patch cannot be shown equal to a whole parse: the base
    is not canonical, the text is not so ordered, a changed line does not
    read, or the patched tables set a key twice, reference a node they
    lack or hold other than one root. Line numbers only place errors, and
    an error here means the text is parsed whole, so the changed lines go
    unnumbered.
    """
    graph = base.graph
    canonical = graph._lines
    changed = (
        canonical is not None
        and text.startswith(_HEADER)
        and _changed_lines(canonical.text, text, len(_HEADER))
    )
    if not changed:
        return None
    try:
        _, gone_root, gone_nodes, gone_props, gone_edges, gone_assets = _walk(
            ((0, line) for line in changed[0]), base.format_version
        )
        _, new_root, new_nodes, new_props, new_edges, new_assets = _walk(
            ((0, line) for line in changed[1]), base.format_version
        )
    except ParseError:
        return None

    if (gone_root is None) != (new_root is None):
        return None

    base_nodes = graph._nodes
    for node_id in new_nodes:
        if node_id in base_nodes and node_id not in gone_nodes:
            return None  # a node declared twice
    props: dict[str, dict[str, PropertyValue]] = {}
    for owner, key in gone_props:
        if owner not in props:
            props[owner] = dict(base_nodes[owner].properties)
        del props[owner][key]
    for (owner, key), (value, _) in new_props.items():
        if owner not in props:
            node = base_nodes.get(owner)
            props[owner] = dict(node.properties) if node else {}
        if key in props[owner]:
            return None  # a property set twice
        props[owner][key] = value

    # a node is rebuilt only when its node line or one of its prop lines changed
    patch, removed = _Patch(graph), []
    for node_id in gone_nodes.keys() | new_nodes.keys() | props.keys():
        node = base_nodes.get(node_id)
        owned = props[node_id] if node_id in props else node.properties if node else {}
        if node_id in new_nodes:
            kind = new_nodes[node_id][0]
        elif node is None or node_id in gone_nodes:
            if owned:
                return None  # a property of an undeclared node
            removed.append(node_id)
            continue
        else:
            kind = node.kind
        patch.set_node(Node(node_id, kind, dict(sorted(owned.items()))))
    for pair in gone_edges:
        patch.remove_edge(*pair)
    for node_id in removed:
        if patch.out_.get(node_id) or patch.in_.get(node_id):
            return None  # an edge of an undeclared node
        patch.remove_node(node_id)
    if new_root is not None:
        patch.root = new_root[0]
    if patch.root not in patch.nodes:
        return None
    for pair, (kind, _) in new_edges.items():
        if pair in patch.edges or pair[0] not in patch.nodes or pair[1] not in patch.nodes:
            return None
        patch.set_edge(*pair, kind)

    for asset_id in gone_assets:
        del patch.assets[asset_id]
    for asset_id, (digest, _) in new_assets.items():
        if asset_id in patch.assets:
            return None
        patch.assets[asset_id] = digest
    return LevelDocument(base.format_version, patch.to_graph())


class _Memo(dict):
    """``function`` of each key looked up, computed on its first lookup."""

    def __init__(self, function: Callable[[str], object]):
        self.function = function

    def __missing__(self, key: str):
        value = self[key] = self.function(key)
        return value


def serialize(doc: LevelDocument) -> str:
    """Render the canonical byte form of a document (see module docstring).

    If the record of ``doc``'s graph names a live canonical read, that
    read's text is copied, in runs between the lines of the recorded ids
    and pairs, which alone are rendered; each run's end is found with a
    forward `str.find`, and each section's runs are joined as it ends."""
    graph = doc.graph
    nodes, edges = graph._nodes, graph._edges
    # ids, kinds and keys repeat across lines; each is formatted once
    token = _Memo(_format_token)
    lines = [f"lvl {doc.format_version}", f"root {token[graph.root]}"]

    def node_line(node_id: str) -> None:
        if node_id in nodes:
            lines.append(f"node {token[node_id]} {token[nodes[node_id].kind]}")

    def prop_lines(node_id: str) -> None:
        properties = nodes[node_id].properties if node_id in nodes else {}
        for key in sorted(properties):
            lines.append(f"prop {token[node_id]} {token[key]} {format_value(properties[key])}")

    def edge_line(pair: tuple[str, str]) -> None:
        if pair in edges:
            lines.append(f"edge {token[pair[0]]} {token[pair[1]]} {edges[pair].value}")

    renders = (node_line, prop_lines, edge_line)
    patch = graph._patch
    base = patch and patch[0]()
    if base is not None and base._lines is not None:
        canonical = base._lines
        text, pos = canonical.text, canonical.bounds[1]
        for section, keys, patched, render in zip(
            count(), canonical.keys, (patch[1], patch[1], patch[2]), renders
        ):
            # ``pos`` is where line ``at`` of the section starts; a run of copied
            # lines is one entry of ``lines``, without its final newline
            at, first, end = 0, len(lines), canonical.bounds[section + 2]
            for key in sorted(patched):
                index = bisect_left(keys, key, at)
                if index > at:
                    start = canonical.line_at(section, index, pos)
                    lines.append(text[pos : start - 1])
                    pos = start
                render(key)
                if section == 1:
                    at = bisect_right(keys, key, index)
                else:  # a node or edge line per key
                    at = index + (index < len(keys) and keys[index] == key)
                for _ in range(at - index):  # the key's own lines
                    pos = text.find("\n", pos) + 1
            if pos < end:
                lines.append(text[pos : end - 1])
            pos = end
            # joined per section, so its many short runs are freed before the next
            # section copies its own, and the heap they took can be given back
            if len(lines) > first:
                lines[first:] = ["\n".join(lines[first:])]
    else:  # a graph's tables are unordered, so the whole level is written sorted
        ids = sorted(nodes)
        for keys, render in zip((ids, ids, sorted(edges)), renders):
            for key in keys:
                render(key)
    for asset_id in sorted(graph.assets):
        lines.append(f"asset {token[asset_id]} {token[graph.assets[asset_id]]}")
    lines.append("")  # the final newline
    return "\n".join(lines)


def _read_text(path) -> str:
    """The file at ``path`` as UTF-8 text with universal newlines.

    A byte that is not UTF-8 raises `ParseError` at its line and column.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        # a whole-file read decodes every byte in one call, so the offset is the file's
        head = exc.object[: exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        line, column = head.count("\n") + 1, len(head) - head.rfind("\n")
        raise ParseError(f"byte 0x{exc.object[exc.start]:02x} is not UTF-8", line, column) from None


def read_document(path, base: LevelDocument | None = None) -> LevelDocument:
    """Parse the file at ``path`` (against ``base``, as `parse` does); errors name the file."""
    try:
        return parse(_read_text(path), base=base)
    except ParseError as exc:
        raise ParseError(exc.reason, exc.line, exc.column, path) from None


@contextmanager
def atomic_open(path) -> Iterator[TextIO]:
    """Open a temp file beside ``path`` for writing; a clean exit moves it over ``path``.

    `os.replace` swaps the whole file in at once, so a reader sees the old
    bytes or the new ones, never a truncated file. The temp file is synced
    to disk before the swap and the directory after it, so a power loss
    does not lose the new bytes either; a platform that cannot sync a
    directory skips that step. On any error the temp file is removed and
    ``path`` is left as it was. The new file keeps the permission bits of
    the file it replaces; a symlink is followed, so its target is the
    file replaced.
    """
    path = os.path.realpath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
            handle.flush()
            os.fsync(fd)
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass  # a new file keeps the umask's bits
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):  # the original error is the one to report
            os.unlink(tmp)
        raise
    with suppress(OSError):  # not every platform opens or syncs a directory
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def write_document(doc: LevelDocument, path) -> None:
    with atomic_open(path) as handle:
        handle.write(serialize(doc))


def canonical_bytes(graph: LevelGraph) -> bytes:
    """Canonical serialization of a graph at the current format version."""
    return serialize(LevelDocument(FORMAT_VERSION, graph)).encode("utf-8")
