from __future__ import annotations

import functools
import tracemalloc
from bisect import bisect_left
from operator import lt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenemerge import (
    DepKind,
    Edge,
    LevelGraph,
    Node,
    ParseError,
    PropertyValue,
    parse,
    serialize,
)
from scenemerge.levelfile import (
    FORMAT_VERSION,
    LevelDocument,
    _BLOCK,
    _HEADER,
    _line_key,
    _line_texts,
    _split_line,
    canonical_bytes,
    read_document,
)
from scenemerge.graph import _Patch
from scenemerge.sim import SizeParams, apply_script, generate
from conftest import D, I, fixture_text, g, tables


def roundtrip(doc):
    return parse(serialize(doc))


class TestParse:
    def test_minimal_document(self):
        doc = parse("lvl 1\nroot r\nnode r Scene\n")
        assert doc.format_version == 1
        assert doc.graph.node_count == 1
        assert doc.graph.edge_count == 0

    def test_duplicate_node_id_names_both_lines(self):
        text = "lvl 1\nroot r\nnode r Scene\nnode x A\nnode x B\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 5
        assert "line 4" in str(err.value)
        assert "'x'" in str(err.value)

    def test_unknown_type_tag_positioned(self):
        text = "lvl 1\nroot r\nnode r Scene\nprop r size quaternion 1\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 4
        assert "quaternion" in str(err.value)

    def test_fig2_fixture_kinds_and_edges(self):
        doc = parse(fixture_text("fig2.lvl"))
        graph = doc.graph
        assert graph.node("hero").kind == "GameObject"
        assert graph.node("spawner").kind == "Script"
        assert graph.edge_kind("hero", "hero-mesh") is DepKind.DIRECT
        assert graph.edge_kind("spawner", "hero") is DepKind.INDIRECT
        assert "models/hero.obj" in graph.assets

    def test_order_free_directives(self):
        text = (
            "lvl 1\n"
            "edge r a direct\n"
            "prop a visible bool true\n"
            "node a Thing\n"
            "node r Scene\n"
            "root r\n"
        )
        doc = parse(text)
        assert doc.graph.node("a").properties["visible"] == PropertyValue.boolean(True)

    def test_cycles_parse_and_round_trip(self):
        text = fixture_text("cyclic.lvl")
        doc = parse(text)
        assert serialize(doc) == text  # fixture is canonical

    @pytest.mark.parametrize(
        "name",
        [
            "fig2.lvl", "fig3-base.lvl", "fig3-mine.lvl", "fig3-theirs.lvl",
            "fig3-merged.lvl", "fig4-base.lvl", "fig4-mine.lvl",
            "fig4-theirs.lvl", "fig4-merged-prefer-a.lvl",
            "fig4-merged-prefer-b.lvl", "cyclic.lvl",
        ],
    )
    def test_every_fixture_is_in_canonical_form(self, name):
        text = fixture_text(name)
        doc = parse(text)
        assert serialize(doc) == text
        # read in one pass, unless a quoted token leaves it to the line reader
        assert (doc.graph._lines is not None) == ('"' not in text)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "root r\n",
            "lvl 2\nroot r\nnode r S\n",
            "lvl 1\nnode r S\n",
            "lvl 1\nroot r\n",
            "lvl 1\nroot r\nnode r S\nedge r x direct\n",
            "lvl 1\nroot r\nnode r S\nprop q k int 1\n",
            "lvl 1\nroot r\nnode r S\nnode a X\nedge r a sideways\n",
            "lvl 1\nroot r\nnode r S\nnode a X\nedge a a direct\n",
            "lvl 1\nroot r\nnode r S\nprop r k int 1\nprop r k int 2\n",
            'lvl 1\nroot r\nnode r S\nprop r k text "unterminated\n',
            "lvl 1\nroot r\nnode r S\nwibble x\n",
            "lvl 1\nroot r\nnode r S\nprop r k real nan\n",
        ],
    )
    def test_every_diagnostic_has_a_position(self, bad):
        with pytest.raises(ParseError) as err:
            parse(bad)
        assert err.value.line >= 1
        assert err.value.column >= 1

    _HEAD = "lvl 1\nroot r\nnode r S\nnode a X\n"

    @pytest.mark.parametrize(
        "text, line, column, reason",
        [
            ("lvl  7\n", 1, 6, "unsupported format version 7"),
            (
                "lvl 1\nroot r\nnode r S\nnode  r X\n",
                4, 7, "duplicate node id 'r' (first defined at line 3)",
            ),
            (
                'lvl 1\nroot r\nnode r S\nnode "r" X\n',
                4, 6, "duplicate node id 'r' (first defined at line 3)",
            ),
            (
                _HEAD + "prop r k int 1\nprop r  k int 2\n",
                6, 9, "duplicate property 'k' on node 'r' (first set at line 5)",
            ),
            (_HEAD + 'prop r "" int 1\n', 5, 8, "property key must be non-empty"),
            (_HEAD + "edge r a sideways\n", 5, 10, "unknown dependency kind 'sideways'"),
            (_HEAD + "edge\ta a direct\n", 5, 6, "self-loop edge on 'a'"),
            (
                _HEAD + "edge r a direct\nedge  r a indirect\n",
                6, 7, "duplicate edge 'r' -> 'a' (first at line 5)",
            ),
            (
                _HEAD + "asset x d1\nasset   x d2\n",
                6, 9, "duplicate asset 'x' (first at line 5)",
            ),
            (_HEAD + "prop r k int 1.5\n", 5, 14, "invalid int literal '1.5'"),
            (_HEAD + 'prop "r" k int "x y"\n', 5, 16, "invalid int literal 'x y'"),
            (_HEAD + "prop r k quaternion 1\n", 5, 10, "unknown property type tag 'quaternion'"),
            (_HEAD + "prop r k int 1  2\n", 5, 17, "trailing tokens after value"),
            (_HEAD + "prop r k  int\n", 5, 11, "missing literal after 'int'"),
            (_HEAD + 'prop r k text "abc\n', 5, 15, "unterminated quoted string"),
            (_HEAD + "prop r k text \x0b\n", 5, 15, "unexpected character '\\x0b'"),
            (_HEAD + "node b\xa0X\n", 5, 7, "unexpected character '\\xa0'"),
        ],
    )
    def test_diagnostic_positions_are_pinned(self, text, line, column, reason):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column, err.value.reason) == (line, column, reason)


class TestSerialize:
    def test_canonical_ordering_is_insertion_independent(self):
        nodes = [
            Node("r", "Scene"),
            Node("b", "X", {"z": PropertyValue.integer(1), "a": PropertyValue.integer(2)}),
            Node("a", "X"),
        ]
        edges = [Edge("r", "b", D), Edge("r", "a", D), Edge("a", "b", I)]
        one = LevelGraph("r", nodes, edges)
        other = LevelGraph("r", list(reversed(nodes)), list(reversed(edges)))
        assert canonical_bytes(one) == canonical_bytes(other)

    def test_shortest_round_trip_reals(self):
        graph = g("r", [("r", "S", {"v": PropertyValue.real(0.1)})])
        assert "prop r v real 0.1\n" in serialize(LevelDocument(1, graph))

    def test_real_and_int_render_distinctly(self):
        graph = g(
            "r",
            [("r", "S", {"a": PropertyValue.real(2.0), "b": PropertyValue.integer(2)})],
        )
        text = serialize(LevelDocument(1, graph))
        assert "prop r a real 2.0" in text
        assert "prop r b int 2" in text

    def test_quoting_and_escapes(self):
        weird = 'spaces "quotes"\\back\nnewline\ttab'
        graph = g("r", [("r", "S", {"note": PropertyValue.text(weird)})])
        doc = LevelDocument(1, graph)
        again = roundtrip(doc)
        assert again.graph.node("r").properties["note"].value == weird

    def test_quoted_identifiers(self):
        graph = LevelGraph(
            "my root",
            [Node("my root", "Scene"), Node("kid one", "A Thing")],
            [Edge("my root", "kid one", D)],
        )
        doc = LevelDocument(1, graph)
        assert roundtrip(doc) == doc


# -- generated round-trip property ------------------------------------------

_identifier = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=1,
    max_size=12,
)

_value = st.one_of(
    st.booleans().map(PropertyValue.boolean),
    st.integers(min_value=-(2**40), max_value=2**40).map(PropertyValue.integer),
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(PropertyValue.real),
    _identifier.map(PropertyValue.text),
)


@st.composite
def documents(draw):
    ids = draw(st.lists(_identifier, min_size=1, max_size=8, unique=True))
    root = ids[0]
    nodes = []
    for node_id in ids:
        keys = draw(st.lists(_identifier, max_size=3, unique=True))
        props = {key: draw(_value) for key in keys}
        nodes.append(Node(node_id, draw(_identifier), props))
    edges = []
    seen = set()
    for _ in range(draw(st.integers(0, 10))):
        parent = draw(st.sampled_from(ids))
        child = draw(st.sampled_from(ids))
        if parent == child or (parent, child) in seen:
            continue
        seen.add((parent, child))
        edges.append(Edge(parent, child, draw(st.sampled_from([D, I]))))
    asset_ids = draw(st.lists(_identifier, max_size=3, unique=True))
    assets = {aid: f"{abs(hash(aid)):x}" for aid in asset_ids}
    return LevelDocument(FORMAT_VERSION, LevelGraph(root, nodes, edges, assets))


@settings(max_examples=300, deadline=None)
@given(documents())
def test_parse_serialize_round_trip(doc):
    text = serialize(doc)
    again = parse(text)
    assert again == doc
    assert serialize(again) == text  # canonicalization is idempotent


# -- parser fuzzing -----------------------------------------------------------

_fuzz_token = st.one_of(
    st.sampled_from(
        ["lvl", "root", "node", "prop", "edge", "asset", "direct", "indirect", "bool",
         "int", "real", "text", "ref", "true", "1", "-0", "1e999", "nan", "r", "a"]
    ),
    st.text(max_size=8),
    st.text(max_size=8).map(lambda s: f'"{s}"'),  # raw: escapes may be malformed
)
_fuzz_lines = st.lists(st.lists(_fuzz_token, max_size=6).map(" ".join), max_size=8)

_fuzz_text = st.one_of(
    st.text(),
    _fuzz_lines.map("\n".join),
    _fuzz_lines.map(lambda lines: "\n".join(["lvl 1", "root r", "node r S", *lines])),
)


@settings(max_examples=500, deadline=None)
@given(_fuzz_text)
@example('lvl "²"\n')  # a digit to str.isdigit() that int() rejects
def test_parse_raises_only_parse_error(text):
    try:
        doc = parse(text)
    except ParseError:
        return
    assert isinstance(doc, LevelDocument)


# -- tokenizer fast path --------------------------------------------------------

# bare-token characters, the two separators, the quoting characters, and
# characters that `str.split` (but not `_split_line`) takes for whitespace
_line_char = st.one_of(
    st.sampled_from(list("aZ09_.+/:@-un \t\"\\")),
    st.sampled_from(list("\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2028\u2029\u3000²é")),
    st.characters(blacklist_categories=("Cs",)),
)


def _tokenized(split, line):
    try:
        return split(line)
    except ParseError as err:
        return (err.line, err.column, err.reason)


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet=_line_char, max_size=24))
@example("a\x0bb")  # one token to `_split_line`'s error, two to `str.split`
@example("node\u3000a X")
@example('text "a b"  c\t')
def test_fast_tokenizer_matches_split_line(line):
    expected = _tokenized(lambda text: [token for _, token in _split_line(text, 7)], line)
    assert _tokenized(lambda text: _line_texts(text, 7), line) == expected


# -- parsing against a base -----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _sim_texts(seed: int, size=SizeParams(nodes=6, edges=7, ops_per_branch=2)) -> tuple[str, str, str]:
    """The canonical base, mine and theirs of a simulator scenario, small by default."""
    sc = generate(seed, size)
    graphs = (sc.base, apply_script(sc.base, sc.script_a), apply_script(sc.base, sc.script_b))
    return tuple(serialize(LevelDocument(FORMAT_VERSION, graph)) for graph in graphs)


def _insertable(base_text: str) -> list[str]:
    """Lines that read, or nearly read, next to the lines of ``base_text``."""
    ids = sorted({line.split()[1] for line in base_text.split("\n") if line.startswith("node ")})
    some = ids[len(ids) // 2]
    return [
        "node extra Thing", f"node {some} Thing", "prop extra k int 1",
        f"prop {some} k int 1", f"edge {ids[0]} extra direct", f"edge {some} {ids[0]} indirect",
        f"edge {some} {some} direct", "asset extra.png 00", f"root {some}", "root extra", "lvl 1",
    ]


@st.composite
def _edited_texts(draw):
    """A simulator base, and one of its versions' text with raw line edits."""
    texts = _sim_texts(draw(st.integers(1, 30)))
    lines = draw(st.sampled_from(texts)).split("\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from([
            "delete", "duplicate", "respace", "insert", "replace", "swap", "corrupt", "cr",
            "blank", "drop-node", "insert-in-order",
        ]))
        if edit == "delete" and len(lines) > 1:
            del lines[i]
        elif edit == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == "respace":  # the same fact on a line that differs
            lines.insert(draw(st.integers(0, len(lines))), lines[i].replace(" ", "  ", 1))
        elif edit in ("insert", "replace"):
            line = draw(st.one_of(
                st.sampled_from(_insertable(texts[0])), _fuzz_lines.map(" ".join)
            ))
            lines[i : i + (edit == "replace")] = [line]
        elif edit == "insert-in-order":  # where a text kept in order would hold it
            line = draw(st.sampled_from(_insertable(texts[0])))
            lines.insert(max(1, bisect_left(lines, _line_key(line), 1, key=_line_key)), line)
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "corrupt":
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_fuzz_token)
            lines[i] = " ".join(tokens)
        elif edit == "cr":
            lines[i] += "\r"
        elif edit == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "\t"])))
        elif edit == "drop-node":  # its prop and edge lines stay
            node_lines = [line for line in lines if line.startswith("node ")]
            if node_lines:
                lines.remove(draw(st.sampled_from(node_lines)))
    return texts[0], "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _parsed(text, base=None):
    try:
        return parse(text, base=base)
    except ParseError as err:
        return (err.line, err.column, err.reason)


def _owned_lines(text: str) -> dict[str, set[str]]:
    """Each node id's node and prop lines, in a text that parses."""
    owned: dict[str, set[str]] = {}
    for line in text.split("\n"):
        tokens = _line_texts(line, 1)
        if tokens and tokens[0] in ("node", "prop"):
            owned.setdefault(tokens[1], set()).add(line)
    return owned


_BASE = _sim_texts(1)[0]
_ASSET = next(line for line in _BASE.split("\n") if line.startswith("asset "))


@settings(max_examples=600, deadline=None)
@given(_edited_texts())
@example((_BASE, _BASE.replace("\nroot root\n", "\nroot extra\n")))  # an undeclared root
@example((_BASE, _BASE + _ASSET.replace(" ", "  ", 1) + "\n"))  # an asset listed twice
@example((_BASE, "\n".join(  # n0001 and its props and in-edge gone, its out-edges kept
    line for line in _BASE.split("\n")
    if not line.startswith(("node n0001 ", "prop n0001 ", "edge root n0001 "))
)))
@example((_BASE, _BASE.replace("\nnode ", "\r\nnode ", 1)))
def test_parse_against_a_base_equals_a_whole_parse(texts):
    base_text, text = texts
    base = parse(base_text)
    whole, patched = _parsed(text), _parsed(text, base)
    if isinstance(whole, tuple):
        assert patched == whole  # the same error, at the same line and column
        return
    assert_read_against(base_text, base, text, patched)


def assert_read_against(base_text: str, base: LevelDocument, text: str, patched) -> None:
    """``patched``, read from ``text`` against ``base``, is ``parse(text)``; and
    where the walk reads it (its lines in order), each of its nodes is
    ``base``'s own `Node` exactly when its node and prop lines are all
    ``base``'s."""
    whole = parse(text)
    assert isinstance(patched, LevelDocument)
    assert patched == whole
    assert serialize(patched) == serialize(whole)
    # graph equality leaves out the adjacency lists
    assert tables(patched.graph) == tables(whole.graph)
    lines = text.split("\n")
    keys = list(map(_line_key, lines[1:]))
    header = base.graph._lines.text.partition("\n")[0]
    if "\r" in text or lines[0] != header or not all(map(lt, keys, keys[1:])):
        return  # read whole, or with a CR that `_owned_lines` cannot tokenize
    base_owned = _owned_lines(base_text)
    for node_id, owned in _owned_lines(text).items():
        same = owned == base_owned.get(node_id)
        assert (patched.graph.node(node_id) is base.graph._nodes.get(node_id)) is same


def test_a_branch_parsed_against_its_ancestor_shares_the_unchanged_nodes():
    base_text, mine_text, _ = _sim_texts(3)
    base = parse(base_text)
    mine = parse(mine_text, base=base)
    assert mine == parse(mine_text)
    shared = [n for n in mine.graph.node_ids() if mine.graph.node(n) is base.graph._nodes.get(n)]
    assert 0 < len(shared) < mine.graph.node_count
    # a document read with a base serves as a base in turn
    assert parse(base_text, base=mine) == base


# a level of a few blocks of the walk, and a line of each section changed in place
_WIDE = _sim_texts(2, SizeParams(nodes=300, edges=340, ops_per_branch=2))[0]


def _edited(line: str) -> str:
    directive, first, *rest = line.split(" ")
    if directive == "root":
        return "root n0007"
    if directive == "edge":
        return f"edge {first} {rest[0]} {'indirect' if rest[1] == 'direct' else 'direct'}"
    return " ".join([directive, first, *rest[:-1], "Changed" if directive == "node" else "00"])


def _line_spans(text: str) -> list[tuple[int, int]]:
    """The start and end of each line after the header."""
    starts = [i + 1 for i, ch in enumerate(text) if ch == "\n"][:-1]
    return [(start, text.index("\n", start)) for start in starts]


def _replaced(text: str, *spans: tuple[int, int], edit=_edited) -> str:
    for start, end in sorted(spans, reverse=True):
        text = text[:start] + edit(text[start:end]) + text[end:]
    return text


def _edge_cases() -> dict[str, str]:
    spans = _line_spans(_WIDE)
    # the blocks the walk compares before its first change double from the first size
    start, size = len(_HEADER), _BLOCK[0]
    while start + 2 * size < len(_WIDE) // 2:
        start, size = start + size, min(2 * size, _BLOCK[1])
    straddling = next(span for span in spans if span[0] < start < span[1])
    inside = [span for span in spans if start < span[0] and span[1] < start + size]
    last = _replaced(_WIDE, spans[-1])
    return {
        "first line": _replaced(_WIDE, spans[0]),
        "last line": last,
        "last line tabbed": _replaced(_WIDE, spans[-1], edit=lambda line: line.replace(" ", "\t", 1)),
        "block boundary": _replaced(_WIDE, straddling),
        "two in one block": _replaced(_WIDE, inside[1], inside[-2]),
        "no final newline": last[:-1],
        "only the final newline dropped": _WIDE[:-1],
        "only a final newline added": _WIDE + "\n",
    }


@pytest.mark.parametrize("case", list(_edge_cases()))
def test_the_walk_reads_each_edge_case_as_a_whole_parse(case):
    text = _edge_cases()[case]
    assert text != _WIDE and len(_WIDE) > 2 * _BLOCK[1]
    base = parse(_WIDE)
    assert_read_against(_WIDE, base, text, parse(text, base=base))


_CANONICAL = "lvl 1\nroot r\nnode a X\nnode r S\nedge r a direct\n"


@pytest.mark.parametrize("escape", ["\\ud800", "\\uDBFF", "\\udc00", "\\uDFFF"])
def test_a_surrogate_escape_is_a_parse_error_with_or_without_a_base(escape):
    text = _CANONICAL.replace("\nedge", f'\nprop a name text "{escape}"\nedge')
    base = parse(_CANONICAL)
    assert base.graph._lines is not None
    for read in (parse, lambda text: parse(text, base=base)):
        with pytest.raises(ParseError) as err:
            read(text)
        assert (err.value.line, err.value.column, err.value.reason) == (5, 19, "invalid \\u escape")
    assert parse(text.replace(escape, "\\ud7ff")).graph.node("a").properties["name"].value == "\ud7ff"


def test_the_merge_driver_rejects_a_surrogate_escape_and_keeps_the_current_file(tmp_path, capsys):
    from scenemerge.cli import main

    ancestor, current, other = (tmp_path / name for name in ("base.lvl", "current.lvl", "other.lvl"))
    ancestor.write_text(_CANONICAL)
    other.write_text(_CANONICAL)
    current.write_text(_CANONICAL.replace("\nedge", '\nprop a name text "\\ud800"\nedge'))
    before = current.read_bytes()
    assert main(["merge-driver", str(ancestor), str(current), str(other)]) == 2
    assert capsys.readouterr().err == (
        f"scenemerge: {current}: line 5, column 19: invalid \\u escape\n"
    )
    assert current.read_bytes() == before


def test_read_document_names_the_file_and_keeps_the_position(tmp_path):
    path = tmp_path / "bad.lvl"
    path.write_text("lvl 1\nroot r\nnode r S\nprop r k int 1.5\n")
    with pytest.raises(ParseError) as err:
        read_document(path, base=parse(fixture_text("fig3-base.lvl")))
    assert (err.value.line, err.value.column, err.value.reason) == (4, 14, "invalid int literal '1.5'")
    assert str(err.value) == f"{path}: line 4, column 14: invalid int literal '1.5'"


def _peak(call) -> int:
    """The `tracemalloc` peak of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_branch_read_allocates_less_than_its_text_beyond_the_patch_copy():
    # at 40k nodes with 400 exact edits: the walk splits no text into lines,
    # so beyond the copy of the ancestor's tables that every patch makes, a
    # branch read allocates less than its text's length
    sc = generate(2, SizeParams(nodes=40_000, edges=45_000, edits_a=400, edits_b=400))
    ancestor = parse(serialize(LevelDocument(FORMAT_VERSION, sc.base)))
    text = serialize(LevelDocument(FORMAT_VERSION, apply_script(sc.base, sc.script_a)))
    copy = _peak(lambda: _Patch(ancestor.graph).to_graph())
    read = _peak(lambda: parse(text, base=ancestor))
    assert parse(text, base=ancestor).graph._patch[0]() is ancestor.graph
    assert read - copy < len(text), (read, copy, len(text))
