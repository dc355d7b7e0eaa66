"""Canonical text in, canonical text out.

`parse` reads a text exactly as `serialize` writes it in one checked pass
(`levelfile._read_canonical`) and leaves every other text to the line
reader (`levelfile._read_lines`); here the two are held to the same
documents and the same errors, and so is a branch read against such a
base (`levelfile._parse_against`). A canonical read builds a node's
properties only when they are first read; a merge builds no more of
them than its branches changed. A canonical read keeps its text on its
graph, and `serialize` writes a level whose record names such a read,
while it is alive, as that text with the patch rendered in; here that
text is held to the whole render's.
"""

from __future__ import annotations

import functools
import gc
import random
import re
from collections import Counter
from operator import lt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenemerge import LevelGraph, MergePolicy, Node, ParseError, PolicyKind, PropertyValue
from scenemerge import cli, graph as graph_module, levelfile, merge3, parse, read_document
from scenemerge import validate, write_document
from scenemerge.graph import _Patch
from scenemerge.levelfile import (
    FORMAT_VERSION,
    LevelDocument,
    _Canonical,
    _SECTION_LINES,
    _line_key,
    _parse_value,
    _read_canonical,
    _read_lines,
    format_value,
    serialize,
)
from scenemerge.sim import SizeParams, apply_script, generate
from conftest import FIXTURES, D, I, g, repairing_merges, tables

SIZE = SizeParams(nodes=30, edges=36, ops_per_branch=6)


@functools.lru_cache(maxsize=None)
def _texts(seed: int) -> tuple[str, str, str]:
    """The canonical base, mine and theirs of a small simulator scenario."""
    sc = generate(seed, SIZE)
    graphs = (sc.base, apply_script(sc.base, sc.script_a), apply_script(sc.base, sc.script_b))
    return tuple(serialize(LevelDocument(FORMAT_VERSION, graph)) for graph in graphs)


@functools.lru_cache(maxsize=None)
def _graphs_10k() -> tuple[LevelGraph, LevelGraph, LevelGraph]:
    """The generated base, mine and theirs of a 10k-node scenario, 100 edits a branch."""
    sc = generate(2, SizeParams(nodes=10_000, edges=11_000, edits_a=100, edits_b=100))
    return sc.base, apply_script(sc.base, sc.script_a), apply_script(sc.base, sc.script_b)


@functools.lru_cache(maxsize=None)
def _texts_10k() -> tuple[str, str, str]:
    """`_graphs_10k` as canonical texts."""
    return tuple(serialize(LevelDocument(FORMAT_VERSION, graph)) for graph in _graphs_10k())


def _files_10k(directory) -> list:
    """`_texts_10k` written as base, mine and theirs files in ``directory``."""
    paths = [directory / f"{role}.lvl" for role in ("base", "mine", "theirs")]
    for path, text in zip(paths, _texts_10k()):
        path.write_text(text, encoding="utf-8", newline="\n")
    return paths


def _outcome(read, text):
    try:
        return read(text)
    except ParseError as err:
        return (err.line, err.column, err.reason)


def assert_same_document(doc: LevelDocument, other: LevelDocument) -> None:
    assert doc == other
    # graph equality leaves out the adjacency lists
    assert tables(doc.graph) == tables(other.graph)


# -- the canonical reader ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10_000), st.integers(0, 2))
def test_a_serialized_level_is_read_canonical_and_equals_a_line_read(seed, which):
    text = _texts(seed)[which]
    doc = parse(text)
    assert doc.graph._lines is not None
    assert_same_document(doc, _read_lines(text))
    assert serialize(doc) == text
    assert doc.graph._lines.text is text  # the one copy of its lines


def test_each_distinct_literal_is_one_value():
    doc = parse(_texts(5)[0])
    values = [value for node in doc.graph.nodes() for value in node.properties.values()]
    assert len({id(value) for value in values}) == len(set(values)) < len(values)


def _built(node: Node) -> bool:
    """Whether ``node``'s properties exist, without building them."""
    try:
        Node.properties.__get__(node)
    except AttributeError:
        return False
    return True


def test_a_clean_file_merge_builds_the_properties_of_the_changed_nodes_only(tmp_path, monkeypatch):
    paths = _files_10k(tmp_path)
    docs = []
    read = cli.read_document

    def keeping_read(path, base=None):
        docs.append(read(path, base=base))
        return docs[-1]

    monkeypatch.setattr(cli, "read_document", keeping_read)
    out = tmp_path / "merged.lvl"
    assert cli.main(["merge", *map(str, paths), "--output", str(out)]) == 0
    ancestor, mine, theirs = (doc.graph for doc in docs)
    # the reference is merged from the generated graphs, not from any read of their texts
    assert parse(out.read_text(encoding="utf-8")).graph == merge3(*_graphs_10k()).merged
    built = [node.id for node in ancestor.nodes() if _built(node)]
    assert len(built) <= len(mine._patch[1] | theirs._patch[1]) < ancestor.node_count // 10


def test_a_clean_file_merge_walks_the_ancestor_once_inside_its_read(tmp_path, monkeypatch):
    paths = _files_10k(tmp_path)
    walks = []
    kahn_taken = graph_module._kahn_taken

    def counting(*args):
        walks.append(args)
        return kahn_taken(*args)

    monkeypatch.setattr(graph_module, "_kahn_taken", counting)
    assert cli.main(["merge", *map(str, paths), "--output", str(tmp_path / "merged.lvl")]) == 0
    # each branch's and the merged level's check against the ancestor; the
    # ancestor's whole check was decided by its read
    assert len(walks) == 3


# -- the read's whole check ---------------------------------------------------------

ref, asset = PropertyValue.node_ref, PropertyValue.asset_ref
NODES = [("r", "S"), ("a", "X"), ("b", "X")]
BROKEN_LEVELS = {
    "cycle": g("r", NODES, [("r", "a", D), ("a", "b", D), ("b", "a", I)]),
    "unreachable node": g("r", NODES, [("r", "a", D)]),
    "two Direct parents": g("r", NODES, [("r", "a", D), ("r", "b", D), ("a", "b", D)]),
    "root in-edge": g("r", NODES, [("r", "a", D), ("b", "r", I)]),
    # a walk that takes the root twice takes as many nodes as the level has
    "root on a cycle, a node cut off": g("r", NODES, [("r", "a", D), ("a", "r", I)]),
    "dangling ref": g("r", [("r", "S"), ("a", "X", {"to": ref("gone")})], [("r", "a", D)]),
    "missing asset": g(
        "r", [("r", "S"), ("a", "X", {"mesh": asset("m.obj")})], [("r", "a", D)], {"t.png": "0"}
    ),
    "all at once": g(
        "r",
        [("r", "S"), ("a", "X", {"to": ref("gone"), "mesh": asset("m.obj")}), ("b", "X"), ("c", "X")],
        [("r", "a", D), ("a", "b", D), ("b", "a", D), ("r", "b", D), ("c", "r", D)],
    ),
}


def assert_same_verdict(text: str, canonical: bool = True) -> None:
    """The read's verdict on ``text`` is the line reader's, violations included."""
    doc = parse(text)
    assert (doc.graph._lines is not None) == canonical
    report = validate(doc.graph)
    assert report == validate(_read_lines(text).graph)
    if canonical:
        assert doc.graph._lines.valid == report.ok


@pytest.mark.parametrize("name", BROKEN_LEVELS)
def test_the_reads_verdict_on_a_broken_level_is_the_line_readers(name):
    text = serialize(LevelDocument(FORMAT_VERSION, BROKEN_LEVELS[name]))
    assert_same_verdict(text)
    assert not parse(text).graph._lines.valid


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.lvl")), ids=lambda path: path.name)
def test_the_reads_verdict_on_a_fixture_is_the_line_readers(path):
    text = path.read_text(encoding="utf-8")
    assert_same_verdict(text, canonical='"' not in text)


def test_the_reads_verdict_at_10k_is_the_line_readers():
    for text in _texts_10k():
        assert_same_verdict(text)
    base = _texts_10k()[0]
    edge_lines = [line for line in base.split("\n") if line.startswith("edge ")]
    in_degree = Counter(line.split(" ")[2] for line in edge_lines)
    only = next(line for line in edge_lines if in_degree[line.split(" ")[2]] == 1)
    for broken in (
        base.replace(f"\n{only}\n", "\n"),  # a node or more cut off
        base.replace(" indirect\n", " direct\n"),  # nodes with two Direct parents
    ):
        assert_same_verdict(broken)
        assert not parse(broken).graph._lines.valid


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10_000), st.data())
def test_the_reads_verdict_after_random_breaks_is_the_line_readers(seed, data):
    level = parse(_texts(seed)[0]).graph
    ids, pairs = level.node_ids(), sorted(level._edges)
    patch = _Patch(level)
    for _ in range(data.draw(st.integers(1, 3))):
        action = data.draw(st.sampled_from(["add", "drop", "flip", "ref", "asset"]))
        if action == "add":
            parent, child = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
            if parent != child:
                patch.set_edge(parent, child, data.draw(st.sampled_from([D, I])))
        elif action in ("drop", "flip"):
            parent, child = data.draw(st.sampled_from(pairs))
            kind = patch.edge_kind(parent, child)
            if action == "drop" or kind is None:
                patch.remove_edge(parent, child)
            else:
                patch.set_edge(parent, child, I if kind is D else D)
        else:
            node = patch.nodes[data.draw(st.sampled_from(ids))]
            value = ref("nowhere") if action == "ref" else asset("nowhere.png")
            patch.set_node(Node(node.id, node.kind, {**node.properties, "zz": value}))
    assert_same_verdict(serialize(LevelDocument(FORMAT_VERSION, patch.to_graph())))


# -- the prop pattern's literals -------------------------------------------------------


def _taken_as_spelled(line: str) -> bool:
    """Whether the prop pattern takes ``line``'s literal as spelled, unchecked."""
    return _SECTION_LINES[2].fullmatch(line)[4] is None


@settings(max_examples=400, deadline=None)
@given(st.from_regex(_SECTION_LINES[2], fullmatch=True).filter(_taken_as_spelled))
@example("prop a b real 0.0001")
@example("prop a b real -0.00010001")
@example("prop a b real 999999.99999999")
@example("prop a b real -100000.0")
@example("prop a b real 0.0")
@example("prop a b int 0")
@example("prop a b int -999999999999999999")
@example("prop a b ref x")
def test_format_value_spells_each_literal_the_prop_pattern_takes_unchecked_as_written(line):
    value = line.split(" ", 3)[3]
    assert format_value(_parse_value(value.split(" "), 0, value, 0)) == value
    # the third group holds a ref or asset value, and nothing else
    held = _SECTION_LINES[2].fullmatch(line)[3]
    assert held == (value if value.split(" ")[0] in ("ref", "asset") else None)


@pytest.mark.parametrize("value, canonical", [
    ("real 0.00001", False),  # written 1e-05
    ("real 1e-05", True),
    ("real 0.30000000000000004", True),
    ("real 1234567.0", True),
    ("real -0.0", False),
    ("int -0", False),
    ("int 007", False),
    ("int 1234567890123456789", True),
    ("int " + "7" * 5000, False),  # past the digits `int` converts
    ("real 1\u0660.0", False),  # a digit `float` reads and a bare token does not hold
])
def test_a_literal_the_prop_pattern_checks_reads_as_before(value, canonical):
    lines = _texts(7)[0].split("\n")
    _set_value(lines, next(n for n, line in enumerate(lines) if line.startswith("prop ")), value)
    text = "\n".join(lines)
    read, whole = _outcome(parse, text), _outcome(_read_lines, text)
    if isinstance(whole, tuple):
        assert read == whole  # the same error, at the same line and column
        return
    assert_same_document(read, whole)
    assert (read.graph._lines is not None) == canonical


@pytest.mark.parametrize("seed", [3, 8])
def test_a_level_of_full_precision_reals_reads_as_the_line_reader_reads_it(seed):
    text = re.sub(
        r"(?m)^(prop \S+ \S+ real )(\S+)$", lambda m: m[1] + repr(float(m[2]) + 1 / 3), _texts(seed)[0]
    )
    assert re.search(r" real -?[0-9]+\.[0-9]{9}", text)  # past the digits taken unchecked
    doc = parse(text)
    assert doc.graph._lines is not None
    assert_same_document(doc, _read_lines(text))
    assert serialize(doc) == text


def _set_token(line: str, index: int, token: str) -> str:
    tokens = line.split(" ")
    tokens[index] = token
    return " ".join(tokens)


def _swap_next(lines: list[str], i: int) -> None:
    lines[i], lines[i + 1] = lines[i + 1], lines[i]


# mutation -> (the lines it may edit, the edit of line i, whether the
# document stays the same); "any" is any line after the header, and a
# directive any line of that section
MUTATIONS = {
    "double space": ("any", lambda lines, i: _respace(lines, i, " ", "  "), True),
    "tab": ("any", lambda lines, i: _respace(lines, i, " ", "\t"), True),
    "trailing space": ("any", lambda lines, i: lines.__setitem__(i, lines[i] + " "), True),
    "blank line": ("any", lambda lines, i: lines.insert(i, ""), True),
    "swapped nodes": ("node", _swap_next, True),
    "swapped props": ("prop", _swap_next, True),
    "swapped edges": ("edge", _swap_next, True),
    "swapped assets": ("asset", _swap_next, True),
    "real -0.0": ("prop", lambda lines, i: _set_value(lines, i, "real -0.0"), False),
    "real 1.50": ("prop", lambda lines, i: _set_value(lines, i, "real 1.50"), False),
    "int 007": ("prop", lambda lines, i: _set_value(lines, i, "int 007"), False),
    "int +1": ("prop", lambda lines, i: _set_value(lines, i, "int +1"), False),
    "real nan": ("prop", lambda lines, i: _set_value(lines, i, "real nan"), False),
    "empty text": ("prop", lambda lines, i: _set_value(lines, i, 'text ""'), False),
    # a line the line reader rejects
    "empty token": ("any", lambda lines, i: lines.__setitem__(i, _set_token(lines[i], 1, "")), False),
    "repeated line": ("any", lambda lines, i: lines.insert(i, lines[i]), False),
    "self loop": ("edge", lambda lines, i: lines.__setitem__(
        i, _set_token(lines[i], 2, lines[i].split(" ")[1])
    ), False),
    "unknown end": ("edge", lambda lines, i: lines.__setitem__(
        i, _set_token(lines[i], 2, "nowhere")
    ), False),
    "unknown owner": ("prop", lambda lines, i: lines.__setitem__(
        i, _set_token(lines[i], 1, "nowhere")
    ), False),
    "unknown root": ("any", lambda lines, i: lines.__setitem__(1, "root nowhere"), False),
    # a line taken out of its section
    "moved to the end": ("any", lambda lines, i: lines.append(lines.pop(min(i, len(lines) - 2))), True),
    "moved to the start": ("any", lambda lines, i: lines.insert(2, lines.pop(max(i, 3))), True),
    "moved across sections": ("any", lambda lines, i: _move_across(lines, i), True),
    "repeated at the end": ("any", lambda lines, i: lines.append(lines[i]), False),
}
WHOLE_TEXT = {
    "CRLF": lambda text: text.replace("\n", "\r\n"),
    "one CRLF": lambda text: text.replace("\n", "\r\n", 3),
    "no final newline": lambda text: text[:-1],
    "header lvl 01": lambda text: text.replace("lvl 1", "lvl 01", 1),
    "header lvl 2": lambda text: text.replace("lvl 1", "lvl 2", 1),
    "spaced header": lambda text: text.replace("lvl 1", "lvl  1", 1),
}


def _move_across(lines, i):
    """Move line ``i`` past the first line of the next section, or of the nodes."""
    line = lines.pop(i)
    directive = line.split(" ")[0]
    later = [n for n in range(i, len(lines)) if lines[n].split(" ")[0] != directive]
    lines.insert(later[0] + 1 if later else 3, line)


def _respace(lines, i, old, new):
    lines[i] = lines[i].replace(old, new, 1)


def _set_value(lines, i, value):
    lines[i] = " ".join(lines[i].split(" ")[:3] + [value])


def _mutated(text: str, name: str, i: int) -> str:
    if name in WHOLE_TEXT:
        return WHOLE_TEXT[name](text)
    lines = text.split("\n")[:-1]
    target, edit, _ = MUTATIONS[name]
    if target == "any":
        at = range(1, len(lines))
    else:
        at = [n for n, line in enumerate(lines) if line.startswith(target + " ")]
        if edit is _swap_next:
            at = at[:-1]  # a line with one of its section after it
    edit(lines, at[i % len(at)])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", [*MUTATIONS, *WHOLE_TEXT])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(1, 10_000), i=st.integers(0, 10_000))
def test_the_reader_declines_a_mutated_text_and_parse_is_unchanged(name, seed, i):
    text = _texts(seed)[0]
    mutated = _mutated(text, name, i)
    assert mutated != text
    assert _read_canonical(mutated) is None
    read, whole = _outcome(parse, mutated), _outcome(_read_lines, mutated)
    if isinstance(whole, tuple):
        assert read == whole  # the same error, at the same line and column
        return
    assert_same_document(read, whole)
    assert read.graph._lines is None
    if MUTATIONS.get(name, (None, None, True))[2]:
        assert read == parse(text)


@pytest.mark.parametrize("name", [*MUTATIONS, *WHOLE_TEXT])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(1, 10_000), i=st.integers(0, 10_000))
def test_a_mutated_branch_reads_against_the_ancestor_as_whole(name, seed, i):
    base_text, branch_text, _ = _texts(seed)
    ancestor = parse(base_text)
    mutated = _mutated(branch_text, name, i)
    read = _outcome(lambda text: parse(text, base=ancestor), mutated)
    whole = _outcome(parse, mutated)
    if isinstance(whole, tuple):
        assert read == whole  # the same error, at the same line and column
        return
    assert_same_document(read, whole)
    lines = mutated.split("\n")
    keys = list(map(_line_key, lines[1:]))
    if lines[0] != base_text.split("\n")[0] or not all(map(lt, keys, keys[1:])):
        # out of the walk's order: read whole, sharing no node with the ancestor
        assert not any(node is ancestor.graph._nodes.get(node.id) for node in read.graph.nodes())


@pytest.mark.parametrize("index", [1, 2])
@pytest.mark.parametrize("directive", ["node", "prop", "edge", "asset"])
def test_an_empty_token_that_keeps_its_section_sorted_is_declined(directive, index):
    lines = _texts(3)[0].split("\n")
    at = next(n for n, line in enumerate(lines) if line.startswith(directive + " "))
    lines[at] = _set_token(lines[at], index, "")
    text = "\n".join(lines)
    assert _read_canonical(text) is None
    assert isinstance(_outcome(parse, text), tuple)
    assert _outcome(parse, text) == _outcome(_read_lines, text)


@pytest.mark.parametrize("name", ["real nan", "int +1"])
def test_a_literal_the_line_reader_rejects_keeps_its_error(name):
    mutated = _mutated(_texts(7)[0], name, 0)
    with pytest.raises(ParseError) as err:
        parse(mutated)
    assert "invalid" in err.value.reason and err.value.column > 1


# -- the splice ---------------------------------------------------------------------


def copied_lines(doc: LevelDocument, base: LevelDocument, write=serialize) -> int:
    """How many of ``base``'s node, prop and edge lines ``write(doc)`` copies.

    ``write`` returns the text it wrote. For the one call, each such line
    of the text ``base``'s graph keeps ends in a mark in place of its last
    character, so a copied line shows the mark and a rendered one does not.
    """
    kept = base.graph._lines
    if kept is None:
        return 0
    marked = re.sub(r"^((?:node|prop|edge) .*).$", r"\1~", kept.text, flags=re.MULTILINE)
    base.graph._lines = _Canonical(marked, kept.bounds, kept.keys, kept.marks, kept.valid)
    try:
        return write(doc).count("~\n")
    finally:
        base.graph._lines = kept


def whole_render(doc: LevelDocument) -> str:
    """`serialize(doc)` with the graph's record set aside: the level rendered whole."""
    graph = doc.graph
    patch, graph._patch = graph._patch, None
    try:
        return serialize(doc)
    finally:
        graph._patch = patch


def assert_spliced(doc: LevelDocument, base: LevelDocument) -> None:
    assert doc.graph._patch[0]() is base.graph
    assert serialize(doc) == whole_render(doc)
    assert copied_lines(doc, base) > 0


def _merged(ancestor: LevelDocument, mine: LevelGraph, theirs: LevelGraph, policy) -> LevelDocument:
    return LevelDocument(FORMAT_VERSION, merge3(ancestor.graph, mine, theirs, MergePolicy(policy)).merged)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10_000), st.sampled_from(list(PolicyKind)))
def test_a_merged_level_spliced_into_the_ancestor_is_its_whole_render(seed, policy):
    base_text, *branch_texts = _texts(seed)
    ancestor = parse(base_text)
    mine, theirs = (parse(text, base=ancestor) for text in branch_texts)
    for branch, text in zip((mine, theirs), branch_texts):
        assert serialize(branch) == text
        assert_spliced(branch, ancestor)
    assert_spliced(_merged(ancestor, mine.graph, theirs.graph, policy), ancestor)


@pytest.mark.parametrize("policy", list(PolicyKind))
@pytest.mark.parametrize("case", ["cycle", "orphan", "manifest"])
def test_a_repaired_merge_spliced_into_the_ancestor_is_its_whole_render(case, policy):
    ancestor, mine, theirs = repairing_merges()[case]
    read = parse(serialize(LevelDocument(FORMAT_VERSION, ancestor)))
    assert_spliced(_merged(read, mine, theirs, policy), read)


def test_a_spliced_level_may_add_remove_and_quote():
    base = parse("lvl 1\nroot r\nnode a X\nnode r S\nprop a k int 1\nedge r a direct\n")
    patch = _Patch(base.graph)
    patch.set_node(Node("a b", "Odd Kind", {"name": levelfile.PropertyValue.text("x y")}))
    patch.set_node(Node("0", "X"))
    patch.remove_node("a")  # and its edge r -> a
    patch.set_edge("r", "a b", D)
    patch.set_edge("r", "0", I)
    patch.assets["t.png"] = "00"
    doc = LevelDocument(FORMAT_VERSION, patch.to_graph())
    assert serialize(doc) == (
        'lvl 1\nroot r\nnode 0 X\nnode "a b" "Odd Kind"\nnode r S\n'
        'prop "a b" name text "x y"\nedge r 0 indirect\nedge r "a b" direct\nasset t.png 00\n'
    )
    assert_spliced(doc, base)
    assert copied_lines(doc, base) == 1  # node r


def test_serialize_renders_whole_unless_the_patch_names_a_canonical_base():
    base_text, mine_text, theirs_text = _texts(11)
    ancestor = parse(base_text)
    mine = parse(mine_text, base=ancestor)
    theirs = parse(theirs_text, base=ancestor)
    merged = _merged(ancestor, mine.graph, theirs.graph, PolicyKind.MANUAL)
    whole = whole_render(merged)
    assert_spliced(merged, ancestor)
    # a canonical read that the record does not name gives no line
    other = parse(base_text)
    assert copied_lines(merged, other) == 0

    # the record names a base that was not read canonical: read by the
    # line reader, or built whole
    respaced = parse(base_text.replace(" ", "  ", 1))
    assert respaced == ancestor and respaced.graph._lines is None
    built = LevelDocument(FORMAT_VERSION, LevelGraph(
        ancestor.graph.root, ancestor.graph.nodes(), ancestor.graph.edges(), ancestor.graph.assets
    ))
    for base in (respaced, built):
        remerged = _merged(base, mine.graph, theirs.graph, PolicyKind.MANUAL)
        assert remerged.graph._patch[0]() is base.graph
        assert serialize(remerged) == whole and copied_lines(remerged, ancestor) == 0
    # a graph with no record
    unrecorded = LevelDocument(FORMAT_VERSION, LevelGraph(
        merged.graph.root, merged.graph.nodes(), merged.graph.edges(), merged.graph.assets
    ))
    assert serialize(unrecorded) == whole and copied_lines(unrecorded, ancestor) == 0

    # the record's base is gone: its weak reference is dead
    del ancestor, mine, theirs
    gc.collect()
    assert merged.graph._patch[0]() is None
    assert serialize(merged) == whole and copied_lines(merged, other) == 0


def test_the_readme_library_flow_writes_the_merge_spliced(tmp_path):
    """README's library use reads three files and writes the merge with no
    base given; the writer still copies the ancestor's unchanged lines."""
    paths = [tmp_path / f"{role}.lvl" for role in ("base", "mine", "theirs")]
    for path, text in zip(paths, _texts(13)):
        path.write_text(text, encoding="utf-8", newline="\n")
    ancestor = read_document(paths[0])
    mine = read_document(paths[1], base=ancestor)
    theirs = read_document(paths[2], base=ancestor)
    outcome = merge3(ancestor.graph, mine.graph, theirs.graph, MergePolicy(PolicyKind.PREFER_B))
    merged, out = LevelDocument(1, outcome.merged), tmp_path / "merged.lvl"

    def write(doc: LevelDocument) -> str:
        write_document(doc, out)
        return out.read_text(encoding="utf-8")

    assert copied_lines(merged, ancestor, write) > 0
    assert write(merged) == whole_render(merged)


# -- the tables are unordered; the listings and the writer sort ---------------------


def test_a_level_built_in_any_order_lists_and_serializes_the_same():
    base = g(
        "r",
        [("r", "S"), ("a", "X"), ("b", "X"), ("c", "X"), ("d", "X")],
        [("r", "a", D), ("r", "b", D), ("r", "c", D), ("a", "d", D), ("b", "d", I)],
        {"m.png": "0", "n.png": "1"},
    )
    patch = _Patch(base)
    patch.remove_node("b")  # and its edges r -> b and b -> d
    patch.set_node(Node("b", "Y"))  # removed, then added back: it lands at the end
    patch.set_node(Node("a0", "X"))
    patch.remove_node("d")  # and its edge a -> d
    patch.set_edge("r", "a0", D)
    patch.set_edge("r", "b", I)  # the same pair, another kind
    patch.set_edge("a0", "c", I)
    patch.assets["l.png"] = "2"
    patched = patch.to_graph()
    assert list(patched._nodes) == ["r", "a", "c", "b", "a0"]  # as the patch wrote them
    builds = [patched]
    for seed in (1, 2):
        rng = random.Random(seed)
        nodes, edges = list(patched.nodes()), patched.edges()
        assets = list(patched.assets.items())
        for listing in (nodes, edges, assets):
            rng.shuffle(listing)
        builds.append(LevelGraph("r", nodes, edges, dict(assets)))
    assert len({tuple(build._nodes) for build in builds}) == 3
    assert len({tuple(build._edges) for build in builds}) == 3
    texts = {serialize(LevelDocument(FORMAT_VERSION, build)) for build in builds}
    assert len(texts) == 1

    def listings(graph: LevelGraph) -> tuple:
        ids = graph.node_ids()
        return (
            ids, list(graph.nodes()), graph.edges(),
            [graph.children(node_id) for node_id in ids], [graph.parents(node_id) for node_id in ids],
        )

    assert listings(builds[0]) == listings(builds[1]) == listings(builds[2])
    assert patched.node_ids() == ["a", "a0", "b", "c", "r"]
    assert patched.children("r") == [("a", D), ("a0", D), ("b", I), ("c", D)]
    assert "a" not in patched._out and base._out["a"] == [("d", D)]  # the base is untouched
