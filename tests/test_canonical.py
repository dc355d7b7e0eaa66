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
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemerge import LevelGraph, MergePolicy, Node, ParseError, PolicyKind, merge3, parse
from scenemerge import cli, levelfile, read_document, write_document
from scenemerge.graph import _Patch
from scenemerge.levelfile import (
    FORMAT_VERSION,
    LevelDocument,
    _Canonical,
    _line_key,
    _read_canonical,
    _read_lines,
    serialize,
)
from scenemerge.sim import SizeParams, apply_script, generate
from conftest import D, I, g, repairing_merges, tables

SIZE = SizeParams(nodes=30, edges=36, ops_per_branch=6)


@functools.lru_cache(maxsize=None)
def _texts(seed: int) -> tuple[str, str, str]:
    """The canonical base, mine and theirs of a small simulator scenario."""
    sc = generate(seed, SIZE)
    graphs = (sc.base, apply_script(sc.base, sc.script_a), apply_script(sc.base, sc.script_b))
    return tuple(serialize(LevelDocument(FORMAT_VERSION, graph)) for graph in graphs)


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
    sc = generate(2, SizeParams(nodes=10_000, edges=11_000, edits_a=100, edits_b=100))
    graphs = (sc.base, apply_script(sc.base, sc.script_a), apply_script(sc.base, sc.script_b))
    paths = [tmp_path / f"{role}.lvl" for role in ("base", "mine", "theirs")]
    for path, graph in zip(paths, graphs):
        path.write_text(serialize(LevelDocument(FORMAT_VERSION, graph)), encoding="utf-8")
    docs = []
    read = cli.read_document

    def keeping_read(path, base=None):
        docs.append(read(path, base=base))
        return docs[-1]

    monkeypatch.setattr(cli, "read_document", keeping_read)
    out = tmp_path / "merged.lvl"
    assert cli.main(["merge", *map(str, paths), "--output", str(out)]) == 0
    ancestor, mine, theirs = (doc.graph for doc in docs)
    assert parse(out.read_text(encoding="utf-8")).graph == merge3(*graphs).merged
    built = [node.id for node in ancestor.nodes() if _built(node)]
    assert len(built) <= len(mine._patch[1] | theirs._patch[1]) < ancestor.node_count // 10


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
    base.graph._lines = _Canonical(marked, kept.bounds, kept.keys, kept.marks)
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
