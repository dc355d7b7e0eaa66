"""Output checks that do not rely on the code under test.

`read_level` reads the canonical ``.lvl`` text with its own tokenizer and
`violations` checks the structural invariants every merged level must
hold: the root exists and has no parent, edges join declared nodes, the
graph is acyclic, the root reaches every node, no node has two direct
parents, and node and asset references resolve. `graph.validate` checks
the same things inside the program; this is the second opinion.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from dataclasses import dataclass, field

_QUOTED_OR_BARE = re.compile(r'"((?:[^"\\]|\\.)*)"|([^ \t"]+)')
_ESCAPE = re.compile(r"\\(u[0-9a-fA-F]{4}|.)")
_WALL_TIME_LINE = re.compile(rb"^stat wall_time_s .*$", re.MULTILINE)


@dataclass
class Level:
    root: str | None = None
    nodes: set[str] = field(default_factory=set)
    edges: list[tuple[str, str, str]] = field(default_factory=list)
    node_refs: list[tuple[str, str]] = field(default_factory=list)
    asset_refs: list[tuple[str, str]] = field(default_factory=list)
    assets: set[str] = field(default_factory=set)


def _unescape(match: re.Match) -> str:
    esc = match.group(1)
    if esc[0] == "u" and len(esc) == 5:
        return chr(int(esc[1:], 16))
    return {"n": "\n", "t": "\t", "r": "\r"}.get(esc, esc)


def _tokens(line: str) -> list[str]:
    if '"' not in line:
        return line.split()
    return [
        _ESCAPE.sub(_unescape, quoted) if bare == "" else bare
        for quoted, bare in _QUOTED_OR_BARE.findall(line)
    ]


def read_level(text: str) -> Level:
    level = Level()
    for line in text.split("\n"):
        tok = _tokens(line)
        if not tok:
            continue
        directive = tok[0]
        if directive == "node":
            level.nodes.add(tok[1])
        elif directive == "edge":
            level.edges.append((tok[1], tok[2], tok[3]))
        elif directive == "prop":
            if tok[3] == "ref":
                level.node_refs.append((tok[1], tok[4]))
            elif tok[3] == "asset":
                level.asset_refs.append((tok[1], tok[4]))
        elif directive == "root":
            level.root = tok[1]
        elif directive == "asset":
            level.assets.add(tok[1])
    return level


def level_of_graph(graph) -> Level:
    """The same facts read through a LevelGraph's public accessors."""
    level = Level(root=graph.root, nodes=set(graph.node_ids()), assets=set(graph.assets))
    level.edges = [(e.parent, e.child, e.kind.value) for e in graph.edges()]
    for node in graph.nodes():
        for value in node.properties.values():
            if value.kind == "ref":
                level.node_refs.append((node.id, value.value))
            elif value.kind == "asset":
                level.asset_refs.append((node.id, value.value))
    return level


def violations(level: Level, limit: int = 5) -> list[str]:
    """Broken invariants, at most ``limit`` of them; empty means valid."""
    found: list[str] = []
    nodes = level.nodes
    if level.root not in nodes:
        found.append(f"root {level.root!r} is not a node")
    children: dict[str, list[str]] = {n: [] for n in nodes}
    indegree = dict.fromkeys(nodes, 0)
    direct_parents: dict[str, int] = {}
    seen_pairs: set[tuple[str, str]] = set()
    for parent, child, kind in level.edges:
        if parent not in nodes or child not in nodes:
            found.append(f"edge {parent}->{child} joins an undeclared node")
            continue
        if (parent, child) in seen_pairs or parent == child:
            found.append(f"edge {parent}->{child} repeated or a self-loop")
            continue
        seen_pairs.add((parent, child))
        if child == level.root:
            found.append(f"root has a parent {parent}")
        if kind == "direct":
            direct_parents[child] = direct_parents.get(child, 0) + 1
            if direct_parents[child] == 2:
                found.append(f"node {child} has two direct parents")
        elif kind != "indirect":
            found.append(f"edge {parent}->{child} has kind {kind!r}")
        children[parent].append(child)
        indegree[child] += 1

    ready = deque(n for n, d in indegree.items() if d == 0)
    ordered = 0
    while ready:
        node = ready.popleft()
        ordered += 1
        for child in children[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    if ordered != len(nodes):
        found.append(f"{len(nodes) - ordered} nodes lie on or behind a cycle")

    if level.root in nodes:
        reached = {level.root}
        queue = deque(reached)
        while queue:
            for child in children[queue.popleft()]:
                if child not in reached:
                    reached.add(child)
                    queue.append(child)
        if len(reached) != len(nodes):
            found.append(f"{len(nodes) - len(reached)} nodes unreachable from the root")

    found += [f"node {o} refers to missing node {t}" for o, t in level.node_refs if t not in nodes]
    found += [f"node {o} refers to missing asset {t}" for o, t in level.asset_refs if t not in level.assets]
    return found[:limit]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(data: bytes) -> str:
    """Digest of a merge report with its run-dependent wall-time line masked."""
    return digest(_WALL_TIME_LINE.sub(b"stat wall_time_s -", data))


def report_stats(text: str) -> dict[str, float]:
    """The ``stat <key> <value>`` lines of a merge report."""
    stats = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "stat":
            stats[parts[1]] = float(parts[2])
    return stats
