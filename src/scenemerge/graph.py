"""Level model: a labeled directed graph with typed scalar properties.

A level is a set of uniquely identified nodes carrying single-valued,
typed properties, connected by dependency edges. A *direct* edge mirrors
parent changes onto the child (a container and its components); an
*indirect* edge records a reference without mirroring (a script and the
assets it instantiates). One designated root must reach every node.

A graph's tables are unordered: they keep the order they were built
in. Canonical order belongs to the readers that show it: the listings
`LevelGraph.node_ids`, `nodes`, `edges`, `children` and `parents`
return it sorted, and so does `levelfile.serialize`.

Graphs are immutable after construction and safe to share across
threads; what a graph or node builds on first use (a read node's
properties, `_holders`) two threads build equal. A `_differences`
record may be replaced by a later comparison, but it is set in one
step and covers the base it names. The constructor is deliberately permissive: cyclic or
disconnected graphs can be represented so that intermediate merge
states round-trip. `validate` reports every invariant violation as
data rather than raising.
"""

from __future__ import annotations

import gc
import math
import weakref
from contextlib import ContextDecorator
from enum import Enum
from operator import attrgetter
from typing import Callable, Collection, Container, Iterable, Iterator, Mapping


class SceneMergeError(Exception):
    """Base class for all errors raised by this package."""


class UnknownNodeError(SceneMergeError, KeyError):
    """A node id was queried that does not exist in the graph."""

    def __init__(self, node_id: str):
        super().__init__(node_id)
        self.node_id = node_id

    def __str__(self) -> str:
        return f"unknown node id: {self.node_id!r}"


class DepKind(Enum):
    """Dependency label of an edge."""

    DIRECT = "direct"
    INDIRECT = "indirect"


_VALUE_KINDS = ("bool", "int", "real", "text", "ref", "asset")


class _gc_paused(ContextDecorator):
    """Pause the cyclic garbage collector for the duration of the block.

    Parsing and merging build hundreds of thousands of acyclic objects,
    and every full collection would scan all of them. The collector is
    re-enabled only by the pause that disabled it, so nested pauses and a
    caller who keeps it off on purpose find it as they left it. Nothing
    is allocated after it is re-enabled, so no collection starts before
    the block's caller allocates again.
    """

    def _recreate_cm(self) -> "_gc_paused":
        return _gc_paused()  # each decorated call pauses on its own

    def __enter__(self) -> None:
        self.paused = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self.paused:
            gc.enable()


_set = object.__setattr__  # sets a field of a frozen record


class _Record:
    """Base of the package's value types, whose fields are their ``__slots__``.

    An instance equals only an instance of its own class with equal
    fields, and shows as ``Name(field=value, ...)``. A subclass is
    frozen and hashable by its fields unless declared with
    ``frozen=False``, which makes it mutable and unhashable.
    ``uncompared`` fields are left out of equality, the hash and the
    repr. The generic constructor takes the
    fields in order, by position or keyword; ``_defaults`` names those
    that may be left out, and a class given as a default is called for
    each instance. The types built by the hundred thousand define their
    own ``__init__``, as the generic one is several times slower.
    """

    __slots__ = ()
    _defaults: Mapping[str, object] = {}

    def __init_subclass__(cls, frozen: bool = True, uncompared=()) -> None:
        super().__init_subclass__()
        cls._shown = [name for name in cls.__slots__ if name not in uncompared]
        cls._key = attrgetter(*cls._shown)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs) -> None:
        names, defaults = self.__slots__, self._defaults
        given = dict(zip(names, args))
        if len(args) > len(names) or not kwargs.keys() <= set(names) - given.keys():
            raise TypeError(f"{type(self).__name__}() got unexpected arguments")
        given.update(kwargs)
        for name in names:
            if name in given:
                value = given[name]
            elif name in defaults:
                value = defaults[name]
                value = value() if isinstance(value, type) else value
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            _set(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class PropertyValue(_Record):
    """A tagged scalar value.

    Kinds: ``bool``, ``int``, ``real`` (finite 64-bit float), ``text``,
    ``ref`` (node reference), ``asset`` (asset reference). Exactly one
    kind is active; ``bool``/``int``/``real`` never compare equal across
    kinds even when Python's numeric coercion would say otherwise.
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: bool | int | float | str):
        if kind == "bool":
            ok = type(value) is bool
        elif kind == "int":
            ok = type(value) is int
        elif kind == "real":
            if type(value) is int:
                value = float(value)
            ok = type(value) is float and math.isfinite(value)
            # normalize -0.0 so graph equality implies byte equality
            if ok and value == 0.0:
                value = 0.0
        elif kind in ("text", "ref", "asset"):
            ok = isinstance(value, str) and (kind == "text" or value != "")
        else:
            raise ValueError(f"unknown property kind {kind!r}")
        if not ok:
            raise ValueError(f"invalid {kind} property value: {value!r}")
        _set(self, "kind", kind)
        _set(self, "value", value)

    @staticmethod
    def boolean(value: bool) -> "PropertyValue":
        return PropertyValue("bool", value)

    @staticmethod
    def integer(value: int) -> "PropertyValue":
        return PropertyValue("int", value)

    @staticmethod
    def real(value: float) -> "PropertyValue":
        return PropertyValue("real", value)

    @staticmethod
    def text(value: str) -> "PropertyValue":
        return PropertyValue("text", value)

    @staticmethod
    def node_ref(target: str) -> "PropertyValue":
        return PropertyValue("ref", target)

    @staticmethod
    def asset_ref(asset_id: str) -> "PropertyValue":
        return PropertyValue("asset", asset_id)


class Node(_Record, uncompared=("_read",)):
    """A level entity: unique id, free-form kind label, scalar properties.

    The id is the identity used by diffing; it must stay stable across
    versions of the same logical entity. The kind label is immutable
    across versions (a kind change has no 3-way meaning and is rejected
    when the versions meet). ``properties`` defaults to a new empty dict.

    A node read from a canonical level text (`levelfile.parse`) builds
    its properties from its own lines when they are first read; it is
    equal to, and shows as, the node built with them.
    """

    __slots__ = ("id", "kind", "properties", "_read")

    def __init__(self, id: str, kind: str, properties: Mapping[str, PropertyValue] | None = None):
        if not id:
            raise ValueError("node id must be non-empty")
        if not kind:
            raise ValueError("node kind must be non-empty")
        _set(self, "id", id)
        _set(self, "kind", kind)
        _set(self, "properties", {} if properties is None else properties)

    def __getattr__(self, name: str):
        # only a lazily read node lacks a field: its properties, built once
        # by the reader it holds as ``_read`` (two threads build equal dicts)
        if name != "properties":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        properties = self._read(self.id)
        _set(self, "properties", properties)
        return properties


class Edge(_Record):
    """A dependency edge from parent to child."""

    __slots__ = ("parent", "child", "kind")

    def __init__(self, parent: str, child: str, kind: DepKind):
        _set(self, "parent", parent)
        _set(self, "child", child)
        _set(self, "kind", kind)


def _direct_parent(in_edges: Iterable[tuple[str, DepKind]]) -> str | None:
    """The Direct parent in (parent, kind) in-edges, or None. The smallest id wins if there
    are (illegally) several; determinism matters more than punishing an invalid input."""
    best = None
    for parent, kind in in_edges:
        if kind is DepKind.DIRECT and (best is None or parent < best):
            best = parent
    return best


class LevelGraph:
    """An immutable level graph plus its asset manifest.

    ``nodes`` maps id to Node, ``edges`` holds at most one edge per
    ordered (parent, child) pair, and ``assets`` maps asset id to
    content digest. Equality is structural and independent of
    construction order. The tables keep the order they were built in;
    the listings (`node_ids`, `nodes`, `edges`, `children`, `parents`)
    return new sorted lists.
    """

    __slots__ = (
        "root", "_nodes", "_edges", "_out", "_in", "assets", "_patch", "_holders", "_lines",
        "__weakref__",
    )

    def __init__(
        self,
        root: str,
        nodes: Iterable[Node],
        edges: Iterable[Edge] = (),
        assets: Mapping[str, str] | None = None,
    ):
        node_map: dict[str, Node] = {}
        for node in nodes:
            if node.id in node_map:
                raise ValueError(f"duplicate node id {node.id!r}")
            node_map[node.id] = node
        edge_map: dict[tuple[str, str], DepKind] = {}
        for edge in edges:
            key = (edge.parent, edge.child)
            if key in edge_map:
                raise ValueError(f"duplicate edge {edge.parent!r} -> {edge.child!r}")
            edge_map[key] = edge.kind
        self._fill(root, node_map, edge_map, dict(assets) if assets else {})

    @classmethod
    def _of(
        cls, root: str, nodes: dict[str, Node], edges: dict[tuple[str, str], DepKind],
        assets: dict[str, str],
    ) -> "LevelGraph":
        """A graph over an id -> node, a (parent, child) -> kind and an asset -> digest dict.

        The graph takes the three dicts over as its tables, without copying
        them, so the caller passes dicts of its own and does not write them after.
        """
        graph = cls.__new__(cls)
        graph._fill(root, nodes, edges, assets)
        return graph

    def _fill(self, root, nodes, edges, assets) -> None:
        # the tables are taken over as they are, in the order they were built
        self.root = root
        self._nodes: dict[str, Node] = nodes
        self._edges: dict[tuple[str, str], DepKind] = edges
        self.assets: dict[str, str] = assets
        self._patch = None  # see `_Patch.to_graph` and `_differences`
        self._holders = None  # see `_holders`
        self._lines = None  # a canonical read's text and index: `levelfile._Canonical`
        self._out: dict[str, list[tuple[str, DepKind]]] = {}
        self._in: dict[str, list[tuple[str, DepKind]]] = {}
        for (parent, child), kind in self._edges.items():
            self._out.setdefault(parent, []).append((child, kind))
            self._in.setdefault(child, []).append((parent, kind))

    # -- queries ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def node_ids(self) -> list[str]:
        return sorted(self._nodes)

    def nodes(self) -> Iterator[Node]:
        return map(self._nodes.__getitem__, sorted(self._nodes))

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def edges(self) -> list[Edge]:
        edges = self._edges  # its keys sort many times faster than its (key, kind) items
        return [Edge(p, c, edges[p, c]) for p, c in sorted(edges)]

    def edge_kind(self, parent: str, child: str) -> DepKind | None:
        return self._edges.get((parent, child))

    def children(self, node_id: str) -> list[tuple[str, DepKind]]:
        return sorted(self._out.get(node_id, ()))

    def parents(self, node_id: str) -> list[tuple[str, DepKind]]:
        return sorted(self._in.get(node_id, ()))

    def direct_parent(self, node_id: str) -> str | None:
        """The unique Direct parent, or None (see `_direct_parent`)."""
        return _direct_parent(self._in.get(node_id, ()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LevelGraph):
            return NotImplemented
        return (
            self.root == other.root
            and self._nodes == other._nodes
            and self._edges == other._edges
            and self.assets == other.assets
        )

    def __hash__(self) -> int:  # structural containers are unhashable
        raise TypeError("LevelGraph is not hashable")

    def __repr__(self) -> str:
        return (
            f"LevelGraph(root={self.root!r}, nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )


class _Patch:
    """A level edited copy-on-write from a base graph; every patched graph is made by one.

    It starts as a copy of the base's tables. ``out_`` and ``in_`` map a
    node to its (other end, kind) pairs: the base's list until the node's
    adjacency is first written, then a live view of the patch's own dict
    in ``owned``. ``ids`` records every node
    added, removed or replaced and ``pairs`` every (parent, child) pair
    set or removed, and `to_graph` records them. The tables are unordered:
    a key set anew goes to the end, and no list is sorted (see the module
    docstring). The graph takes over the patch's tables, so a patch is not
    written after it.
    """

    __slots__ = ("base", "root", "nodes", "edges", "out_", "in_", "owned", "assets", "ids", "pairs")

    def __init__(self, base: LevelGraph) -> None:
        self.base = base
        self.root = base.root
        self.nodes: dict[str, Node] = dict(base._nodes)
        self.edges: dict[tuple[str, str], DepKind] = dict(base._edges)
        self.out_: dict[str, Iterable[tuple[str, DepKind]]] = dict(base._out)
        self.in_: dict[str, Iterable[tuple[str, DepKind]]] = dict(base._in)
        self.owned: tuple[dict[str, dict[str, DepKind]], ...] = ({}, {})  # for out_, in_
        self.assets: dict[str, str] = dict(base.assets)
        self.ids: set[str] = set()
        self.pairs: set[tuple[str, str]] = set()

    def to_graph(self) -> LevelGraph:
        """The patched graph, recording the patch for `_differences`.

        The graph takes over the patch's tables without copying them; a
        written adjacency list becomes a list, and every other node keeps
        the base's lists.
        """
        graph = LevelGraph.__new__(LevelGraph)
        graph.root = self.root
        graph._nodes, graph._edges, graph.assets = self.nodes, self.edges, self.assets
        # held weakly, so a chain of patched graphs keeps no earlier level alive
        graph._patch = (weakref.ref(self.base), frozenset(self.ids), frozenset(self.pairs))
        graph._holders = graph._lines = None
        for table, owned in zip((self.out_, self.in_), self.owned):
            for node_id, adjacency in owned.items():
                if adjacency:
                    table[node_id] = list(adjacency.items())
                else:
                    del table[node_id]
        graph._out, graph._in = self.out_, self.in_
        return graph

    def _own(self, side: int, node_id: str) -> dict[str, DepKind]:
        """The patch's own adjacency dict of ``node_id`` (0 out, 1 in), copied on first write."""
        owned = self.owned[side]
        adjacency = owned.get(node_id)
        if adjacency is None:
            table = self.in_ if side else self.out_
            adjacency = owned[node_id] = dict(table.get(node_id, ()))
            table[node_id] = adjacency.items()
        return adjacency

    def edge_kind(self, parent: str, child: str) -> DepKind | None:
        return self.edges.get((parent, child))

    def direct_parent(self, node_id: str) -> str | None:
        return _direct_parent(self.in_.get(node_id, ()))

    def set_node(self, node: Node) -> None:
        self.nodes[node.id] = node
        self.ids.add(node.id)

    def set_edge(self, parent: str, child: str, kind: DepKind) -> None:
        self.edges[parent, child] = kind
        self._own(0, parent)[child] = kind
        self._own(1, child)[parent] = kind
        self.pairs.add((parent, child))

    def remove_edge(self, parent: str, child: str) -> None:
        if self.edges.pop((parent, child), None) is not None:
            del self._own(0, parent)[child]
            del self._own(1, child)[parent]
        self.pairs.add((parent, child))

    def remove_node(self, node_id: str) -> None:
        """Remove the node and every edge at it."""
        self.nodes.pop(node_id, None)
        self.ids.add(node_id)
        for child, _ in list(self.out_.get(node_id, ())):
            self.remove_edge(node_id, child)
        for parent, _ in list(self.in_.get(node_id, ())):
            self.remove_edge(parent, node_id)


# -- validation ------------------------------------------------------------


class Violation(_Record):
    """One violated invariant, naming the offending entities."""

    code: str
    message: str
    subjects: tuple[str, ...]
    __slots__ = ("code", "message", "subjects")
    _defaults = {"subjects": ()}

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ValidationReport(_Record):
    violations: tuple[Violation, ...]
    __slots__ = ("violations",)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def validate(graph: LevelGraph, base: LevelGraph | None = None) -> ValidationReport:
    """Report every violated graph invariant; an empty report means valid.

    Checked: the root exists and has no incoming edges, edges end on
    existing nodes, the graph is acyclic, every node is reachable from
    the root, no node has two Direct parents, node references resolve,
    and asset references appear in the manifest.

    ``base``, when given, must be a graph already known to be valid, such
    as the ancestor a branch was edited from; validity is then decided
    from the differences against it. Otherwise a valid graph is confirmed
    in one linear pass, which a canonical read (`levelfile.parse`) has
    already made as it read the level. Only a graph that fails is run
    through the full checker, which names every violation, so the report
    is the same with or without a base, and whichever way it was read.
    """
    if (base is not None and _is_valid_against(graph, base)) or _is_valid(graph):
        return ValidationReport(())
    return _full_report(graph)


def _is_valid(graph: LevelGraph) -> bool:
    """True iff `_full_report` would find no violation.

    Kahn's walk from the root takes a node only once all its parents are
    taken, so it takes every node exactly when the graph is acyclic and
    the root reaches every node. A canonical read decided this on its
    columns as it read the level (`levelfile._is_valid_columns`), and its
    verdict is returned.
    """
    if graph._lines is not None:
        return graph._lines.valid
    nodes, in_edges, out_edges = graph._nodes, graph._in, graph._out
    if graph.root not in nodes or graph.root in in_edges:
        return False
    if not all(parent in nodes for parent in out_edges):
        return False
    pending: dict[str, int] = {}
    for child, parents in in_edges.items():
        if child not in nodes:
            return False
        direct = 0
        for _, kind in parents:
            if kind is DepKind.DIRECT:
                direct += 1
        if direct > 1:
            return False
        pending[child] = len(parents)
    if _kahn_taken([graph.root], pending, out_edges) != len(nodes):
        return False
    refs, assets = _holders(graph)
    return all(map(nodes.__contains__, refs)) and all(map(graph.assets.__contains__, assets))


def _holders(graph: LevelGraph) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Each node id that a ref property names, and each asset id that an
    asset property names, mapped to the ids of the nodes that hold it.

    Built by the first whole check of the graph, from every property, and
    kept; a canonical read fills it from its ref and asset lines instead.
    """
    if graph._holders is None:
        refs: dict[str, list[str]] = {}
        assets: dict[str, list[str]] = {}
        for node_id, node in graph._nodes.items():
            for value in node.properties.values():
                if value.kind == "ref":
                    refs.setdefault(value.value, []).append(node_id)
                elif value.kind == "asset":
                    assets.setdefault(value.value, []).append(node_id)
        graph._holders = (refs, assets)
    return graph._holders


def _differences(graph: LevelGraph, base: LevelGraph) -> tuple[Collection[str], Collection]:
    """The node ids and (parent, child) pairs in which ``graph`` may differ from ``base``.

    Every id whose presence or `Node` object differs is among the ids, and
    every pair whose presence or kind differs among the pairs; either may
    hold more. A graph whose record names ``base`` answers from it: the
    patch builder records the base it patched. Any other graph is compared
    with ``base`` whole, and the result replaces its record, as every
    record covers the differences from the base it names.
    """
    patch = graph._patch
    if patch is not None and patch[0]() is base:
        return patch[1], patch[2]
    nodes, base_nodes = graph._nodes, base._nodes
    ids = {node_id for node_id, node in nodes.items() if base_nodes.get(node_id) is not node}
    ids.update(base_nodes.keys() - nodes.keys())
    edges, base_edges = graph._edges, base._edges
    pairs = {pair for pair, kind in edges.items() if base_edges.get(pair) is not kind}
    pairs.update(base_edges.keys() - edges.keys())
    graph._patch = (weakref.ref(base), frozenset(ids), frozenset(pairs))
    return ids, pairs


def _touched(
    nodes: Container[str], base_nodes: Container[str], ids: Iterable[str], pairs: Iterable
) -> set[str]:
    """The nodes whose in-edges may differ from the base's, given the ids and
    (parent, child) pairs that may differ: the added nodes and the present
    children of the pairs (an in-edge lost to a deleted parent counts)."""
    touched = {node_id for node_id in ids if node_id in nodes and node_id not in base_nodes}
    touched.update(child for _, child in pairs if child in nodes)
    return touched


def _closure(
    starts: Iterable[str],
    out_edges: Mapping[str, Iterable[tuple[str, DepKind]]],
    kind: DepKind | None = None,
    seen: set[str] | None = None,
) -> set[str]:
    """``seen`` (a new set if None) grown by ``starts`` and every node they
    reach along ``out_edges``' (child, kind) lists, over edges of ``kind``
    only if one is given. A walk stops at a node already in ``seen``."""
    seen = set() if seen is None else seen
    frontier = [node_id for node_id in starts if node_id not in seen]
    seen.update(frontier)
    while frontier:
        for child, edge_kind in out_edges.get(frontier.pop(), ()):
            if child not in seen and (kind is None or edge_kind is kind):
                seen.add(child)
                frontier.append(child)
    return seen


def _is_valid_against(graph: LevelGraph, base: LevelGraph) -> bool:
    """Whether ``graph`` is valid, given that ``base`` is, from the differences only.

    Every node outside the forward closure of the `_touched` nodes keeps
    the base's in-edges, and so do all its ancestors, so it is reachable
    and on no cycle as in the base. The closure is valid exactly when each
    of its nodes has at most one Direct parent, every node with no parent
    inside the closure has one outside it, and Kahn's walk takes the whole
    closure. Refs and assets are checked on added and changed nodes; an
    unchanged node holds the base's, which resolve unless their node or
    asset id was removed, so of the unchanged nodes only those that
    `_holders` names for a removed id are looked at. A changed root gives
    False whether or not the graph is valid; the caller then checks the
    whole graph.
    """
    nodes, edges, in_edges, out_edges = graph._nodes, graph._edges, graph._in, graph._out
    base_nodes = base._nodes
    root = graph.root
    if root != base.root or root not in nodes or root in in_edges:
        return False
    ids, pairs = _differences(graph, base)
    # an edge on an unchanged pair is the base's, so it dangles only from a removed node
    gone = [node_id for node_id in ids if node_id not in nodes]
    if any(node_id in in_edges or node_id in out_edges for node_id in gone):
        return False
    if any(pair in edges and not (pair[0] in nodes and pair[1] in nodes) for pair in pairs):
        return False

    closure = _closure(_touched(nodes, base_nodes, ids, pairs), out_edges)
    pending: dict[str, int] = {}
    ready = []
    for node_id in closure:
        parents = in_edges.get(node_id, ())
        inside = direct = 0
        for parent, kind in parents:
            if parent in closure:
                inside += 1
            if kind is DepKind.DIRECT:
                direct += 1
        if direct > 1:
            return False
        if not inside:
            if not parents:
                return False
            ready.append(node_id)
        pending[node_id] = inside
    if _kahn_taken(ready, pending, out_edges) != len(closure):
        return False

    lost = base.assets.keys() - graph.assets.keys()
    refs, uses = _holders(base) if gone or lost else ({}, {})
    held = ids.union(*(refs.get(n, ()) for n in gone), *(uses.get(a, ()) for a in lost))
    return _refs_resolve([nodes[n] for n in held if n in nodes], nodes, graph.assets)


def _kahn_taken(
    ready: list[str], pending: dict[str, int], out_edges: Mapping[str, list[tuple[str, DepKind]]]
) -> int:
    """How many nodes Kahn's walk takes from ``ready``.

    ``pending`` counts each node's parents not yet taken; a node is taken
    once the count reaches 0, and every child of a taken node has a count.
    """
    taken = 0
    while ready:
        taken += 1
        for child, _ in out_edges.get(ready.pop(), ()):
            left = pending[child] - 1
            pending[child] = left
            if not left:
                ready.append(child)
    return taken


def _refs_resolve(
    checked: Iterable[Node], nodes: Mapping[str, Node], assets: Mapping[str, str]
) -> bool:
    """True iff every ref of the ``checked`` nodes names a node and every asset a manifest entry."""
    for node in checked:
        for value in node.properties.values():
            if value.kind == "ref":
                if value.value not in nodes:
                    return False
            elif value.kind == "asset" and value.value not in assets:
                return False
    return True


def _full_report(graph: LevelGraph) -> ValidationReport:
    """Every violation, in a fixed order: the checker behind `validate`."""
    violations: list[Violation] = []

    if not graph.has_node(graph.root):
        violations.append(
            Violation("missing-root", f"root node {graph.root!r} is not in the graph", (graph.root,))
        )

    absent: set[str] = set()  # the missing ends of dangling edges
    for edge in graph.edges():
        missing = [e for e in (edge.parent, edge.child) if not graph.has_node(e)]
        if missing:
            absent.update(missing)
            violations.append(
                Violation(
                    "dangling-edge",
                    f"edge {edge.parent!r} -> {edge.child!r} references missing node(s) "
                    + ", ".join(repr(m) for m in missing),
                    (edge.parent, edge.child),
                )
            )

    def successors(node_id: str) -> list[str]:
        return [c for c, _ in graph.children(node_id) if graph.has_node(c)]

    for comp in strongly_connected_components(graph.node_ids(), successors):
        is_cycle = len(comp) > 1 or graph.edge_kind(comp[0], comp[0]) is not None
        if is_cycle:
            members = sorted(comp)
            violations.append(
                Violation(
                    "cycle",
                    "cycle through " + ", ".join(repr(m) for m in members),
                    tuple(members),
                )
            )

    if graph.has_node(graph.root):
        # the walk stops at a missing node, as if its edges were not there
        reached = _closure([graph.root], graph._out, seen=absent)
        for node_id in graph.node_ids():
            if node_id not in reached:
                violations.append(
                    Violation(
                        "unreachable",
                        f"node {node_id!r} is not reachable from the root",
                        (node_id,),
                    )
                )

    for parent, _ in graph.parents(graph.root):
        violations.append(
            Violation(
                "root-in-edge",
                f"root has an incoming edge from {parent!r}",
                (parent, graph.root),
            )
        )

    for node_id in graph.node_ids():
        direct_parents = sorted(p for p, k in graph.parents(node_id) if k is DepKind.DIRECT)
        if len(direct_parents) > 1:
            violations.append(
                Violation(
                    "multiple-direct-parents",
                    f"node {node_id!r} has {len(direct_parents)} Direct parents: "
                    + ", ".join(repr(p) for p in direct_parents),
                    (node_id, *direct_parents),
                )
            )

    for node in graph.nodes():
        for key in sorted(node.properties):
            value = node.properties[key]
            if value.kind == "ref" and not graph.has_node(str(value.value)):
                violations.append(
                    Violation(
                        "bad-ref",
                        f"property {key!r} of node {node.id!r} references missing node {value.value!r}",
                        (node.id, key, str(value.value)),
                    )
                )
            elif value.kind == "asset" and str(value.value) not in graph.assets:
                violations.append(
                    Violation(
                        "unmanifested-asset",
                        f"property {key!r} of node {node.id!r} references asset "
                        f"{value.value!r} absent from the manifest",
                        (node.id, key, str(value.value)),
                    )
                )

    return ValidationReport(tuple(violations))


# -- structural queries ------------------------------------------------------


def direct_subtree(graph: LevelGraph, node_id: str) -> set[str]:
    """All nodes reachable from ``node_id`` via Direct edges, including itself,
    without passing through an id missing from the graph (a dangling edge's end)."""
    if not graph.has_node(node_id):
        raise UnknownNodeError(node_id)
    subtree = _closure([node_id], graph._out, DepKind.DIRECT)
    missing = subtree.difference(graph._nodes)  # costs the subtree, not the level
    if missing:  # walk again, stopping at the missing nodes
        subtree = _closure([node_id], graph._out, DepKind.DIRECT, seen=set(missing)) - missing
    return subtree


def strongly_connected_components(
    vertices: Iterable[str], successors: Callable[[str], Iterable[str]]
) -> list[list[str]]:
    """Iterative Tarjan SCC; components come out in reverse topological order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for start in vertices:
        if start in index:
            continue
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        work: list[tuple[str, Iterator[str]]] = [(start, iter(successors(start)))]
        while work:
            v, it = work[-1]
            descended = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    descended = True
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components
