"""Seeded scenario harness: random levels, concurrent edit scripts, law checks.

This is the stand-in for live collaborative sessions: `generate` builds
a deterministic base level and two independently applicable edit
scripts from a seed, `apply_script` replays a script the way an editor
would (deletions cascade over the Direct subtree and relink orphaned
indirect children), and `check_scenario` merges the two replayed
versions and asserts every behavioral law the merge engine promises:
validity, byte determinism, branch symmetry, agreement absorption, the
one-sided merge law, and disjoint-edit preservation.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import Sequence, Union

from .diff import DiffResult, classify
from .graph import (
    DepKind,
    Edge,
    LevelGraph,
    Node,
    PropertyValue,
    SceneMergeError,
    direct_subtree,
    validate,
)
from .levelfile import canonical_bytes
from .merge import MergeOutcome, MergePolicy, _describe_edit, merge3


class ScriptError(SceneMergeError):
    """An edit op could not be applied at its position in the script."""

    def __init__(self, index: int, message: str):
        super().__init__(f"op {index}: {message}")
        self.index = index


class GenerationError(SceneMergeError):
    """The requested scenario dimensions cannot be satisfied."""


# -- edit vocabulary -----------------------------------------------------------


@dataclass(frozen=True)
class AddNode:
    id: str
    kind: str
    parent: str
    properties: tuple[tuple[str, PropertyValue], ...] = ()


@dataclass(frozen=True)
class DeleteNode:
    id: str


@dataclass(frozen=True)
class SetProperty:
    id: str
    key: str
    value: PropertyValue


@dataclass(frozen=True)
class RemoveProperty:
    id: str
    key: str


@dataclass(frozen=True)
class Reparent:
    id: str
    new_parent: str


@dataclass(frozen=True)
class ChangeDepKind:
    parent: str
    child: str
    kind: DepKind


@dataclass(frozen=True)
class AddIndirectEdge:
    parent: str
    child: str


@dataclass(frozen=True)
class RemoveIndirectEdge:
    parent: str
    child: str


EditOp = Union[
    AddNode,
    DeleteNode,
    SetProperty,
    RemoveProperty,
    Reparent,
    ChangeDepKind,
    AddIndirectEdge,
    RemoveIndirectEdge,
]


# -- script replay -------------------------------------------------------------


class _Editor:
    """Minimal mutable graph used to replay edit scripts.

    Deliberately independent of the merge engine's working-state code:
    the merge laws compare merge output against this replay, so the two
    must not trivially agree by sharing their mechanics.
    """

    def __init__(self, graph: LevelGraph):
        self.root = graph.root
        self.nodes: dict[str, Node] = {n.id: n for n in graph.nodes()}
        self.edges: dict[tuple[str, str], DepKind] = {}
        self._out: dict[str, dict[str, DepKind]] = {}
        self._in: dict[str, dict[str, DepKind]] = {}
        for e in graph.edges():
            self.set_edge(e.parent, e.child, e.kind)
        self.assets = dict(graph.assets)

    def set_edge(self, parent: str, child: str, kind: DepKind) -> None:
        self.edges[(parent, child)] = kind
        self._out.setdefault(parent, {})[child] = kind
        self._in.setdefault(child, {})[parent] = kind

    def del_edge(self, parent: str, child: str) -> None:
        del self.edges[(parent, child)]
        del self._out[parent][child]
        del self._in[child][parent]

    def children(self, node_id: str) -> list[tuple[str, DepKind]]:
        return list(self._out.get(node_id, {}).items())

    def direct_parent(self, node_id: str) -> str | None:
        for parent, kind in self._in.get(node_id, {}).items():
            if kind is DepKind.DIRECT:
                return parent
        return None

    def has_path(self, source: str, target: str) -> bool:
        seen = {source}
        frontier = [source]
        while frontier:
            current = frontier.pop()
            if current == target:
                return True
            for child in self._out.get(current, {}):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return False

    def reachable(self) -> set[str]:
        seen = {self.root}
        frontier = [self.root]
        while frontier:
            current = frontier.pop()
            for child in self._out.get(current, {}):
                if child not in seen and child in self.nodes:
                    seen.add(child)
                    frontier.append(child)
        return seen

    def direct_closure(self, node_id: str) -> set[str]:
        seen = {node_id}
        frontier = [node_id]
        while frontier:
            current = frontier.pop()
            for child, kind in self._out.get(current, {}).items():
                if kind is DepKind.DIRECT and child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return seen

    def to_graph(self) -> LevelGraph:
        return LevelGraph(
            self.root,
            self.nodes.values(),
            [Edge(p, c, k) for (p, c), k in self.edges.items()],
            self.assets,
        )


def _apply_op(editor: _Editor, op: EditOp) -> None:
    if isinstance(op, AddNode):
        if op.id in editor.nodes:
            raise ValueError(f"node {op.id!r} already exists")
        if op.parent not in editor.nodes:
            raise ValueError(f"parent {op.parent!r} does not exist")
        editor.nodes[op.id] = Node(op.id, op.kind, dict(op.properties))
        editor.set_edge(op.parent, op.id, DepKind.DIRECT)
    elif isinstance(op, DeleteNode):
        if op.id not in editor.nodes:
            raise ValueError(f"node {op.id!r} does not exist")
        if op.id == editor.root:
            raise ValueError("cannot delete the root")
        doomed = editor.direct_closure(op.id)
        target = editor.direct_parent(op.id) or editor.root
        severed: dict[str, DepKind] = {}
        for member in doomed:
            for child, kind in editor.children(member):
                if child not in doomed and severed.get(child) is not DepKind.DIRECT:
                    severed[child] = kind
        for pair in [p for p in editor.edges if p[0] in doomed or p[1] in doomed]:
            editor.del_edge(*pair)
        for member in doomed:
            del editor.nodes[member]
        reached = editor.reachable()
        for child in sorted(severed):
            if child in reached or child == target:
                continue
            editor.set_edge(target, child, severed[child])
            reached = editor.reachable()
    elif isinstance(op, SetProperty):
        node = editor.nodes.get(op.id)
        if node is None:
            raise ValueError(f"node {op.id!r} does not exist")
        props = dict(node.properties)
        props[op.key] = op.value
        editor.nodes[op.id] = Node(node.id, node.kind, props)
    elif isinstance(op, RemoveProperty):
        node = editor.nodes.get(op.id)
        if node is None:
            raise ValueError(f"node {op.id!r} does not exist")
        if op.key not in node.properties:
            raise ValueError(f"node {op.id!r} has no property {op.key!r}")
        props = dict(node.properties)
        del props[op.key]
        editor.nodes[op.id] = Node(node.id, node.kind, props)
    elif isinstance(op, Reparent):
        if op.id not in editor.nodes or op.new_parent not in editor.nodes:
            raise ValueError("node or parent does not exist")
        if op.id == editor.root:
            raise ValueError("cannot reparent the root")
        if op.new_parent == op.id or editor.has_path(op.id, op.new_parent):
            raise ValueError("reparent would create a cycle")
        current = editor.direct_parent(op.id)
        if current == op.new_parent:
            raise ValueError("reparent is a no-op")
        if current is not None:
            editor.del_edge(current, op.id)
        if (op.new_parent, op.id) in editor.edges:  # absorb an indirect edge
            editor.del_edge(op.new_parent, op.id)
        editor.set_edge(op.new_parent, op.id, DepKind.DIRECT)
    elif isinstance(op, ChangeDepKind):
        kind = editor.edges.get((op.parent, op.child))
        if kind is None:
            raise ValueError(f"edge {op.parent!r} -> {op.child!r} does not exist")
        if kind is op.kind:
            raise ValueError("dependency kind change is a no-op")
        if op.kind is DepKind.DIRECT:
            existing = editor.direct_parent(op.child)
            if existing is not None and existing != op.parent:
                raise ValueError(f"{op.child!r} already has Direct parent {existing!r}")
        editor.set_edge(op.parent, op.child, op.kind)
    elif isinstance(op, AddIndirectEdge):
        if op.parent not in editor.nodes or op.child not in editor.nodes:
            raise ValueError("edge endpoint does not exist")
        if op.parent == op.child:
            raise ValueError("self edge")
        if op.child == editor.root:
            raise ValueError("the root cannot gain an incoming edge")
        if (op.parent, op.child) in editor.edges:
            raise ValueError("edge already exists")
        if editor.has_path(op.child, op.parent):
            raise ValueError("edge would create a cycle")
        editor.set_edge(op.parent, op.child, DepKind.INDIRECT)
    elif isinstance(op, RemoveIndirectEdge):
        kind = editor.edges.get((op.parent, op.child))
        if kind is not DepKind.INDIRECT:
            raise ValueError(f"no indirect edge {op.parent!r} -> {op.child!r}")
        editor.del_edge(op.parent, op.child)
        if op.child not in editor.reachable():
            editor.set_edge(op.parent, op.child, kind)
            raise ValueError("removal would disconnect the child")
    else:
        raise ValueError(f"unknown op {op!r}")


def apply_script(graph: LevelGraph, script: Sequence[EditOp]) -> LevelGraph:
    """Replay ops in order; the result is validated before being returned."""
    editor = _Editor(graph)
    for index, op in enumerate(script):
        try:
            _apply_op(editor, op)
        except ValueError as exc:
            raise ScriptError(index, str(exc)) from None
    result = editor.to_graph()
    report = validate(result)
    if not report.ok:
        raise ScriptError(len(script) - 1, f"script result is invalid:\n{report}")
    return result


# -- generation ----------------------------------------------------------------


_KINDS = ("GameObject", "Transform", "Material", "Script", "Light", "Mesh", "Camera")
_PROP_POOL = (
    ("position.x", "real"),
    ("position.y", "real"),
    ("position.z", "real"),
    ("rotation", "real"),
    ("scale", "real"),
    ("intensity", "real"),
    ("name", "text"),
    ("tag", "text"),
    ("visible", "bool"),
    ("layer", "int"),
)


@dataclass(frozen=True)
class SizeParams:
    """Scenario dimensions: base size plus either a random op budget or
    exact per-branch edited-node targets (hit by construction)."""

    nodes: int
    edges: int
    ops_per_branch: int = 0
    edits_a: int | None = None
    edits_b: int | None = None


PRESETS = {
    "room": SizeParams(nodes=79, edges=84, edits_a=168, edits_b=85),
    "planets": SizeParams(nodes=2702, edges=3352, edits_a=545, edits_b=31),
    "lab": SizeParams(nodes=2800, edges=3156, edits_a=131, edits_b=303),
    "vikings": SizeParams(nodes=2249, edges=2318, edits_a=361, edits_b=467),
}


@dataclass
class Scenario:
    seed: int
    size: SizeParams
    base: LevelGraph
    script_a: tuple[EditOp, ...]
    script_b: tuple[EditOp, ...]
    policy: MergePolicy


def _random_value(rng: random.Random, kind: str) -> PropertyValue:
    if kind == "real":
        return PropertyValue.real(round(rng.uniform(-100, 100), 4))
    if kind == "int":
        return PropertyValue.integer(rng.randint(-10, 10))
    if kind == "bool":
        return PropertyValue.boolean(rng.random() < 0.5)
    return PropertyValue.text(rng.choice(("alpha", "beta", "gamma", "delta", "omega")))


def _build_base(rng: random.Random, size: SizeParams) -> LevelGraph:
    if size.nodes < 1:
        raise GenerationError("a level needs at least the root node")
    if size.edges < size.nodes - 1:
        raise GenerationError("not enough edges to keep every node reachable")
    ids = ["root"] + [f"n{i:04d}" for i in range(1, size.nodes)]
    nodes = []
    assets = {}
    for i in range(3):
        name = f"assets/tex{i:02d}.png"
        assets[name] = hashlib.sha256(name.encode()).hexdigest()
    asset_ids = sorted(assets)
    for i, node_id in enumerate(ids):
        if node_id == "root":
            nodes.append(Node("root", "Scene"))
            continue
        props = {}
        for key, kind in rng.sample(_PROP_POOL, rng.randint(1, 3)):
            props[key] = _random_value(rng, kind)
        if rng.random() < 0.05:
            props["texture"] = PropertyValue.asset_ref(rng.choice(asset_ids))
        nodes.append(Node(node_id, rng.choice(_KINDS), props))

    edges = []
    for i in range(1, size.nodes):
        # bias toward recent nodes so the tree grows deep as well as wide
        if i == 1 or rng.random() < 0.3:
            parent = ids[0]
        else:
            parent = ids[max(1, i - rng.randint(1, min(i - 1, 8))) if rng.random() < 0.7 else rng.randint(1, i - 1)]
        edges.append(Edge(parent, ids[i], DepKind.DIRECT))

    graph = LevelGraph("root", nodes, edges, assets)
    extra = size.edges - (size.nodes - 1)
    editor = _Editor(graph)
    added = 0
    attempts = 0
    while added < extra and attempts < extra * 50 + 100:
        attempts += 1
        parent = rng.choice(ids)
        child = rng.choice(ids)
        if parent == child or child == "root":
            continue
        if (parent, child) in editor.edges:
            continue
        if editor.has_path(child, parent):
            continue
        editor.set_edge(parent, child, DepKind.INDIRECT)
        added += 1
    if added < extra:
        raise GenerationError(f"could not place {extra} extra indirect edges")
    return editor.to_graph()


def _random_script(
    rng: random.Random, base: LevelGraph, ops: int, branch_tag: str
) -> tuple[EditOp, ...]:
    editor = _Editor(base)
    script: list[EditOp] = []
    serial = 0
    weights = (
        ("add", 22),
        ("set", 30),
        ("remove-prop", 6),
        ("delete", 10),
        ("reparent", 12),
        ("kind", 6),
        ("add-edge", 8),
        ("remove-edge", 6),
    )
    names = [w[0] for w in weights]
    cum = [w[1] for w in weights]

    while len(script) < ops:
        choice = rng.choices(names, weights=cum)[0]
        op: EditOp | None = None
        node_ids = sorted(editor.nodes)
        for _ in range(12):  # bounded retries per op kind
            if choice == "add":
                serial += 1
                parent = rng.choice(node_ids)
                props = tuple(
                    (key, _random_value(rng, kind))
                    for key, kind in rng.sample(_PROP_POOL, rng.randint(0, 2))
                )
                op = AddNode(f"{branch_tag}-add-{serial:03d}", rng.choice(_KINDS), parent, props)
            elif choice == "set":
                target = rng.choice(node_ids)
                key, kind = rng.choice(_PROP_POOL)
                value = _random_value(rng, kind)
                if editor.nodes[target].properties.get(key) == value:
                    op = None
                    continue
                op = SetProperty(target, key, value)
            elif choice == "remove-prop":
                target = rng.choice(node_ids)
                keys = sorted(editor.nodes[target].properties)
                if not keys:
                    op = None
                    continue
                op = RemoveProperty(target, rng.choice(keys))
            elif choice == "delete":
                target = rng.choice(node_ids)
                if target == editor.root or len(editor.direct_closure(target)) > 4:
                    op = None
                    continue
                op = DeleteNode(target)
            elif choice == "reparent":
                target = rng.choice(node_ids)
                parent = rng.choice(node_ids)
                op = Reparent(target, parent)
            elif choice == "kind":
                pairs = sorted(editor.edges)
                if not pairs:
                    op = None
                    continue
                parent, child = rng.choice(pairs)
                current = editor.edges[(parent, child)]
                flipped = (
                    DepKind.INDIRECT if current is DepKind.DIRECT else DepKind.DIRECT
                )
                op = ChangeDepKind(parent, child, flipped)
            elif choice == "add-edge":
                parent = rng.choice(node_ids)
                child = rng.choice(node_ids)
                op = AddIndirectEdge(parent, child)
            else:
                pairs = sorted(
                    p for p, k in editor.edges.items() if k is DepKind.INDIRECT
                )
                if not pairs:
                    op = None
                    continue
                parent, child = rng.choice(pairs)
                op = RemoveIndirectEdge(parent, child)

            if op is None:
                continue
            try:
                _apply_op(editor, op)
            except ValueError:
                op = None
                continue
            break
        if op is not None:
            script.append(op)
        else:
            # this op kind found no valid move; try another kind
            index = names.index(choice)
            cum = [w if i != index else 0 for i, w in enumerate(cum)]
            if not any(cum):
                break
    return tuple(script)


def _exact_script(
    rng: random.Random,
    base: LevelGraph,
    target_edits: int,
    leaf_pool: list[str],
    branch_tag: str,
) -> tuple[EditOp, ...]:
    """Build a script whose diff against base touches exactly ``target_edits``
    nodes: additions and edits of distinct base leaves, which cannot
    propagate."""
    editor = _Editor(base)
    script: list[EditOp] = []
    pool = list(leaf_pool)
    rng.shuffle(pool)
    serial = 0
    node_ids = sorted(editor.nodes)
    added_ids: list[str] = []
    while len(script) < target_edits:
        if pool and rng.random() < 0.5:
            leaf = pool.pop()
            if rng.random() < 0.3:
                target = rng.choice(node_ids)
                try:
                    _apply_op(editor, Reparent(leaf, target))
                    script.append(Reparent(leaf, target))
                    continue
                except ValueError:
                    pass
            key, kind = rng.choice(_PROP_POOL)
            value = _random_value(rng, kind)
            if editor.nodes[leaf].properties.get(key) == value:
                # a no-op set would not count as an edit; force a fresh value
                value = PropertyValue.text(f"{branch_tag} edit {len(script)}")
            op: EditOp = SetProperty(leaf, key, value)
            _apply_op(editor, op)
            script.append(op)
            continue
        serial += 1
        parent = rng.choice(added_ids) if added_ids and rng.random() < 0.3 else rng.choice(node_ids)
        props = tuple(
            (key, _random_value(rng, kind))
            for key, kind in rng.sample(_PROP_POOL, rng.randint(0, 2))
        )
        op = AddNode(f"{branch_tag}-add-{serial:04d}", rng.choice(_KINDS), parent, props)
        _apply_op(editor, op)
        script.append(op)
        added_ids.append(op.id)
    return tuple(script)


def generate(seed: int, size: SizeParams, policy: MergePolicy | None = None) -> Scenario:
    """Deterministic scenario from a seed: a valid base level plus two
    independently applicable branch scripts."""
    rng = random.Random(seed)
    base = _build_base(rng, size)
    if size.edits_a is not None or size.edits_b is not None:
        leaves = sorted(
            n
            for n in base.node_ids()
            if n != base.root
            and not any(k is DepKind.DIRECT for _, k in base.children(n))
        )
        pool_a = [leaf for i, leaf in enumerate(leaves) if i % 2 == 0]
        pool_b = [leaf for i, leaf in enumerate(leaves) if i % 2 == 1]
        script_a = _exact_script(
            random.Random(seed * 2 + 1), base, size.edits_a or 0, pool_a, "a"
        )
        script_b = _exact_script(
            random.Random(seed * 2 + 2), base, size.edits_b or 0, pool_b, "b"
        )
    else:
        script_a = _random_script(random.Random(seed * 2 + 1), base, size.ops_per_branch, "a")
        script_b = _random_script(random.Random(seed * 2 + 2), base, size.ops_per_branch, "b")
    return Scenario(seed, size, base, script_a, script_b, policy or MergePolicy())


# -- checking ------------------------------------------------------------------


@dataclass
class Verdict:
    passed: bool
    violations: list[str]
    outcome: MergeOutcome | None = None


def _edit_footprint(diff: DiffResult) -> set[str]:
    """Every node an edit script plausibly touched, endpoints included."""
    footprint = set(diff.intrinsic) | diff.added | diff.deleted
    # the edges only one side holds: the added, removed and flipped ones,
    # a new Direct parent's among them
    for edge in set(diff.ancestor.edges()) ^ set(diff.version.edges()):
        footprint.add(edge.parent)
        footprint.add(edge.child)
    return footprint


def _deletion_scopes(diff: DiffResult) -> set[str]:
    scopes: set[str] = set()
    for node_id in diff.deleted:
        parent = diff.ancestor.direct_parent(node_id)
        if parent is None or parent not in diff.deleted:
            scopes |= direct_subtree(diff.ancestor, node_id)
    return scopes


def check_scenario(scenario: Scenario) -> Verdict:
    violations: list[str] = []
    base = scenario.base
    policy = scenario.policy

    version_a = apply_script(base, scenario.script_a)
    version_b = apply_script(base, scenario.script_b)

    try:
        outcome = merge3(base, version_a, version_b, policy)
    except SceneMergeError as exc:
        return Verdict(False, [f"merge failed: {exc}"])

    merged_bytes = canonical_bytes(outcome.merged)
    report = validate(outcome.merged)
    if not report.ok:
        violations.append(f"merged graph invalid: {report}")

    rerun = merge3(base, version_a, version_b, policy)
    if canonical_bytes(rerun.merged) != merged_bytes:
        violations.append("nondeterministic: double run produced different bytes")

    mirrored = merge3(base, version_b, version_a, policy.mirrored())
    if canonical_bytes(mirrored.merged) != merged_bytes:
        violations.append("branch asymmetry: swapped arguments changed the merge")

    one_sided = merge3(base, version_a, base, policy)
    if canonical_bytes(one_sided.merged) != canonical_bytes(version_a):
        violations.append("one-sided law: merge against untouched branch differs from A")
    if one_sided.conflicts:
        violations.append("one-sided law: conflicts against an untouched branch")

    absorbed = merge3(base, version_a, version_a, policy)
    if canonical_bytes(absorbed.merged) != canonical_bytes(version_a):
        violations.append("agreement absorption: identical branches changed content")
    if absorbed.conflicts:
        violations.append("agreement absorption: identical branches conflicted")

    diff_a = classify(base, version_a)
    diff_b = classify(base, version_b)
    footprint_a = _edit_footprint(diff_a)
    footprint_b = _edit_footprint(diff_b)
    disjoint = (
        not (footprint_a & footprint_b)
        and not (_deletion_scopes(diff_a) & footprint_b)
        and not (_deletion_scopes(diff_b) & footprint_a)
    )
    if disjoint:
        if outcome.conflicts:
            violations.append("disjoint edits still conflicted")
        rediff = classify(base, outcome.merged)
        if rediff.added != diff_a.added | diff_b.added:
            violations.append("disjoint preservation: added set mismatch")
        if rediff.deleted != diff_a.deleted | diff_b.deleted:
            violations.append("disjoint preservation: deleted set mismatch")
        # edits incident to a repaired cycle are legitimately dropped (and
        # recorded); two individually acyclic edge additions can union
        # into a cycle even over disjoint node sets
        repaired = {e.child for e in outcome.removed_cycle_edges}
        repaired |= {e.parent for e in outcome.removed_cycle_edges}
        for diff in (diff_a, diff_b):
            for node_id in diff.intrinsic - repaired:
                if node_id not in rediff.intrinsic or (
                    _describe_edit(rediff, node_id) != _describe_edit(diff, node_id)
                ):
                    violations.append(
                        f"disjoint preservation: delta of {node_id!r} not observable"
                    )
        if outcome.removed_cycle_edges:
            branch_pairs = {
                (e.parent, e.child)
                for diff in (diff_a, diff_b)
                for e in diff.version.edges()
                if diff.ancestor.edge_kind(e.parent, e.child) is None
            }
            recorded = {d.description for d in outcome.dropped}
            for edge in outcome.removed_cycle_edges:
                if (edge.parent, edge.child) not in branch_pairs:
                    continue  # an ancestor edge broke the cycle; not an edit
                if not any(f"{edge.parent} -> {edge.child}" in d for d in recorded):
                    violations.append(
                        "cycle repair dropped a branch edge without recording it"
                    )

    return Verdict(not violations, violations, outcome)


# -- batch runs ------------------------------------------------------------------


def run_simulation(
    seed: int,
    count: int,
    size: SizeParams,
    policy: MergePolicy,
    results_path: str | None = None,
) -> dict:
    """Run ``count`` seeded scenarios and summarize; optionally write JSON."""
    results = []
    failures = 0
    for i in range(count):
        scenario = generate(seed + i, size, policy)
        verdict = check_scenario(scenario)
        stats = verdict.outcome.stats if verdict.outcome else None
        results.append(
            {
                "seed": scenario.seed,
                "passed": verdict.passed,
                "violations": verdict.violations,
                "conflicts": len(verdict.outcome.conflicts) if verdict.outcome else None,
                "merged_nodes": stats.merged_nodes if stats else None,
                "merged_edges": stats.merged_edges if stats else None,
                "wall_time_s": stats.wall_time_s if stats else None,
            }
        )
        if not verdict.passed:
            failures += 1
    summary = {
        "seed": seed,
        "count": count,
        "policy": policy.resolution.value,
        "size": asdict(size),
        "failures": failures,
        "scenarios": results,
    }
    if results_path:
        with open(results_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
    return summary
