from __future__ import annotations

from pathlib import Path

import pytest

from scenemerge import DepKind, Edge, LevelGraph, Node, PropertyValue

FIXTURES = Path(__file__).parent / "fixtures"

D = DepKind.DIRECT
I = DepKind.INDIRECT


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def g(root: str, nodes, edges=(), assets=None) -> LevelGraph:
    """Terse graph builder: nodes as (id, kind) or (id, kind, props)."""
    built = []
    for spec in nodes:
        if len(spec) == 2:
            built.append(Node(spec[0], spec[1]))
        else:
            built.append(Node(spec[0], spec[1], spec[2]))
    return LevelGraph(root, built, [Edge(p, c, k) for p, c, k in edges], assets)


def tables(graph: LevelGraph) -> tuple:
    """What a graph stores, in no order: its tables as mappings, its adjacency as sets."""
    return (
        graph.root, graph._nodes, graph._edges, graph.assets,
        {node_id: set(pairs) for node_id, pairs in graph._out.items()},
        {node_id: set(pairs) for node_id, pairs in graph._in.items()},
    )


def merge3_manifests(ancestor, mine, theirs, store, policy, strategies=None, validators=None):
    """`merge3` on one-node levels that carry the three manifests, with an
    `assets.ManifestMerger` over ``store``: the merged manifest, the
    conflicts and the dropped edits."""
    from scenemerge import merge3
    from scenemerge.assets import ManifestMerger

    levels = [g("r", [("r", "Scene")], assets=m) for m in (ancestor, mine, theirs)]
    out = merge3(*levels, policy, ManifestMerger(store, strategies, validators))
    return out.merged.assets, out.conflicts, out.dropped


@pytest.fixture
def chain3() -> LevelGraph:
    """root -> a -> b, all Direct."""
    return g("root", [("root", "Scene"), ("a", "GameObject"), ("b", "Transform")],
             [("root", "a", D), ("a", "b", D)])


def real(x) -> PropertyValue:
    return PropertyValue.real(x)


def text(s) -> PropertyValue:
    return PropertyValue.text(s)


def repairing_merges() -> dict[str, tuple[LevelGraph, LevelGraph, LevelGraph]]:
    """(ancestor, mine, theirs) triples whose merges repair the level, by repair.

    At 40 nodes with 6 random ops per branch, `sim.generate` seed 145
    closes a cycle under every policy and seed 38 orphans a node under
    prefer-a. In the hand-made triple mine deletes an asset that a node
    theirs adds refers to, so the manifest entry is restored.
    """
    from scenemerge.sim import SizeParams, apply_script, generate

    size = SizeParams(nodes=40, edges=48, ops_per_branch=6)
    triples = {}
    for name, seed in (("cycle", 145), ("orphan", 38)):
        sc = generate(seed, size)
        triples[name] = (sc.base, *(apply_script(sc.base, s) for s in (sc.script_a, sc.script_b)))
    asset = PropertyValue.asset_ref
    nodes = [("r", "Scene"), ("m", "Mesh", {"src": asset("y.png")})]
    manifest = {"x.obj": "111", "y.png": "222"}
    triples["manifest"] = (
        g("r", nodes, [("r", "m", D)], manifest),
        g("r", nodes, [("r", "m", D)], {"y.png": "222"}),
        g("r", [*nodes, ("n", "Mesh", {"src": asset("x.obj")})], [("r", "m", D), ("m", "n", D)],
          manifest),
    )
    return triples
