"""The package's value types behave as plain immutable or mutable records.

Each case names a class, keyword arguments for its required fields, the
field values it takes when the rest are left out, arguments for a second
instance that must compare unequal, the repr of the first instance, and
whether the class is frozen and hashable.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from scenemerge.config import CliConfig
from scenemerge.diff import DiffResult, DiffStats
from scenemerge.graph import (
    DepKind,
    Edge,
    LevelGraph,
    Node,
    PropertyValue,
    ValidationReport,
    Violation,
)
from scenemerge.levelfile import LevelDocument, parse
from scenemerge.merge import (
    AddAddConflict,
    AssetConflict,
    Branch,
    DeleteModifyConflict,
    DroppedEdit,
    MergeOutcome,
    MergePolicy,
    MergeStats,
    PolicyKind,
    PropertyConflict,
    ReparentConflict,
    Resolution,
)

_G = LevelGraph("r", [Node("r", "Scene")])
_G_REPR = "LevelGraph(root='r', nodes=1, edges=0)"
_PV = PropertyValue("int", 3)
_PV_REPR = "PropertyValue(kind='int', value=3)"
_UNRESOLVED = "resolution=<Resolution.UNRESOLVED: 'unresolved'>"
_EMPTY = frozenset()
_STATS = dict(ancestor_nodes=1, ancestor_edges=0, diff_a_edited=2, diff_b_edited=3,
              merged_nodes=4, merged_edges=5, wall_time_s=0.5)
_DIFF = dict(ancestor=_G, version=_G, added=_EMPTY, deleted=_EMPTY, intrinsic=_EMPTY,
             modified=_EMPTY)


def _case(cls, required, defaults, other, shown, frozen, hashable):
    return pytest.param(cls, required, defaults, other, shown, frozen, hashable, id=cls.__name__)


CASES = [
    _case(PropertyValue, dict(kind="int", value=3), {}, dict(kind="int", value=4),
          _PV_REPR, True, True),
    _case(Node, dict(id="n", kind="Light"), dict(properties={}),
          dict(id="n", kind="Light", properties={"x": _PV}),
          "Node(id='n', kind='Light', properties={})", True, False),
    _case(Edge, dict(parent="a", child="b", kind=DepKind.DIRECT), {},
          dict(parent="a", child="b", kind=DepKind.INDIRECT),
          "Edge(parent='a', child='b', kind=<DepKind.DIRECT: 'direct'>)", True, True),
    _case(Violation, dict(code="cycle", message="m"), dict(subjects=()),
          dict(code="cycle", message="m", subjects=("a",)),
          "Violation(code='cycle', message='m', subjects=())", True, True),
    _case(ValidationReport, dict(violations=()), {},
          dict(violations=(Violation("cycle", "m"),)),
          "ValidationReport(violations=())", True, True),
    _case(DiffResult, _DIFF, {}, {**_DIFF, "added": frozenset({"n"})},
          f"DiffResult(ancestor={_G_REPR}, version={_G_REPR}, added=frozenset(), "
          "deleted=frozenset(), intrinsic=frozenset(), modified=frozenset())", True, False),
    _case(DiffStats, dict(added=1, deleted=2, modified_intrinsic=3, modified_propagated=4), {},
          dict(added=1, deleted=2, modified_intrinsic=3, modified_propagated=5),
          "DiffStats(added=1, deleted=2, modified_intrinsic=3, modified_propagated=4)",
          True, True),
    _case(LevelDocument, dict(format_version=1, graph=_G), {},
          dict(format_version=2, graph=_G),
          f"LevelDocument(format_version=1, graph={_G_REPR})", True, False),
    _case(MergePolicy, {},
          dict(resolution=PolicyKind.MANUAL, numeric_averaging=False, averageable_kinds=_EMPTY),
          dict(resolution=PolicyKind.PREFER_A),
          "MergePolicy(resolution=<PolicyKind.MANUAL: 'manual'>, numeric_averaging=False, "
          "averageable_kinds=frozenset())", True, True),
    _case(PropertyConflict,
          dict(node="n", key="k", value_a=_PV, value_b=None, ancestor_value=None),
          dict(resolution=Resolution.UNRESOLVED),
          dict(node="n", key="k", value_a=None, value_b=_PV, ancestor_value=None),
          f"PropertyConflict(node='n', key='k', value_a={_PV_REPR}, value_b=None, "
          f"ancestor_value=None, {_UNRESOLVED})", False, False),
    _case(AddAddConflict, dict(node="n", key="k", value_a=_PV, value_b=None),
          dict(resolution=Resolution.UNRESOLVED),
          dict(node="n", key="k", value_a=_PV, value_b=None, resolution=Resolution.TOOK_A),
          f"AddAddConflict(node='n', key='k', value_a={_PV_REPR}, value_b=None, {_UNRESOLVED})",
          False, False),
    _case(ReparentConflict, dict(node="n", parent_a="a", parent_b=None),
          dict(resolution=Resolution.UNRESOLVED), dict(node="n", parent_a="a", parent_b="b"),
          f"ReparentConflict(node='n', parent_a='a', parent_b=None, {_UNRESOLVED})",
          False, False),
    _case(DeleteModifyConflict,
          dict(deleting_branch=Branch.A, deleted_node="n", subtree=("n",), touched=()),
          dict(resolution=Resolution.UNRESOLVED),
          dict(deleting_branch=Branch.A, deleted_node="n", subtree=("n",), touched=("m",)),
          "DeleteModifyConflict(deleting_branch=<Branch.A: 'a'>, deleted_node='n', "
          f"subtree=('n',), touched=(), {_UNRESOLVED})", False, False),
    _case(AssetConflict, dict(asset_id="a.py", digest_a="1", digest_b="2", ancestor_digest=None),
          dict(resolution=Resolution.UNRESOLVED),
          dict(asset_id="a.py", digest_a="1", digest_b="3", ancestor_digest=None),
          "AssetConflict(asset_id='a.py', digest_a='1', digest_b='2', ancestor_digest=None, "
          f"{_UNRESOLVED})", False, False),
    _case(DroppedEdit, dict(branch=Branch.B, node=None, description="d"), {},
          dict(branch=Branch.A, node=None, description="d"),
          "DroppedEdit(branch=<Branch.B: 'b'>, node=None, description='d')", True, True),
    _case(MergeStats, _STATS, {}, {**_STATS, "wall_time_s": 0.25},
          "MergeStats(ancestor_nodes=1, ancestor_edges=0, diff_a_edited=2, diff_b_edited=3, "
          "merged_nodes=4, merged_edges=5, wall_time_s=0.5)", True, True),
    _case(MergeOutcome,
          dict(merged=_G, conflicts=[], dropped=[], removed_cycle_edges=[],
               stats=MergeStats(**_STATS)), {},
          dict(merged=_G, conflicts=[], dropped=[], removed_cycle_edges=[],
               stats=MergeStats(**{**_STATS, "merged_edges": 6})),
          f"MergeOutcome(merged={_G_REPR}, conflicts=[], dropped=[], removed_cycle_edges=[], "
          "stats=MergeStats(ancestor_nodes=1, ancestor_edges=0, diff_a_edited=2, "
          "diff_b_edited=3, merged_nodes=4, merged_edges=5, wall_time_s=0.5))", False, False),
    _case(CliConfig, {},
          dict(policy=PolicyKind.MANUAL, averaging=False, averageable_kinds=_EMPTY,
               strategies={}, validators={}, asset_types={}, assets_dir=None, user=None,
               color=None),
          dict(user="alice"),
          "CliConfig(policy=<PolicyKind.MANUAL: 'manual'>, averaging=False, "
          "averageable_kinds=frozenset(), strategies={}, validators={}, asset_types={}, "
          "assets_dir=None, user=None, color=None)", False, False),
]


@pytest.mark.parametrize("cls, required, defaults, other, shown, frozen, hashable", CASES)
def test_record_parity(cls, required, defaults, other, shown, frozen, hashable):
    record, same, different = cls(**required), cls(**required), cls(**other)
    fields = {**required, **defaults}
    assert {name: getattr(record, name) for name in fields} == fields
    assert cls(*fields.values()) == record  # the keywords are the fields, in order
    for name, value in defaults.items():  # a mutable default is never shared
        if isinstance(value, dict):
            assert getattr(record, name) is not getattr(same, name)
    if required:
        with pytest.raises(TypeError):
            cls()
    with pytest.raises(TypeError):
        cls(**required, no_such_field=1)

    assert record == same and not record != same
    assert record != different and not record == different
    # equal values in another class, or as a tuple, never compare equal
    assert record != SimpleNamespace(**fields)
    assert record != tuple(fields.values())
    for param in CASES:
        other_cls, other_required = param.values[:2]
        if other_cls is not cls:
            assert record != other_cls(**other_required)

    assert repr(record) == shown
    if hashable:
        assert hash(record) == hash(same)
        assert {record, same, different} == {record, different}
    else:
        with pytest.raises(TypeError):
            hash(record)

    name = next(iter(fields))
    if frozen:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(different, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert record == same
    else:
        setattr(record, name, "changed")
        assert getattr(record, name) == "changed" and record != same


def test_level_document_ignores_its_lines():
    read = parse("lvl 1\nroot n\nnode n Light\n")
    graph = read.graph
    assert graph._lines is not None
    built = LevelDocument(1, LevelGraph(graph.root, graph.nodes(), graph.edges(), graph.assets))
    assert built.graph._lines is None
    assert read == built and repr(read) == repr(built)


@pytest.mark.parametrize("lines, eager", [
    ("prop n x int 3\n", Node("n", "Light", {"x": _PV})),
    ("", Node("n", "Light")),
])
def test_a_node_read_lazily_is_the_node_built_eagerly(lines, eager):
    """A canonical read builds a node's properties on their first read, and
    the node behaves as the `Node` case of `test_record_parity` does."""
    other = Node("n", "Light", {"x": PropertyValue("int", 4)})
    node = parse(f"lvl 1\nroot n\nnode n Light\n{lines}").graph.node("n")
    with pytest.raises(AttributeError):
        Node.properties.__get__(node)  # not built by the read
    assert repr(node) == repr(eager)  # the first read builds it
    assert Node.properties.__get__(node) == eager.properties
    node = parse(f"lvl 1\nroot n\nnode n Light\n{lines}").graph.node("n")
    assert node == eager and not node != eager and eager == node
    assert node != other and not node == other
    with pytest.raises(TypeError):
        hash(node)
    with pytest.raises(AttributeError):
        node.properties = {}
    with pytest.raises(AttributeError):
        node.no_such_field
    assert node.properties is node.properties


@pytest.mark.parametrize(
    "kind, given, stored",
    [("real", -0.0, 0.0), ("real", 0, 0.0), ("real", 3, 3.0), ("real", 2.5, 2.5),
     ("int", 10**30, 10**30), ("bool", False, False), ("text", "", ""), ("ref", "n", "n")],
)
def test_property_value_normalises_reals(kind, given, stored):
    value = PropertyValue(kind, given).value
    assert value == stored and type(value) is type(stored)
    assert kind != "real" or math.copysign(1.0, value) == 1.0


def test_property_value_kinds_never_compare_equal():
    values = [PropertyValue("bool", True), PropertyValue("int", 1), PropertyValue("real", 1.0),
              PropertyValue("text", "1"), PropertyValue("ref", "1"), PropertyValue("asset", "1")]
    assert len(set(values)) == len(values)
    assert PropertyValue("real", -0.0) == PropertyValue("real", 0.0)
    assert repr(PropertyValue("real", 3)) == "PropertyValue(kind='real', value=3.0)"


@pytest.mark.parametrize(
    "kind, given, message",
    [("color", 1, "unknown property kind 'color'"),
     ("bool", 1, "invalid bool property value: 1"),
     ("int", True, "invalid int property value: True"),
     ("int", 1.0, "invalid int property value: 1.0"),
     ("real", True, "invalid real property value: True"),
     ("real", "1", "invalid real property value: '1'"),
     ("real", float("inf"), "invalid real property value: inf"),
     ("real", float("nan"), "invalid real property value: nan"),
     ("text", None, "invalid text property value: None"),
     ("ref", "", "invalid ref property value: ''"),
     ("asset", 3, "invalid asset property value: 3")],
)
def test_property_value_rejects(kind, given, message):
    with pytest.raises(ValueError) as raised:
        PropertyValue(kind, given)
    assert str(raised.value) == message
