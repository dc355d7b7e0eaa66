from __future__ import annotations

from scenemerge import DepKind, Edge, PropertyValue
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
from scenemerge.report import render_report
from report_reader import parse_report


def full_outcome() -> MergeOutcome:
    return MergeOutcome(
        merged=None,  # the report never touches the graph
        conflicts=[
            PropertyConflict("lamp", "intensity", PropertyValue.real(2.0), None,
                             PropertyValue.real(1.0), Resolution.TOOK_B),
            AddAddConflict("painting", "color", PropertyValue.text("red space"),
                           PropertyValue.text("blue"), Resolution.UNRESOLVED),
            ReparentConflict("bunny", "dollhouse", None, Resolution.UNRESOLVED),
            DeleteModifyConflict(Branch.A, "planet", ("planet", "planet-mat"),
                                 ("planet-mat",), Resolution.TOOK_A),
            AssetConflict("code/ai with space.py", "9f86", None, "e3b0",
                          Resolution.UNRESOLVED),
        ],
        dropped=[
            DroppedEdit(Branch.B, "planet-mat", 'set color = text "has \\"quotes\\""'),
            DroppedEdit(Branch.A, None, "delete asset x.png"),
        ],
        removed_cycle_edges=[Edge("engine", "chassis", DepKind.INDIRECT)],
        stats=MergeStats(79, 84, 168, 85, 244, 248, 0.071),
    )


def test_every_conflict_kind_round_trips():
    text = render_report(full_outcome(), MergePolicy(PolicyKind.PREFER_B), {"user": "alice"})
    report = parse_report(text)

    assert report.policy == "prefer-b"
    assert report.meta == {"user": "alice"}
    assert report.stats["ancestor_nodes"] == 79
    assert report.stats["unresolved"] == 3

    prop, addadd, rep, dm, asset = report.conflicts
    assert prop.kind == "property"
    assert prop.value_a == PropertyValue.real(2.0)
    assert prop.value_b is None  # a removal on that side
    assert prop.ancestor_value == PropertyValue.real(1.0)
    assert prop.resolution == "took-b"

    assert addadd.value_a == PropertyValue.text("red space")
    assert rep.value_a == "dollhouse" and rep.value_b is None

    assert dm.branch == "a"
    assert dm.subtree == ["planet", "planet-mat"]
    assert dm.touched == ["planet-mat"]

    assert asset.node == "code/ai with space.py"
    assert asset.value_b is None

    assert report.dropped[0] == ("b", "planet-mat", 'set color = text "has \\"quotes\\""')
    assert report.dropped[1] == ("a", None, "delete asset x.png")
    assert report.cycle_edges == [("engine", "chassis", "indirect")]


def test_report_reconstructs_non_applied_edits():
    # everything a losing branch wrote is recoverable from the report text
    text = render_report(full_outcome(), MergePolicy(PolicyKind.PREFER_B))
    report = parse_report(text)
    held = [c for c in report.conflicts if c.resolution == "unresolved"]
    assert {(c.kind, c.node) for c in held} == {
        ("add-add", "painting"),
        ("reparent", "bunny"),
        ("asset", "code/ai with space.py"),
    }
    for conflict in held:
        assert conflict.value_a is not None or conflict.value_b is not None
