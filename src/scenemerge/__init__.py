"""Semantics-preserving 3-way diff and merge for game levels.

Levels are labeled directed acyclic graphs: uniquely identified nodes
with typed scalar properties, connected by direct (change-mirroring)
and indirect (reference) dependency edges. The package diffs two
edited versions against their common ancestor, merges them with
conflict detection and policy-based resolution, keeps the merged level
hierarchically and semantically coherent (acyclic, fully reachable,
references intact), and integrates with version control as a custom
merge driver for ``.lvl`` files.
"""

from .diff import (
    ChangeClass,
    DiffResult,
    DiffStats,
    GraphMismatchError,
    InvalidGraphError,
    classify,
    diff_stats,
)
from .graph import (
    DepKind,
    Edge,
    LevelGraph,
    Node,
    PropertyValue,
    SceneMergeError,
    UnknownNodeError,
    ValidationReport,
    Violation,
    direct_subtree,
    validate,
)
from .levelfile import (
    FORMAT_VERSION,
    LevelDocument,
    ParseError,
    canonical_bytes,
    parse,
    read_document,
    serialize,
    write_document,
)
from .merge import (
    AddAddConflict,
    AssetConflict,
    Branch,
    Conflict,
    DeleteModifyConflict,
    DroppedEdit,
    MergeOutcome,
    MergePolicy,
    MergeStats,
    PolicyKind,
    PropertyConflict,
    ReparentConflict,
    Resolution,
    merge3,
)

__version__ = "0.1.0"
