"""Command-line front end.

Subcommands: ``validate``, ``diff``, ``merge``, ``merge-driver``,
``stats``, ``simulate``. Exit codes follow one contract everywhere:
0 clean, 1 differences or unresolved conflicts, 2 usage or input error.

``merge-driver`` follows the version-control custom-driver convention:
invoked with the ancestor, current, and other file paths, it overwrites
the current file with the merged document and exits 0 on a clean merge,
1 when unresolved conflicts remain (the file still holds a loadable
document with conflicting items at ancestor state), 2 on bad input or
an internal error (reported as ``scenemerge: internal error: ...``).
Output files are replaced whole, never truncated in place.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .diff import ChangeClass, classify, diff_stats
from .graph import SceneMergeError, _gc_paused, validate
from .levelfile import (
    FORMAT_VERSION,
    LevelDocument,
    atomic_open,
    read_document,
    serialize,
    write_document,
)
from .merge import MergeInternalError, _describe_edit, merge3
from .report import render_report

EXIT_CLEAN = 0
EXIT_DIFFERENCES = 1
EXIT_ERROR = 2

# `sim.PRESETS`' names, so that a merge never imports the simulator
_SIZE_PRESETS = ("lab", "planets", "room", "vikings")


def _cmd_validate(args) -> int:
    doc = read_document(args.file)
    report = validate(doc.graph)
    if report.ok:
        print("valid")
        return EXIT_CLEAN
    print(report)
    return EXIT_DIFFERENCES


def _describe_changes(diff) -> list[str]:
    """A line for each edited node, then one for each changed manifest entry."""
    lines = []
    for node_id in diff.nodes_in_class(ChangeClass.ADDED):
        lines.append(f"add {node_id}")
    for node_id in diff.nodes_in_class(ChangeClass.DELETED):
        lines.append(f"delete {node_id}")
    for node_id in diff.nodes_in_class(ChangeClass.MODIFIED):
        if node_id not in diff.intrinsic:
            lines.append(f"modify {node_id} (propagated)")
            continue
        fragments = _describe_edit(diff, node_id)
        moves = [f for f in fragments if f.startswith("reparent ")]
        edits = [f for f in fragments if f not in moves and f != "edited"]
        lines.extend(f"reparent {node_id} {move.removeprefix('reparent ')}" for move in moves)
        if edits:
            lines.append(f"modify {node_id}: " + "; ".join(edits))
        elif not moves:
            lines.append(f"modify {node_id}")
    base_assets, assets = diff.ancestor.assets, diff.version.assets
    for asset_id in sorted(base_assets.keys() | assets.keys()):
        old, new = base_assets.get(asset_id), assets.get(asset_id)
        if old is None:
            lines.append(f"add asset {asset_id} {new}")
        elif new is None:
            lines.append(f"delete asset {asset_id}")
        elif old != new:
            lines.append(f"modify asset {asset_id}: {old} -> {new}")
    return lines


def _cmd_diff(args) -> int:
    ancestor = read_document(args.ancestor)
    version = read_document(args.version, base=ancestor)
    diff = classify(ancestor.graph, version.graph)
    stats = diff_stats(diff)
    print(
        f"{stats.added} added, {stats.deleted} deleted, "
        f"{stats.modified_intrinsic + stats.modified_propagated} modified "
        f"({stats.modified_intrinsic} intrinsic, {stats.modified_propagated} propagated)"
    )
    print(f"total edited nodes: {stats.total_edited}")
    lines = _describe_changes(diff)
    for line in lines:
        print(line)
    return EXIT_DIFFERENCES if lines else EXIT_CLEAN


def _manifest_merger(config):
    """The config's content step for `merge3`'s manifest loop, or None for digests only."""
    if config.assets_dir is None or not (config.strategies or config.validators):
        return None
    # only here: `assets` imports subprocess, tempfile and hashlib
    from .assets import BlobStore, CommandStrategy, ManifestMerger

    return ManifestMerger(
        BlobStore(config.assets_dir),
        {tag: CommandStrategy(argv) for tag, argv in config.strategies.items()},
        config.validators,
        config.asset_types,
    )


def _merge_files(args):
    """Load the config and the three documents named in ``args``, then merge them."""
    config = load_config(getattr(args, "config", None))
    policy = config.merge_policy(getattr(args, "policy", None))

    # each branch is read as the ancestor's lines patched
    ancestor = read_document(args.ancestor)
    mine = read_document(args.mine, base=ancestor)
    theirs = read_document(args.theirs, base=ancestor)

    outcome = merge3(ancestor.graph, mine.graph, theirs.graph, policy, _manifest_merger(config))
    return config, policy, ancestor, outcome


# The merge commands build and free hundreds of thousands of acyclic
# objects. Each runs under one collector pause that ends only after its
# documents and outcome are freed, so no collection sweeps them.
@_gc_paused()
def _cmd_merge(args) -> int:
    """``merge`` writes to ``--output``, ``merge-driver`` over the current file."""
    # the merged level's record holds the ancestor weakly, so the ancestor is
    # held here until the write, which splices the merge into its lines
    config, policy, ancestor, outcome = _merge_files(args)

    out_path = args.mine if args.command == "merge-driver" else args.output
    merged_doc = LevelDocument(FORMAT_VERSION, outcome.merged)
    if out_path == "-":
        sys.stdout.write(serialize(merged_doc))
    else:
        write_document(merged_doc, out_path)
    if args.report:
        with atomic_open(args.report) as handle:
            handle.write(render_report(outcome, policy, config.report_meta()))
    return EXIT_DIFFERENCES if outcome.unresolved else EXIT_CLEAN


@_gc_paused()
def _cmd_stats(args) -> int:
    _, _, _, outcome = _merge_files(args)
    s = outcome.stats
    print(
        f"{s.ancestor_nodes} {s.ancestor_edges} {s.diff_a_edited} {s.diff_b_edited} "
        f"{s.merged_nodes} {s.merged_edges} {s.wall_time_s:.3f}"
    )
    return EXIT_CLEAN


def _cmd_simulate(args) -> int:
    from .sim import PRESETS, SizeParams, run_simulation

    if args.size == "custom":
        size = SizeParams(
            nodes=args.nodes, edges=args.edges, ops_per_branch=args.ops_per_branch
        )
    else:
        size = PRESETS[args.size]
    config = load_config(getattr(args, "config", None))
    policy = config.merge_policy(getattr(args, "policy", None))
    summary = run_simulation(args.seed, args.count, size, policy, args.out)
    passed = summary["count"] - summary["failures"]
    print(f"{passed}/{summary['count']} scenarios passed (size={args.size}, policy={policy.resolution.value})")
    for entry in summary["scenarios"]:
        if not entry["passed"]:
            print(f"seed {entry['seed']} FAILED: " + "; ".join(entry["violations"]))
    if args.out:
        print(f"results written to {args.out}")
    return EXIT_CLEAN if summary["failures"] == 0 else EXIT_DIFFERENCES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenemerge",
        description="Semantics-preserving 3-way diff and merge for game level files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a level file's structural invariants")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("diff", help="classify changes of a version against its ancestor")
    p.add_argument("ancestor")
    p.add_argument("version")
    p.set_defaults(func=_cmd_diff)

    def add_merge_options(p, with_output: bool):
        p.add_argument("--policy", choices=["manual", "prefer-a", "prefer-b"])
        p.add_argument("--config", help="explicit configuration file path")
        p.add_argument("--report", help="write the merge report to this path")
        if with_output:
            p.add_argument(
                "--output", default="-", help="merged document path (default: stdout)"
            )

    p = sub.add_parser("merge", help="3-way merge two versions against their ancestor")
    p.add_argument("ancestor")
    p.add_argument("mine")
    p.add_argument("theirs")
    add_merge_options(p, with_output=True)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser(
        "merge-driver",
        help="version-control merge driver: merges in place over the current file",
    )
    p.add_argument("ancestor")
    p.add_argument("mine", metavar="current")
    p.add_argument("theirs", metavar="other")
    add_merge_options(p, with_output=False)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("stats", help="one-line merge statistics row")
    p.add_argument("ancestor")
    p.add_argument("mine")
    p.add_argument("theirs")
    p.add_argument("--policy", choices=["manual", "prefer-a", "prefer-b"])
    p.add_argument("--config")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("simulate", help="run seeded random merge scenarios")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=100)
    p.add_argument(
        "--size", default="custom", choices=["custom", *_SIZE_PRESETS],
    )
    p.add_argument("--nodes", type=int, default=20)
    p.add_argument("--edges", type=int, default=24)
    p.add_argument("--ops-per-branch", type=int, default=4)
    p.add_argument("--policy", choices=["manual", "prefer-a", "prefer-b"])
    p.add_argument("--config")
    p.add_argument("--out", default="sim-results.json", help="machine-readable results file")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MergeInternalError as exc:
        # a fault in scenemerge, not in its input
        print(f"scenemerge: internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, SceneMergeError) as exc:
        print(f"scenemerge: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
