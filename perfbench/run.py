"""scenemerge benchmark: merge latency end to end, layer spans from outside.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--digests FILE]

Run from the root of a scenemerge checkout. One client runs merges in a
closed loop: each merge starts when the previous one has been checked.
Each workload runs a fixed number of units of work, so every run of a seed
merges the same inputs; before each unit its inputs are generated from the
seed (set-up, untimed). The units are sized so that a run takes 20 to 50 s
on a 2-vCPU x86-64 host; ``--seconds`` is only a safety cap: a run that
passes CAP_FACTOR times ``--seconds`` starts no further unit and says so
on a ``CAP`` line.

Workloads (see README.md for why each was chosen):
    driver-presets     ``python -m scenemerge.cli merge-driver`` as a fresh
                       process, on the paper's figure fixtures and the four
                       paper-size presets
    engine-random-10k  ``merge3`` in-process on 10k-node random-op levels
    files-exact-40k    ``cli.main(["merge", ...])`` in-process on 40k-node
                       levels with exact leaf edits

Every merge is checked: exit code, sha256 of the merged bytes and of the
report (wall-time line masked) against ``digests.json``, byte equality
with the hand-written fixture results, and the invariants in check.py.
Any failed check makes the exit code 1.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separately traced loop; a traced run whose spans cover less
than COVERAGE_FLOOR of a merge, or that finds a wrapped attribute missing,
is not correct and exits 1. The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from check import digest, level_of_graph, read_level, report_digest, report_stats, violations
from spans import Tracer, merge_layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
WORK = ROOT / ".perfbench-work"

DEFAULT_SEED = 1
HELD_OUT_SEED = 4  # reads pool entries the default seed does not; use it to confirm a claim
POLICIES = ("manual", "prefer-a", "prefer-b")
MIN_TAIL_BEYOND = 10
CAP_FACTOR = 3  # keeps a run on a slow host well inside the 180 s a run may take
COVERAGE_FLOOR = 0.9  # the named spans must account for this share of traced wall time

E2E_UNITS = {
    "merge_p50_s": "s",
    "merges_per_s": "1/s",
    "cpu_s_per_merge": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_UNITS = {
    "cli.interp_start_s": "s",
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "config.load_s": "s",
    "levelfile.parse_s": "s",
    "levelfile.parse_calls": "count",
    "levelfile.parse_lines_per_s": "lines/s",
    "levelfile.read_io_s": "s",
    "levelfile.serialize_s": "s",
    "levelfile.write_io_s": "s",
    "graph.validate_s": "s",
    "graph.validate_calls": "count",
    "diff.classify_self_s": "s",
    "diff.classify_calls": "count",
    "merge.merge3_s": "s",
    "merge.self_s": "s",
    "merge.edited_nodes": "count",
    "merge.conflicts": "count",
    "merge.dropped": "count",
    "merge.cycle_edges_removed": "count",
    "report.render_s": "s",
    "python.gc_s": "s",
    "python.gc_gen2_collections": "count",
    "trace.coverage": "ratio",
}


class BenchError(Exception):
    """The benchmark itself cannot run here (missing sources, bad inputs)."""


@dataclass
class Merge:
    key: str  # entry in digests.json
    policy: str
    ancestor: object  # a path for the file workloads, a LevelGraph for the engine
    mine: object
    theirs: object
    expected: bytes | None = None  # hand-written merged document, where one exists


@dataclass
class Result:
    wall_s: float
    cpu_s: float
    exit_code: int
    merged: bytes
    report: bytes
    layers: dict | None = None  # traced runs only


def cpu_now() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def scenario(size, seed: int):
    """Base level and both branch versions for one simulator seed."""
    from scenemerge.sim import SizeParams, apply_script, generate

    sc = generate(seed, size if isinstance(size, SizeParams) else SizeParams(**size))
    versions = (sc.base, apply_script(sc.base, sc.script_a), apply_script(sc.base, sc.script_b))
    for graph in versions:
        broken = violations(level_of_graph(graph))
        if broken:
            raise BenchError(f"generated input for seed {seed} is invalid: {broken}")
    return versions


def write_levels(unit_dir: Path, stem: str, graphs) -> tuple[Path, Path, Path]:
    from scenemerge.levelfile import FORMAT_VERSION, LevelDocument, serialize

    paths = tuple(unit_dir / f"{stem}-{role}.lvl" for role in ("base", "mine", "theirs"))
    for path, graph in zip(paths, graphs):
        path.write_text(serialize(LevelDocument(FORMAT_VERSION, graph)), encoding="utf-8", newline="\n")
    return paths


def merge_outputs(outcome, policy) -> tuple[int, bytes, bytes]:
    """Exit code, merged document and report the CLI would give for ``outcome``."""
    from scenemerge.levelfile import FORMAT_VERSION, LevelDocument, serialize
    from scenemerge.report import render_report

    merged = serialize(LevelDocument(FORMAT_VERSION, outcome.merged)).encode("utf-8")
    report = render_report(outcome, policy, {}).encode("utf-8")
    return 1 if outcome.unresolved else 0, merged, report


def child_env() -> dict:
    """Environment for interpreters started on this checkout's sources.

    Bytecode writing is switched on and warmed once, so every timed start
    finds compiled modules, as an installed package would.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-c", "import scenemerge.cli"], env=env, check=True, timeout=60)
    return env


def layer_figures(spans: list, gc_s: float, gc_gen2: int, outside_s: float = 0.0) -> dict:
    """One traced merge's layer figures; ``outside_s`` is accounted-for time outside the spans."""
    layers = merge_layers(spans)
    layers.update({"python.gc_s": gc_s, "python.gc_gen2_collections": gc_gen2})
    layers["_covered_s"] = outside_s + layers.pop("_layer_calls_s")
    return layers


# -- workloads -----------------------------------------------------------------


class DriverPresets:
    """Git's own traffic: one merge-driver process per conflicting file."""

    name = "driver-presets"
    pool, units = 32, 6
    figures = (
        ("fig3", "fig3", "manual", "fig3-merged.lvl"),
        ("fig4-manual", "fig4", "manual", None),
        ("fig4-prefer-a", "fig4", "prefer-a", "fig4-merged-prefer-a.lvl"),
        ("fig4-prefer-b", "fig4", "prefer-b", "fig4-merged-prefer-b.lvl"),
    )

    def __init__(self, workdir: Path, startup_s: float | None):
        self.workdir = workdir
        self.startup_s = startup_s  # bare interpreter start, for trace coverage
        self.env = child_env()

    def setup(self, index: int, unit_dir: Path) -> list[Merge]:
        from scenemerge.sim import PRESETS

        merges = []
        for key, fig, policy, expected in self.figures:
            paths = [unit_dir / f"{key}-{role}.lvl" for role in ("base", "mine", "theirs")]
            for path, role in zip(paths, ("base", "mine", "theirs")):
                shutil.copyfile(FIXTURES / f"{fig}-{role}.lvl", path)
            expected_bytes = (FIXTURES / expected).read_bytes() if expected else None
            merges.append(Merge(key, policy, *paths, expected=expected_bytes))
        for preset in sorted(PRESETS):
            paths = write_levels(unit_dir, preset, scenario(PRESETS[preset], index))
            merges.append(Merge(f"{preset}/{index}", "manual", *paths))
        return merges

    def run(self, merge: Merge, unit_dir: Path, tracer, merge_id: int) -> Result:
        current = unit_dir / f"current-{merge_id}.lvl"
        report = unit_dir / f"report-{merge_id}.lvlreport"
        shutil.copyfile(merge.mine, current)
        args = ["merge-driver", str(merge.ancestor), str(current), str(merge.theirs),
                "--report", str(report), "--policy", merge.policy]
        spans_path = unit_dir / f"spans-{merge_id}.json"
        if tracer is None:
            argv = [sys.executable, "-m", "scenemerge.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "driver_child.py"), str(spans_path), *args]
        cpu = cpu_now()
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.workdir, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        wall = time.perf_counter() - start
        cpu = cpu_now() - cpu
        if proc.returncode not in (0, 1):
            raise BenchError(f"driver exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
        result = Result(wall, cpu, proc.returncode, current.read_bytes(), report.read_bytes())
        if tracer is not None:
            child = json.loads(spans_path.read_text(encoding="utf-8"))
            result.layers = layer_figures(child["spans"], child["gc_s"], child["gc_gen2"],
                                          self.startup_s + child["import_s"] + child["own_s"])
        return result

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class EngineRandom10k:
    """``merge3`` alone: deletions, conflicts and cycle repair at 10k nodes."""

    name, stem = "engine-random-10k", "random-10k"
    pool, units = 24, 4
    size = {"nodes": 10_000, "edges": 11_000, "ops_per_branch": 600}

    def __init__(self, workdir: Path, startup_s: float | None):
        pass

    @staticmethod
    def policies(index: int) -> tuple[str, ...]:
        """Two policies per level, rotating along the pool.

        A merge costs about as much as generating its level, so a second
        merge per level doubles the timed work per unit of set-up, and four
        levels of two merges spread less than two levels of three.
        """
        return tuple(POLICIES[(index + k) % len(POLICIES)] for k in range(2))

    def setup(self, index: int, unit_dir: Path) -> list[Merge]:
        graphs = scenario(self.size, index)
        return [Merge(f"{self.stem}/{index}/{policy}", policy, *graphs) for policy in self.policies(index)]

    def run(self, merge: Merge, unit_dir: Path, tracer, merge_id: int) -> Result:
        from scenemerge.graph import LevelGraph
        from scenemerge.merge import MergePolicy, PolicyKind, merge3

        policy = MergePolicy(PolicyKind(merge.policy))
        # New graph objects for every merge, so no lazily filled cache such as
        # LevelGraph._heights carries over from generation or an earlier merge.
        inputs = [LevelGraph(g.root, g.nodes(), g.edges(), g.assets)
                  for g in (merge.ancestor, merge.mine, merge.theirs)]
        inputs.append(policy)
        cpu = cpu_now()
        start = time.perf_counter()
        if tracer is None:
            outcome = merge3(*inputs)
        else:
            outcome = tracer.call(merge_id, "merge.merge3", merge3, *inputs)
        wall = time.perf_counter() - start
        cpu = cpu_now() - cpu
        result = Result(wall, cpu, *merge_outputs(outcome, policy))
        if tracer is not None:
            # merge3 is the only layer call here, so coverage reads about 1;
            # calls routed around the inner wrappers show in the call counts.
            result.layers = layer_figures(*tracer.take(merge_id))
        return result

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class FilesExact40k:
    """The driver path without interpreter start, on a level 14x lab's size."""

    name, stem = "files-exact-40k", "exact-40k"
    pool, units = 12, 2
    size = {"nodes": 40_000, "edges": 45_000, "edits_a": 400, "edits_b": 400}

    def __init__(self, workdir: Path, startup_s: float | None):
        pass

    @staticmethod
    def policies(index: int) -> tuple[str, ...]:
        return ("manual",)  # the files are written once, so one merge reads them

    def setup(self, index: int, unit_dir: Path) -> list[Merge]:
        paths = write_levels(unit_dir, self.stem, scenario(self.size, index))
        return [Merge(f"{self.stem}/{index}/manual", "manual", *paths)]

    def run(self, merge: Merge, unit_dir: Path, tracer, merge_id: int) -> Result:
        from scenemerge import cli

        out = unit_dir / f"merged-{merge_id}.lvl"
        report = unit_dir / f"report-{merge_id}.lvlreport"
        argv = ["merge", str(merge.ancestor), str(merge.mine), str(merge.theirs),
                "--output", str(out), "--report", str(report), "--policy", merge.policy]
        cpu = cpu_now()
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call(merge_id, "cli.main", cli.main, argv)
        wall = time.perf_counter() - start
        cpu = cpu_now() - cpu
        result = Result(wall, cpu, code, out.read_bytes(), report.read_bytes())
        if tracer is not None:
            result.layers = layer_figures(*tracer.take(merge_id))
        return result

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (DriverPresets, EngineRandom10k, FilesExact40k)}


# -- checking and statistics ---------------------------------------------------


def problems_with(merge: Merge, result: Result, pins: dict) -> list[str]:
    found = []
    if merge.expected is not None and result.merged != merge.expected:
        found.append("merged document differs from the hand-written result")
    pin = pins.get(merge.key)
    if pin is None:
        found.append("no pinned digest for this input")
    else:
        if result.exit_code != pin["exit"]:
            found.append(f"exit code {result.exit_code}, expected {pin['exit']}")
        if digest(result.merged) != pin["merged"]:
            found.append("merged bytes differ from the pinned digest")
        if report_digest(result.report) != pin["report"]:
            found.append("report differs from the pinned digest")
    found += violations(read_level(result.merged.decode("utf-8")))
    return found


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with MIN_TAIL_BEYOND samples above it."""
    n = len(values)
    if n <= MIN_TAIL_BEYOND:
        return None
    k = n - MIN_TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, sorted(values)[k]


def startup_probe(env: dict, runs: int = 9) -> tuple[float, float]:
    """Median wall time of a bare interpreter, and what ``import scenemerge.cli`` adds.

    The two probes alternate, so a change in machine speed hits both alike.
    """
    walls: dict[str, list[float]] = {"pass": [], "import scenemerge.cli": []}
    for _ in range(runs):
        for code, samples in walls.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            samples.append(time.perf_counter() - start)
    bare = statistics.median(walls["pass"])
    return bare, statistics.median(walls["import scenemerge.cli"]) - bare


# -- main loop -----------------------------------------------------------------


def run_workload(cls, seed: int, seconds: float, traced: bool, pins: dict, workdir: Path) -> dict:
    tracer = startup_s = None
    if traced:
        startup_s, import_s = startup_probe(child_env())
        tracer = Tracer()
        tracer.install()
        span_cost = tracer.span_cost_s()

    workload = cls(workdir, startup_s)
    walls, cpus, setups, layers = [], [], [], []
    attempted = failed = 0
    loop_start = time.perf_counter()
    for unit in range(cls.units):
        elapsed = time.perf_counter() - loop_start
        if unit and elapsed >= CAP_FACTOR * seconds:
            print(f"CAP hit: {elapsed:.1f} s after {unit} of {cls.units} units; "
                  "this run merged fewer inputs than a full one")
            break
        index = (seed * cls.units + unit) % cls.pool
        unit_dir = Path(tempfile.mkdtemp(dir=workdir, prefix=f"unit{unit}-"))
        start = time.perf_counter()
        merges = workload.setup(index, unit_dir)
        setups.append(time.perf_counter() - start)
        for merge in merges:
            attempted += 1
            gc.collect()
            try:
                result = workload.run(merge, unit_dir, tracer, attempted)
                found = problems_with(merge, result, pins)
            except Exception:
                traceback.print_exc(file=sys.stdout)
                found, result = ["raised"], None
            if found:
                failed += 1
                print(f"FAILED {merge.key} ({merge.policy}): " + "; ".join(found))
                continue
            walls.append(result.wall_s)
            cpus.append(result.cpu_s)
            if result.layers is not None:
                layers.append(result.layers)
            st = report_stats(result.report.decode("utf-8"))
            print(
                f"merge {attempted:3d} {merge.key:<22} {merge.policy:<8} {result.wall_s:8.4f} s  "
                f"nodes={st['ancestor_nodes']:.0f} edges={st['ancestor_edges']:.0f} "
                f"edited_a={st['diff_a_nodes']:.0f} edited_b={st['diff_b_nodes']:.0f} "
                f"conflicts={st['conflicts']:.0f} cycle_edges={st['removed_cycle_edges']:.0f} "
                f"exit={result.exit_code}"
                + (f" coverage={result.layers['_covered_s'] / result.wall_s:.3f}" if result.layers else "")
            )
        shutil.rmtree(unit_dir)

    if tracer is not None:
        tracer.uninstall()
    if not walls:
        raise BenchError("no merge completed")

    n = len(walls)
    row = {
        "merge_p50_s": statistics.median(walls),
        "merges_per_s": n / sum(walls),
        "cpu_s_per_merge": sum(cpus) / n,
        "peak_rss_mb": workload.peak_rss_mb(),
        "setup_s": statistics.median(setups),
    }
    tail_at = tail(walls)
    tail_text = f"merge_tail_s=p{tail_at[0]:.1f}:{tail_at[1]:.4f} s" if tail_at else "merge_tail_s=absent"
    print(
        f"ROW workload={cls.name} seed={seed} traced={int(traced)} merges={n} units={len(setups)}/{cls.units} "
        + " ".join(f"{k}={v:.6g} {E2E_UNITS[k]}" for k, v in row.items() if k != "setup_s")
        + f" {tail_text} failed_ratio={failed / attempted:.4f} setup_s={row['setup_s']:.6g} s"
    )
    correct = failed == 0
    if not traced:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in row.items()}
    else:
        per_layer = {key: statistics.median(m[key] for m in layers) for key in layers[0]} if layers else {}
        per_layer["cli.interp_start_s"] = startup_s
        per_layer["cli.import_s"] = import_s
        spans_per_merge = per_layer.pop("_spans", 0)
        per_layer["trace.coverage"] = sum(m["_covered_s"] for m in layers) / sum(walls)
        for key, unit_name in LAYER_UNITS.items():
            print(f"LAYER {key} = {per_layer.get(key, 0.0):.6g} {unit_name}")
        overhead = span_cost * spans_per_merge
        coverage = per_layer.get("trace.coverage", 0.0)
        covered = coverage >= COVERAGE_FLOOR and not tracer.missing
        correct = correct and covered
        print(
            f"TRACE spans/merge={spans_per_merge:.0f} span_cost={span_cost * 1e6:.2f} us "
            f"overhead~{overhead * 1e3:.3f} ms/merge ({overhead / row['merge_p50_s']:.3%} of traced p50 "
            f"{row['merge_p50_s']:.4f} s) coverage={coverage:.3f} "
            f"({'ok' if covered else 'LOST'}, floor {COVERAGE_FLOOR}) "
            f"missing={','.join(tracer.missing) or 'none'}"
        )
        metrics = {k: {"value": per_layer.get(k, 0.0), "unit": u} for k, u in LAYER_UNITS.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", type=Path, default=BENCH / "digests.json",
                        help="pinned digests to check against (default: %(default)s)")
    args = parser.parse_args(argv)

    if not (SRC / "scenemerge" / "cli.py").is_file() or not FIXTURES.is_dir():
        print(f"perfbench: no scenemerge sources under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # cli.load_config reads this before searching for a config file; the
    # file workloads call cli.main in this process, the driver in children.
    os.environ.pop("SCENEMERGE_CONFIG", None)
    pins = json.loads(args.digests.read_text(encoding="utf-8"))

    print(f"ENV python={platform.python_version()} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} machine={platform.machine()}")
    print(f"SEEDS default={DEFAULT_SEED} held_out={HELD_OUT_SEED} this_run={args.seed}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    # The driver runs at a repository top level; the marker stops the upward
    # scenemerge.conf search there, so no stray configuration is picked up.
    (workdir / ".git").mkdir()
    os.chdir(workdir)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), pins, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
