"""Alternating parent/change benchmark pairs, written as one BENCH_<n>.json.

Usage:
    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_9.json \\
        --plan files-exact-40k:1:10:0 --plan files-exact-40k:4:5:0 \\
        --plan files-exact-40k:1:1:1 [--plan ...] \\
        [--claim files-exact-40k:merge_p50_s:1.15] [--what TEXT] [--parent-commit REV]

``DIR`` is a checkout holding ``perfbench/run.py``: a clone of the parent
commit and a copy of the change. Each ``--plan WORKLOAD:SEED:PAIRS:TRACE``
runs ``python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds 30
--trace TRACE`` PAIRS times in each checkout. Pair k runs the parent first
when k is odd and the change first when k is even. Plans run in the order
given, and every run is kept: its start time (UTC), its exit code, ROW
line, every FAILED line, final JSON line and, for a traced run, its
LAYER and TRACE lines. A run that exits non-zero or ends in no JSON line
also keeps the tails of its stdout, where ``perfbench/run.py`` prints
merge tracebacks, and stderr. The output file is rewritten after every
run, so an interrupted session leaves the runs made so far.

The summary holds, per untraced workload and seed, the median of every
end-to-end metric on each side, the interquartile range of
``merge_p50_s``, in how many pairs the change was better on each
metric, and the no-regression verdict: per metric, the relative change
of the medians, (change - parent) / parent, and ``within_bound``, true
when the change is worse than the parent by no more than the metric's
``bound`` in the change checkout's ``BENCHMARK.json``.

``--claim WORKLOAD:METRIC:RATIO`` adds, per seed of that workload, the
parent median over the change median and the pairs in which the change
was better; the claim holds on a seed when that ratio reaches RATIO, the
change is better in at least nine of ten pairs, and the medians differ
by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

E2E = {  # metric -> True when lower is better
    "merge_p50_s": True,
    "merges_per_s": False,
    "cpu_s_per_merge": True,
    "peak_rss_mb": True,
    "setup_s": True,
}
TRACED = (
    "levelfile.parse_s",
    "levelfile.parse_calls",
    "levelfile.serialize_s",
    "graph.validate_s",
    "graph.validate_calls",
    "diff.classify_self_s",
    "diff.classify_calls",
    "merge.merge3_s",
    "merge.self_s",
    "cli.main_self_s",
    "python.gc_s",
    "python.gc_gen2_collections",
    "merge.cycle_edges_removed",
    "trace.coverage",
)


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "30", "--trace", str(trace)]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    run = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "started": started,
        "exit": done.returncode,
        "row": next((line for line in lines if line.startswith("ROW ")), None),
        "failed": [line for line in lines if line.startswith("FAILED ")],
    }
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["result"] = None
    if done.returncode or run["result"] is None:  # keep the reason: tracebacks go to stdout
        run["stdout_tail"] = done.stdout[-4000:]
        run["stderr_tail"] = done.stderr[-2000:]
    run["elapsed_s"] = round(time.perf_counter() - start, 1)
    if trace:
        run["layers"] = [line for line in lines if line.startswith("LAYER ")]
        run["trace_line"] = next((line for line in lines if line.startswith("TRACE ")), None)
    return run


def metric(run: dict, name: str) -> float | None:
    result = run.get("result") or {}
    value = result.get("metrics", {}).get(name)
    return None if value is None else value["value"]


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]] if values else []
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def side_summary(runs: list[dict]) -> dict:
    summary: dict = {"runs": len(runs)}
    for name in E2E:
        values = [v for v in (metric(r, name) for r in runs) if v is not None]
        summary[name] = round(statistics.median(values), 4) if values else None
    summary["merge_p50_s_iqr"] = quartiles(
        [v for v in (metric(r, "merge_p50_s") for r in runs) if v is not None]
    )
    summary["all_correct"] = all((r.get("result") or {}).get("correct") for r in runs)
    return summary


def better(parent: float | None, change: float | None, lower: bool) -> bool:
    if parent is None or change is None:
        return False
    return change < parent if lower else change > parent


def bounds(checkout: Path) -> dict[str, float]:
    """Each end-to-end metric's bound, from the checkout's ``BENCHMARK.json``."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}


def verdict(parent: dict, change: dict, limits: dict[str, float]) -> dict:
    """Per metric, the relative change of the medians and whether the change
    is worse than the parent by no more than the metric's bound."""
    out = {}
    for name, lower in E2E.items():
        before, after = parent[name], change[name]
        if not before or after is None:
            out[name] = {"relative_change": None, "within_bound": None}
            continue
        relative = (after - before) / before
        worse = relative if lower else -relative
        out[name] = {"relative_change": round(relative, 4), "within_bound": worse <= limits[name]}
    return out


def summarize(runs: list[dict], limits: dict[str, float]) -> list[dict]:
    summaries = []
    keys = sorted({(r["workload"], r["seed"]) for r in runs if not r["trace"]})
    for workload, seed in keys:
        mine = [r for r in runs if (r["workload"], r["seed"], r["trace"]) == (workload, seed, 0)]
        sides = {side: [r for r in mine if r["side"] == side] for side in ("parent", "change")}
        pairs = sorted({r["pair"] for r in mine})
        by_pair = {(r["side"], r["pair"]): r for r in mine}
        counts = {}
        for name, lower in E2E.items():
            complete = [p for p in pairs if ("parent", p) in by_pair and ("change", p) in by_pair]
            wins = sum(
                better(metric(by_pair["parent", p], name), metric(by_pair["change", p], name), lower)
                for p in complete
            )
            counts[name] = f"{wins}/{len(complete)}"
        parent, change = side_summary(sides["parent"]), side_summary(sides["change"])
        ratio = (
            round(parent["merge_p50_s"] / change["merge_p50_s"], 2)
            if parent["merge_p50_s"] and change["merge_p50_s"]
            else None
        )
        summaries.append({
            "workload": workload,
            "seed": seed,
            "parent": parent,
            "change": change,
            "pairs_change_better": counts,
            "p50_parent_over_change": ratio,
            "no_regression": verdict(parent, change, limits),
        })
    return summaries


def traced(runs: list[dict]) -> list[dict]:
    rows = []
    for run in runs:
        if not run["trace"]:
            continue
        row = {
            "workload": run["workload"],
            "seed": run["seed"],
            "side": run["side"],
            "pair": run["pair"],
            "correct": (run.get("result") or {}).get("correct"),
        }
        for name in TRACED:
            value = metric(run, name)
            row[name] = None if value is None else round(value, 4)
        line = run.get("trace_line") or ""
        row["missing"] = line.rsplit("missing=", 1)[-1] if "missing=" in line else None
        rows.append(row)
    return rows


def claim(summaries: list[dict], runs: list[dict], spec: str) -> dict:
    workload, name, target = spec.split(":")
    lower = E2E[name]
    out: dict = {"metric": name, "workload": workload, "target": f"at least {target}x better"}
    for s in summaries:
        if s["workload"] != workload:
            continue
        parent, change = s["parent"][name], s["change"][name]
        if parent is None or change is None:
            continue
        ratio = parent / change if lower else change / parent
        mine = [r for r in runs if (r["workload"], r["seed"], r["trace"]) == (workload, s["seed"], 0)]
        parent_values = [metric(r, name) for r in mine if r["side"] == "parent"]
        q1, q3 = quartiles([v for v in parent_values if v is not None])
        wins, total = (int(x) for x in s["pairs_change_better"][name].split("/"))
        out[f"seed_{s['seed']}"] = {
            "ratio": round(ratio, 2),
            "pairs_change_better": f"{wins}/{total}",
            "parent_iqr": [q1, q3],
            "change_iqr": s["change"][f"{name}_iqr"] if name == "merge_p50_s" else None,
            "median_gap_over_parent_iqr": round(abs(parent - change) / (q3 - q1), 2) if q3 > q1 else None,
            "holds": ratio >= float(target) and wins * 10 >= total * 9 and abs(parent - change) > q3 - q1,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--plan", action="append", required=True,
                        help="WORKLOAD:SEED:PAIRS:TRACE; repeat for more")
    parser.add_argument("--claim", help="WORKLOAD:METRIC:RATIO")
    parser.add_argument("--what", default="")
    parser.add_argument("--parent-commit", default="")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")
    limits = bounds(checkouts["change"])
    doc = {
        "what": args.what,
        "parent_commit": args.parent_commit,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds 30 --trace T",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "method": "tools/bench_pairs.py: parent and change checkouts run back to back; pair k runs "
                  "the parent first when k is odd and the change first when k is even; every "
                  "run kept, none dropped",
        "plans": args.plan,
        "runs": [],
    }
    for plan in args.plan:
        workload, seed, pairs, trace = plan.split(":")
        for pair in range(1, int(pairs) + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                run = run_once(checkouts[side], workload, int(seed), int(trace))
                run.update(side=side, pair=pair)
                doc["runs"].append(run)
                print(f"{workload} seed={seed} trace={trace} pair={pair} {side}: "
                      f"exit={run['exit']} {run['row']}", flush=True)
                doc["summary_medians"] = summarize(doc["runs"], limits)
                doc["traced"] = traced(doc["runs"])
                if args.claim:
                    doc["claim"] = claim(doc["summary_medians"], doc["runs"], args.claim)
                args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
