"""Recompute digests.json: what every benchmark input must merge to.

Usage: python3 perfbench/pin.py

For every input the benchmark can generate (each workload's whole pool)
and for the figure fixtures, merges in-process and records the exit code
the CLI would return, the sha256 of the merged document and the sha256 of
the report with its wall-time line masked. Byte identity of merge output
is the contract, so re-pin only in a change that means to alter output,
and say so.
"""

from __future__ import annotations

import json
import sys

from check import digest, report_digest
from run import BENCH, FIXTURES, SRC, WORKLOADS, merge_outputs, scenario


def expected(graphs, policy_name: str) -> dict:
    from scenemerge.merge import MergePolicy, PolicyKind, merge3

    policy = MergePolicy(PolicyKind(policy_name))
    code, merged, report = merge_outputs(merge3(*graphs, policy), policy)
    return {"exit": code, "merged": digest(merged), "report": report_digest(report)}


def entries(name: str):
    """(key, graphs, policy) for every input of one workload."""
    from scenemerge.levelfile import read_document
    from scenemerge.sim import PRESETS

    cls = WORKLOADS[name]
    if name == "driver-presets":
        for key, fig, policy, _ in cls.figures:
            graphs = [read_document(FIXTURES / f"{fig}-{role}.lvl").graph
                      for role in ("base", "mine", "theirs")]
            yield key, graphs, policy
        for index in range(cls.pool):
            for preset in sorted(PRESETS):
                yield f"{preset}/{index}", scenario(PRESETS[preset], index), "manual"
    else:
        for index in range(cls.pool):
            graphs = scenario(cls.size, index)
            for policy in cls.policies(index):
                yield f"{cls.stem}/{index}/{policy}", graphs, policy


def main() -> int:
    if len(sys.argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pins = {}
    for name in sorted(WORKLOADS):
        for key, graphs, policy in entries(name):
            pins[key] = expected(graphs, policy)
            print(key, pins[key]["exit"], pins[key]["merged"][:12], flush=True)
    path = BENCH / "digests.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
