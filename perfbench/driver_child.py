"""Traced stand-in for ``python -m scenemerge.cli``, used by the traced driver run.

Usage: driver_child.py SPANS_JSON CLI_ARG...

Times ``import scenemerge.cli``, installs the span wrappers, calls
``cli.main`` with the remaining arguments as the merge driver would, writes
the spans to SPANS_JSON and exits with ``cli.main``'s exit code. Only
``sys`` and ``time`` are imported before the timed import, so the import
pays for every module it needs. ``own_s`` is the time this script spends
on its own work (its imports, the wrappers, collecting the spans), which
trace coverage counts as accounted for.
"""

import sys
import time

start = time.perf_counter()
import scenemerge.cli  # noqa: E402

import_s = time.perf_counter() - start

import json  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.call(0, "cli.main", scenemerge.cli.main, argv)
    finally:
        tracer.uninstall()
    spans, gc_s, gc_gen2 = tracer.take(0)
    main_s = sum(end - begin for name, begin, end, parent, _, _ in spans if parent is None)
    own_s = time.perf_counter() - start - import_s - main_s
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"import_s": import_s, "own_s": own_s, "spans": spans, "gc_s": gc_s, "gc_gen2": gc_gen2},
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
