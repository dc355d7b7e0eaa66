"""Line counts of the package under ``src/``, and its ten largest definitions.

Usage:
    python3 tools/src_lines.py

Prints each ``.py`` file under ``src/`` with its line count, then the
total, then the ten largest top-level definitions. A definition is a
top-level ``def`` or ``class``, counted from its first decorator line,
or its ``def`` or ``class`` line if it has none, to its last line.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> None:
    total = 0
    sizes = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.count("\n")
        total += lines
        name = path.relative_to(SRC).as_posix()
        print(f"{lines:6d}  {name}")
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                sizes.append((node.end_lineno - first + 1, f"{path.stem}.{node.name}"))
    print(f"{total:6d}  total")
    print()
    print("largest definitions:")
    for lines, name in sorted(sizes, key=lambda size: (-size[0], size[1]))[:10]:
        print(f"{lines:6d}  {name}")


if __name__ == "__main__":
    main()
