"""Every public top-level name in the package is used by the package itself,
and every call site the benchmark's tracer wraps exists.

A name that only tests call is API kept alive for the tests. Each public
(not underscore-prefixed) function, class or variable defined at the top
level of a module under ``src/scenemerge``, and each public method or
property of such a class, must be referenced somewhere in ``src/``
outside its own definition: a call, an annotation, an import or an
export from ``__init__`` all count. A member is matched by its name
alone, so any attribute read of that name counts.

A parameter with a default that only tests pass is an option kept alive
for the tests. Each defaulted parameter of a public function, of a
public method of a public class and of such a class's constructor must
be passed, by position or by keyword, by some call in ``src/`` or in
``perfbench/`` to a callable of that name (the class name for a
constructor). A ``*`` argument passes every position and ``**`` every
keyword.

``perfbench/spans.py`` replaces module attributes with recording
wrappers; a renamed or removed attribute, or a call routed around one,
makes a traced benchmark run fail its coverage check. The tracer is
imported from its file and only used, never changed.
"""

from __future__ import annotations

import ast
import importlib.util
import math
from collections import Counter
from pathlib import Path

import scenemerge
from scenemerge import cli
from conftest import fixture_path

SRC = Path(scenemerge.__file__).resolve().parent


def _defined(tree: ast.Module):
    """(label, name, first line, last line) of each public top-level
    definition and of each public method or property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    not member.name.startswith("_")
                ):
                    yield f"{node.name}.{member.name}", member.name, member.lineno, member.end_lineno


def _references(tree: ast.Module):
    """(name, line) of each name the module loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_public_name_is_used_inside_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    references = {
        (module, name, line) for module, tree in trees.items() for name, line in _references(tree)
    }
    unused = []
    for module, tree in sorted(trees.items()):
        for label, name, first, last in _defined(tree):
            if not any(
                ref_name == name and not (ref_module == module and first <= line <= last)
                for ref_module, ref_name, line in references
            ):
                unused.append(f"{module}: {label}")
    assert not unused, f"public names no code in src/ uses: {unused}"


def _defaulted(label: str, name: str, args: ast.arguments, bound: int):
    """(label, called name, parameter, position) of each defaulted parameter;
    the position leaves out ``bound`` leading parameters and is None for a
    keyword-only one."""
    positional = [*args.posonlyargs, *args.args]
    for index in range(len(positional) - len(args.defaults), len(positional)):
        yield label, name, positional[index].arg, index - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield label, name, arg.arg, None


def _parameters(tree: ast.Module):
    """The defaulted parameters of each public function, of each public
    method of a public class and of such a class's ``__init__``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from _defaulted(node.name, node.name, node.args, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in member.decorator_list
                )
                if member.name == "__init__":
                    yield from _defaulted(node.name, node.name, member.args, 1)
                elif not member.name.startswith("_"):
                    label = f"{node.name}.{member.name}"
                    yield from _defaulted(label, member.name, member.args, 0 if static else 1)


def _calls(tree: ast.Module):
    """(called name, positions passed, keywords passed) of each call; the
    keywords hold None for a ``**`` argument."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            yield name, math.inf if starred else len(node.args), {k.arg for k in node.keywords}


def test_every_defaulted_parameter_is_passed_by_the_package_or_the_benchmark():
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    calls = [
        call
        for path in (*SRC.glob("*.py"), *perfbench.glob("*.py"))
        for call in _calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    unpassed = [
        f"{path.name}: {label}({parameter}=)"
        for path in sorted(SRC.glob("*.py"))
        for label, name, parameter, position in _parameters(
            ast.parse(path.read_text(encoding="utf-8"))
        )
        if not any(
            called == name
            and ((position is not None and positions > position) or {parameter, None} & keywords)
            for called, positions, keywords in calls
        )
    ]
    assert not unpassed, f"defaulted parameters only tests pass: {unpassed}"


def _spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_call_site_the_tracer_wraps_exists():
    absent = [
        f"{module}.{attr}"
        for module, attr, _ in _spans().WRAPPED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not absent, f"wrapped attributes missing: {absent}"


def test_a_traced_file_merge_records_every_layer_call(tmp_path, monkeypatch):
    monkeypatch.delenv("SCENEMERGE_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    spans = _spans()
    tracer = spans.Tracer()
    levels = [str(fixture_path(f"fig4-{role}.lvl")) for role in ("base", "mine", "theirs")]
    argv = ["merge", *levels, "--output", str(tmp_path / "merged.lvl"),
            "--report", str(tmp_path / "merged.lvlreport")]
    tracer.install()
    try:
        code = tracer.call(1, "cli.main", cli.main, argv)
    finally:
        tracer.uninstall()
    assert code == 1  # the fig4 delete-modify conflict stays unresolved
    assert tracer.missing == []
    recorded = tracer.take(1)[0]
    layers = spans.merge_layers(recorded)
    calls = {"graph.validate_calls": 4, "diff.classify_calls": 2, "levelfile.parse_calls": 3}
    assert {name: layers[name] for name in calls} == calls
    # each layer call cli.main makes goes through its wrapper
    counted = Counter(span[0] for span in recorded)
    layer_calls = {
        "config.load": 1, "levelfile.read": 3, "merge.merge3": 1,
        "levelfile.write": 1, "levelfile.serialize": 1, "report.render": 1,
    }
    assert {name: counted[name] for name in layer_calls} == layer_calls
