"""`parse` and `merge3` pause the cyclic garbage collector and restore it."""

from __future__ import annotations

import gc
import threading

import pytest

from scenemerge import InvalidGraphError, ParseError, levelfile, merge3, parse
from scenemerge.cli import main
from scenemerge.graph import _gc_paused
from conftest import fixture_path, fixture_text


@pytest.fixture(autouse=True)
def gc_left_enabled():
    gc.enable()
    yield
    gc.enable()


def _graphs(*names):
    return [parse(fixture_text(name)).graph for name in names]


def test_parse_runs_paused_and_restores_the_collector(monkeypatch):
    seen = []
    build = levelfile.LevelGraph._of

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return build(*args, **kwargs)

    monkeypatch.setattr(levelfile.LevelGraph, "_of", spy)
    parse(fixture_text("fig3-base.lvl"))
    assert seen == [False]
    assert gc.isenabled()


def test_parse_error_restores_the_collector():
    with pytest.raises(ParseError):
        parse("lvl 1\nroot r\nnode r S\nnode r S\n")
    assert gc.isenabled()


def test_merge3_restores_the_collector():
    merge3(*_graphs("fig3-base.lvl", "fig3-mine.lvl", "fig3-theirs.lvl"))
    assert gc.isenabled()


def test_invalid_merge_input_restores_the_collector():
    with pytest.raises(InvalidGraphError):
        merge3(*_graphs("fig3-base.lvl", "fig3-mine.lvl", "cyclic.lvl"))
    assert gc.isenabled()


def test_a_caller_who_disabled_the_collector_finds_it_disabled():
    gc.disable()
    parse(fixture_text("fig3-base.lvl"))
    merge3(*_graphs("fig3-base.lvl", "fig3-mine.lvl", "fig3-theirs.lvl"))
    with pytest.raises(ParseError):
        parse("lvl 2\n")
    assert not gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_a_merge_command_leaves_the_collector_as_the_caller_left_it(enabled, tmp_path):
    if not enabled:
        gc.disable()
    paths = [str(fixture_path(f"fig3-{role}.lvl")) for role in ("base", "mine", "theirs")]
    assert main(["merge", *paths, "--output", str(tmp_path / "merged.lvl")]) == 0
    assert gc.isenabled() is enabled


def test_a_merge_command_starts_no_collection(tmp_path):
    from scenemerge.levelfile import FORMAT_VERSION, LevelDocument, write_document
    from scenemerge.sim import PRESETS, apply_script, generate

    sc = generate(1, PRESETS["lab"])
    graphs = (sc.base, apply_script(sc.base, sc.script_a), apply_script(sc.base, sc.script_b))
    paths = [str(tmp_path / f"{role}.lvl") for role in ("base", "mine", "theirs")]
    for path, graph in zip(paths, graphs):
        write_document(LevelDocument(FORMAT_VERSION, graph), path)
    argv = ["merge", *paths, "--output", str(tmp_path / "merged.lvl")]
    assert main(argv) == 0  # the first call compiles argparse's patterns
    started = []

    def watch(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()  # an empty young generation, as in a fresh driver process
    gc.callbacks.append(watch)
    try:
        assert main(argv) == 0
    finally:
        gc.callbacks.remove(watch)
    assert started == []
    assert gc.isenabled()


def test_nested_pause_does_not_re_enable_early():
    with _gc_paused():
        with _gc_paused():
            pass
        assert not gc.isenabled()
        parse(fixture_text("fig3-base.lvl"))
        assert not gc.isenabled()
    assert gc.isenabled()


def test_overlapping_pauses_in_two_threads_end_with_the_collector_enabled():
    # the first pause ends while the second is still open
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()

    def first():
        with _gc_paused():
            first_in.set()
            second_in.wait(5)
        first_out.set()

    def second():
        first_in.wait(5)
        with _gc_paused():
            second_in.set()
            first_out.wait(5)

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert first_out.is_set()
    assert gc.isenabled()
