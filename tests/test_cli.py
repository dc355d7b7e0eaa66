from __future__ import annotations

import os
import re
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from scenemerge import parse, read_document, validate
from scenemerge.cli import main
from scenemerge.config import CliConfig, ConfigError, load_config, parse_config
from report_reader import parse_report
from conftest import fixture_path, fixture_text


def copy_fixture(name, tmp_path):
    dest = tmp_path / name
    shutil.copy(fixture_path(name), dest)
    return str(dest)


class TestValidateCommand:
    def test_valid_file_exits_zero(self, capsys):
        assert main(["validate", str(fixture_path("fig3-base.lvl"))]) == 0
        assert "valid" in capsys.readouterr().out

    def test_cyclic_file_exits_one_with_violation(self, capsys):
        assert main(["validate", str(fixture_path("cyclic.lvl"))]) == 1
        assert "cycle" in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/no/such/file.lvl"]) == 2

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.lvl"
        bad.write_text("lvl 1\nroot r\nnode r\n")
        assert main(["validate", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_file_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.lvl"
        bad.write_bytes(b"lvl 1\r\nroot a\nnode a \xc3\xa9\xff\n")
        assert main(["validate", str(bad)]) == 2
        # the column counts characters, as every other parse error's does
        assert capsys.readouterr().err == (
            f"scenemerge: {bad}: line 3, column 9: byte 0xff is not UTF-8\n"
        )


class TestDiffCommand:
    def test_identical_files_exit_zero(self, capsys):
        path = str(fixture_path("fig3-base.lvl"))
        assert main(["diff", path, path]) == 0
        out = capsys.readouterr().out
        assert "0 added, 0 deleted, 0 modified" in out

    def test_fig3_listing_names_the_edits(self, capsys):
        assert main([
            "diff",
            str(fixture_path("fig3-base.lvl")),
            str(fixture_path("fig3-theirs.lvl")),
        ]) == 1
        out = capsys.readouterr().out
        assert "reparent bunny" in out
        assert "delete drawers" in out
        assert "add dollhouse" in out

    def test_listing_is_pinned_line_for_line(self, tmp_path, capsys):
        # one pair with every line form: a gets a set, a removal and a kind
        # flip that leaves it no Direct parent, b moves under p, e gains only
        # an Indirect in-edge, and ac and bc follow their parents
        base, version = tmp_path / "base.lvl", tmp_path / "version.lvl"
        base.write_text(
            "lvl 1\nroot r\n"
            "node a A\nnode ac A\nnode b A\nnode bc A\nnode d A\nnode e A\nnode p A\n"
            "node r Scene\n"
            "prop a j int 1\nprop a k int 1\n"
            "edge a ac direct\nedge b bc direct\nedge r a direct\nedge r b direct\n"
            "edge r d direct\nedge r e direct\nedge r p direct\n"
        )
        version.write_text(
            "lvl 1\nroot r\n"
            "node a A\nnode ac A\nnode b A\nnode bc A\nnode e A\nnode n A\nnode p A\n"
            "node r Scene\n"
            "prop a k int 2\n"
            "edge a ac direct\nedge b bc direct\nedge p b direct\nedge p e indirect\n"
            "edge r a indirect\nedge r e direct\nedge r n direct\nedge r p direct\n"
        )
        assert main(["diff", str(base), str(version)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "1 added, 1 deleted, 5 modified (3 intrinsic, 2 propagated)",
            "total edited nodes: 7",
            "add n",
            "delete d",
            "reparent a under nothing",
            "modify a: set k = int 2; remove property j; dependency on r becomes indirect",
            "modify ac (propagated)",
            "reparent b under p",
            "modify bc (propagated)",
            "modify e",
        ]

    def test_manifest_changes_alone_exit_one(self, tmp_path, capsys):
        base, version = tmp_path / "base.lvl", tmp_path / "version.lvl"
        base.write_text("lvl 1\nroot r\nnode r Scene\nasset a.png 111\nasset c.png 333\n")
        version.write_text("lvl 1\nroot r\nnode r Scene\nasset a.png 222\nasset b.png 444\n")
        assert main(["diff", str(base), str(version)]) == 1
        assert capsys.readouterr().out.splitlines()[2:] == [
            "modify asset a.png: 111 -> 222",
            "add asset b.png 444",
            "delete asset c.png",
        ]

    def test_root_mismatch_exits_two(self, capsys):
        assert main([
            "diff",
            str(fixture_path("fig3-base.lvl")),
            str(fixture_path("fig4-base.lvl")),
        ]) == 2

    def test_synthetic_545_edit_diff_prints_total(self, tmp_path, capsys):
        from scenemerge import write_document
        from scenemerge.levelfile import LevelDocument
        from scenemerge.sim import PRESETS, apply_script, generate

        scenario = generate(99, PRESETS["planets"])
        version = apply_script(scenario.base, scenario.script_a)
        base_path, version_path = tmp_path / "base.lvl", tmp_path / "a.lvl"
        write_document(LevelDocument(1, scenario.base), base_path)
        write_document(LevelDocument(1, version), version_path)
        assert main(["diff", str(base_path), str(version_path)]) == 1
        assert "total edited nodes: 545" in capsys.readouterr().out


class TestMergeCommand:
    def test_triple_identity_writes_canonical_input(self, tmp_path, capsys):
        path = str(fixture_path("fig3-base.lvl"))
        out_path = tmp_path / "merged.lvl"
        assert main(["merge", path, path, path, "--output", str(out_path)]) == 0
        assert out_path.read_text() == fixture_text("fig3-base.lvl")

    def test_fig4_manual_exits_one_and_reports(self, tmp_path):
        report_path = tmp_path / "merge.lvlreport"
        code = main([
            "merge",
            str(fixture_path("fig4-base.lvl")),
            str(fixture_path("fig4-mine.lvl")),
            str(fixture_path("fig4-theirs.lvl")),
            "--policy", "manual",
            "--output", str(tmp_path / "m.lvl"),
            "--report", str(report_path),
        ])
        assert code == 1
        report = parse_report(report_path.read_text())
        assert report.policy == "manual"
        assert [c.kind for c in report.conflicts] == ["delete-modify"]
        assert report.conflicts[0].node == "planet-front"
        assert report.conflicts[0].resolution == "unresolved"
        assert "planet-front-material" in report.conflicts[0].subtree

    def test_fig4_prefer_b_exits_zero_with_drop(self, tmp_path):
        report_path = tmp_path / "merge.lvlreport"
        code = main([
            "merge",
            str(fixture_path("fig4-base.lvl")),
            str(fixture_path("fig4-mine.lvl")),
            str(fixture_path("fig4-theirs.lvl")),
            "--policy", "prefer-b",
            "--output", str(tmp_path / "m.lvl"),
            "--report", str(report_path),
        ])
        assert code == 0
        report = parse_report(report_path.read_text())
        assert report.conflicts[0].resolution == "took-b"
        assert len(report.dropped) == 1
        assert report.dropped[0][0] == "a"

    def test_missing_input_exits_two(self, tmp_path):
        good = str(fixture_path("fig3-base.lvl"))
        assert main(["merge", good, "/no/such.lvl", good,
                     "--output", str(tmp_path / "m.lvl")]) == 2

    def test_merge_is_byte_deterministic(self, tmp_path):
        args = [
            "merge",
            str(fixture_path("fig3-base.lvl")),
            str(fixture_path("fig3-mine.lvl")),
            str(fixture_path("fig3-theirs.lvl")),
        ]
        one, two = tmp_path / "one.lvl", tmp_path / "two.lvl"
        assert main(args + ["--output", str(one)]) == 0
        assert main(args + ["--output", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_stdout_a_file_and_the_driver_write_the_same_spliced_bytes(
        self, tmp_path, monkeypatch, capsys
    ):
        from scenemerge import cli, levelfile, merge3
        from scenemerge.levelfile import FORMAT_VERSION, LevelDocument, serialize
        from scenemerge.sim import PRESETS, apply_script, generate

        sc = generate(1, PRESETS["lab"])
        graphs = (sc.base, apply_script(sc.base, sc.script_a), apply_script(sc.base, sc.script_b))
        paths = [tmp_path / f"{role}.lvl" for role in ("base", "mine", "theirs")]
        for path, graph in zip(paths, graphs):
            path.write_text(serialize(LevelDocument(FORMAT_VERSION, graph)), newline="\n")
        whole = serialize(LevelDocument(FORMAT_VERSION, merge3(*graphs).merged))
        # each output is rendered against the ancestor the merged level was patched
        # from: its record names a canonical read that is still alive
        bases = []

        def recording(doc):
            base = doc.graph._patch[0]()
            bases.append(base is not None and base._lines is not None)
            return serialize(doc)

        monkeypatch.setattr(levelfile, "serialize", recording)
        monkeypatch.setattr(cli, "serialize", recording)

        args = ["merge", *map(str, paths)]
        codes = [main([*args, "--output", "-"])]
        printed = capsys.readouterr().out.encode("utf-8")
        written = tmp_path / "merged.lvl"
        codes.append(main([*args, "--output", str(written)]))
        current = tmp_path / "current.lvl"
        shutil.copy(paths[1], current)
        codes.append(main(["merge-driver", str(paths[0]), str(current), str(paths[2])]))
        assert printed == written.read_bytes() == current.read_bytes() == whole.encode("utf-8")
        assert len(set(codes)) == 1 and bases == [True] * 3

    @pytest.mark.parametrize(
        "inputs, role",
        [
            (["fig3-base.lvl", "cyclic.lvl", "fig3-theirs.lvl"], "mine"),
            (["fig3-base.lvl", "fig3-mine.lvl", "cyclic.lvl"], "theirs"),
        ],
    )
    def test_invalid_input_is_named_by_its_side(self, inputs, role, tmp_path, capsys):
        paths = [str(fixture_path(name)) for name in inputs]
        assert main(["merge", *paths, "--output", str(tmp_path / "m.lvl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scenemerge: {role} graph is invalid:\n")
        assert "cycle" in err

    @pytest.mark.parametrize("command", ["merge", "merge-driver"])
    def test_malformed_third_file_is_named_with_its_position(self, command, tmp_path, capsys):
        ancestor = copy_fixture("fig3-base.lvl", tmp_path)
        current = copy_fixture("fig3-mine.lvl", tmp_path)
        other = tmp_path / "other.lvl"
        # the base with one edge line broken: `other` is read whole, not patched
        lines = fixture_text("fig3-base.lvl").split("\n")
        lineno = lines.index("edge bunny bunny-material direct") + 1
        lines[lineno - 1] = "edge bunny bunny-material sideways"
        other.write_text("\n".join(lines))
        before = Path(current).read_bytes()
        assert main([command, ancestor, current, str(other)]) == 2
        assert capsys.readouterr().err == (
            f"scenemerge: {other}: line {lineno}, column 27: "
            "unknown dependency kind 'sideways'\n"
        )
        assert Path(current).read_bytes() == before


class TestMergeDriverCommand:
    def test_help_names_the_version_control_roles(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main(["merge-driver", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == (
            "usage: scenemerge merge-driver [-h] [--policy {manual,prefer-a,prefer-b}]\n"
            "                               [--config CONFIG] [--report REPORT]\n"
            "                               ancestor current other\n"
            "\n"
            "positional arguments:\n"
            "  ancestor\n"
            "  current\n"
            "  other\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --policy {manual,prefer-a,prefer-b}\n"
            "  --config CONFIG       explicit configuration file path\n"
            "  --report REPORT       write the merge report to this path\n"
        )

    def test_clean_merge_overwrites_current(self, tmp_path):
        ancestor = copy_fixture("fig3-base.lvl", tmp_path)
        current = copy_fixture("fig3-mine.lvl", tmp_path)
        other = copy_fixture("fig3-theirs.lvl", tmp_path)
        assert main(["merge-driver", ancestor, current, other]) == 0
        merged = read_document(current).graph
        assert merged.has_node("painting") and merged.has_node("dollhouse")

    def test_manual_conflict_exits_one_with_parseable_file(self, tmp_path):
        ancestor = copy_fixture("fig4-base.lvl", tmp_path)
        current = copy_fixture("fig4-mine.lvl", tmp_path)
        other = copy_fixture("fig4-theirs.lvl", tmp_path)
        assert main(["merge-driver", ancestor, current, other, "--policy", "manual"]) == 1
        merged = read_document(current).graph  # must stay loadable
        assert validate(merged).ok

    def test_unreadable_ancestor_exits_two(self, tmp_path):
        current = copy_fixture("fig4-mine.lvl", tmp_path)
        other = copy_fixture("fig4-theirs.lvl", tmp_path)
        assert main(["merge-driver", "/no/such/base.lvl", current, other]) == 2

    def test_other_file_that_is_not_utf8_exits_two_and_leaves_current(self, tmp_path):
        import scenemerge

        ancestor = tmp_path / "ok.lvl"
        ancestor.write_text("lvl 1\nroot a\nnode a Scene\n")
        current = tmp_path / "current.lvl"
        current.write_bytes(ancestor.read_bytes())
        other = tmp_path / "bad.lvl"
        other.write_bytes(b"lvl 1\nroot a\nnode a \xff\n")
        env = {**os.environ, "PYTHONPATH": str(Path(scenemerge.__file__).resolve().parents[1])}
        env.pop("SCENEMERGE_CONFIG", None)
        done = subprocess.run(
            [sys.executable, "-m", "scenemerge.cli", "merge-driver", str(ancestor),
             str(current), str(other)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2  # an input error, not "conflicts remain"
        assert done.stderr == f"scenemerge: {other}: line 3, column 8: byte 0xff is not UTF-8\n"
        assert current.read_bytes() == ancestor.read_bytes()


FIG3 = ["fig3-base.lvl", "fig3-mine.lvl", "fig3-theirs.lvl"]


class TestFailedMerges:
    def _driver_args(self, tmp_path):
        return [copy_fixture(name, tmp_path) for name in FIG3]

    def test_failed_serialize_leaves_current_file_intact(self, tmp_path, monkeypatch):
        import scenemerge.levelfile as levelfile

        ancestor, current, other = self._driver_args(tmp_path)
        before = Path(current).read_bytes()

        def broken(doc):
            raise RuntimeError("interrupted mid-write")

        monkeypatch.setattr(levelfile, "serialize", broken)
        with pytest.raises(RuntimeError):
            main(["merge-driver", ancestor, current, other, "--report", str(tmp_path / "r")])
        assert Path(current).read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == FIG3  # no temp file left behind

    def test_failed_replace_removes_the_written_temp_file(self, tmp_path, monkeypatch):
        ancestor, current, other = self._driver_args(tmp_path)
        before = Path(current).read_bytes()

        def broken(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", broken)
        assert main(["merge-driver", ancestor, current, other]) == 2
        assert Path(current).read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == FIG3  # no temp file left behind

    def _record_syncs(self, monkeypatch, events, dir_error=None):
        """Record each `os.fsync` (of a file with its size, or of a directory) and `os.replace`."""
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            info = os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):
                events.append(("fsync-dir",))
                if dir_error is not None:
                    raise dir_error
            else:
                events.append(("fsync-file", info.st_size))
            fsync(fd)

        def recording_replace(src, dst):
            events.append(("replace", os.path.basename(dst)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)

    def test_written_file_is_synced_before_the_replace_and_its_directory_after(
        self, tmp_path, monkeypatch
    ):
        ancestor, current, other = self._driver_args(tmp_path)
        events = []
        self._record_syncs(monkeypatch, events)
        assert main(["merge-driver", ancestor, current, other]) == 0
        # the whole file is on disk before it is swapped in
        size = os.path.getsize(current)
        assert events == [("fsync-file", size), ("replace", FIG3[1]), ("fsync-dir",)]

    def test_a_directory_that_cannot_be_synced_does_not_fail_the_write(
        self, tmp_path, monkeypatch
    ):
        ancestor, current, other = self._driver_args(tmp_path)
        events = []
        self._record_syncs(monkeypatch, events, dir_error=OSError("directory sync unsupported"))
        assert main(["merge-driver", ancestor, current, other]) == 0
        assert events[-1] == ("fsync-dir",)
        assert Path(current).read_bytes() == Path(fixture_path("fig3-merged.lvl")).read_bytes()
        assert sorted(os.listdir(tmp_path)) == FIG3

    def test_replaced_file_keeps_its_permission_bits(self, tmp_path):
        ancestor, current, other = self._driver_args(tmp_path)
        os.chmod(current, 0o640)
        assert main(["merge-driver", ancestor, current, other]) == 0
        assert os.stat(current).st_mode & 0o777 == 0o640

    def test_internal_error_is_told_apart_from_bad_input(self, tmp_path, monkeypatch, capsys):
        import scenemerge.cli as cli
        from scenemerge.merge import MergeInternalError

        ancestor, current, other = self._driver_args(tmp_path)

        def broken(*args):
            raise MergeInternalError("merge produced an invalid graph")

        monkeypatch.setattr(cli, "merge3", broken)
        assert main(["merge-driver", ancestor, current, other]) == 2
        assert capsys.readouterr().err == (
            "scenemerge: internal error: merge produced an invalid graph\n"
        )
        assert main(["merge-driver", "/no/such/base.lvl", current, other]) == 2
        assert "internal error" not in capsys.readouterr().err


class TestStatsCommand:
    def test_stats_merges_assets_like_merge(self, tmp_path, monkeypatch, capsys):
        import sys

        from scenemerge import PropertyValue, write_document
        from scenemerge.assets import BlobStore
        from scenemerge.levelfile import LevelDocument
        from conftest import D, g

        store = BlobStore(tmp_path / "blobs")
        base_d, mine_d, theirs_d = (store.put(t) for t in (b"a\n", b"a\nb\n", b"c\na\n"))
        log = tmp_path / "strategy.log"
        script = tmp_path / "concat.py"
        script.write_text(
            "import sys\n"
            "base, mine, theirs, out = sys.argv[1:]\n"
            f"open({str(log)!r}, 'a').write('ran\\n')\n"
            "open(out, 'wb').write(open(mine, 'rb').read() + open(theirs, 'rb').read())\n"
        )

        def level(digest, extra):
            nodes = [("r", "Scene"), ("s", "Script", {"src": PropertyValue.asset_ref("n.txt")})]
            nodes += [(n, "Prop") for n in extra]
            edges = [("r", "s", D)] + [("r", n, D) for n in extra]
            return LevelDocument(1, g("r", nodes, edges, {"n.txt": digest}))

        paths = [str(tmp_path / f"{n}.lvl") for n in ("base", "mine", "theirs")]
        for path, doc in zip(paths, (level(base_d, []), level(mine_d, ["m"]), level(theirs_d, ["t"]))):
            write_document(doc, path)
        conf = tmp_path / "scenemerge.conf"
        conf.write_text(f"assets-dir blobs\nstrategy txt {sys.executable} {script}\n")
        monkeypatch.setenv("SCENEMERGE_CONFIG", str(conf))

        report_path = tmp_path / "merged.lvlreport"
        assert main(["merge", *paths, "--output", str(tmp_path / "m.lvl"),
                     "--report", str(report_path)]) == 0
        stats = parse_report(report_path.read_text()).stats
        keys = ("ancestor_nodes", "ancestor_edges", "diff_a_nodes", "diff_b_nodes",
                "merged_nodes", "merged_edges")
        expected = [str(int(stats[k])) for k in keys]

        capsys.readouterr()
        assert main(["stats", *paths]) == 0
        assert capsys.readouterr().out.split()[:6] == expected
        assert log.read_text() == "ran\n" * 2  # stats ran the strategy, as merge did

    def test_identity_row(self, capsys):
        path = str(fixture_path("fig3-base.lvl"))
        assert main(["stats", path, path, path]) == 0
        row = capsys.readouterr().out.split()
        # ancestor nodes/edges, diff a, diff b, merged nodes/edges, time
        assert row[:6] == ["12", "12", "0", "0", "12", "12"]
        assert float(row[6]) >= 0.0

    def test_room_sized_identity_row(self, tmp_path, capsys):
        # 79-node, 84-edge synthetic level; triple identity
        from scenemerge import write_document
        from scenemerge.levelfile import LevelDocument
        from scenemerge.sim import SizeParams, generate

        base = generate(4, SizeParams(nodes=79, edges=84)).base
        path = tmp_path / "room.lvl"
        write_document(LevelDocument(1, base), path)
        assert main(["stats", str(path), str(path), str(path)]) == 0
        row = capsys.readouterr().out.split()
        assert row[:6] == ["79", "84", "0", "0", "79", "84"]

    def test_parse_failure_exits_two(self, tmp_path):
        bad = tmp_path / "bad.lvl"
        bad.write_text("not a level\n")
        good = str(fixture_path("fig3-base.lvl"))
        assert main(["stats", str(bad), good, good]) == 2

    def test_fig3_row_matches_hand_tally(self, capsys):
        assert main([
            "stats",
            str(fixture_path("fig3-base.lvl")),
            str(fixture_path("fig3-mine.lvl")),
            str(fixture_path("fig3-theirs.lvl")),
        ]) == 0
        row = capsys.readouterr().out.split()
        assert row[:6] == ["12", "12", "2", "10", "14", "13"]


class TestConfig:
    def test_defaults(self):
        config = CliConfig()
        policy = config.merge_policy()
        assert policy.resolution.value == "manual"
        assert not policy.numeric_averaging

    def test_parse_full_config(self, tmp_path):
        text = (
            "policy prefer-b\n"
            "averaging on\n"
            "averageable Material\n"
            "averageable Light\n"
            "assets-dir blobs\n"
            "asset-type cs code\n"
            "validator code python3 -m py_compile\n"
            "strategy mesh meshmerge --fast\n"
            "user alice\n"
            'color "#ff8800"\n'
        )
        config = parse_config(text, tmp_path)
        assert config.policy.value == "prefer-b"
        assert config.averaging
        assert config.averageable_kinds == {"Material", "Light"}
        assert config.assets_dir == (tmp_path / "blobs").resolve()
        assert config.asset_types == {"cs": "code"}
        assert config.validators == {"code": ["python3", "-m", "py_compile"]}
        assert config.strategies == {"mesh": ["meshmerge", "--fast"]}
        assert config.report_meta() == {"user": "alice", "color": "#ff8800"}

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config("frobnicate yes\n", tmp_path)

    def test_file_that_is_not_utf8_is_a_config_error(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_bytes(b"policy prefer-a\nuser \xfe\n")
        with pytest.raises(ConfigError) as caught:
            load_config(str(conf))
        assert str(caught.value) == f"{conf}: line 2, column 6: byte 0xfe is not UTF-8"

    def test_env_var_override(self, tmp_path, monkeypatch):
        conf = tmp_path / "alt.conf"
        conf.write_text("policy prefer-a\n")
        monkeypatch.setenv("SCENEMERGE_CONFIG", str(conf))
        monkeypatch.chdir(tmp_path)
        config = load_config()
        assert config.policy.value == "prefer-a"

    def test_search_upward_stops_at_repo_root(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SCENEMERGE_CONFIG", raising=False)
        (tmp_path / ".git").mkdir()
        (tmp_path / "scenemerge.conf").write_text("policy prefer-b\n")
        nested = tmp_path / "levels" / "zone1"
        nested.mkdir(parents=True)
        monkeypatch.chdir(nested)
        config = load_config()
        assert config.policy.value == "prefer-b"

    def test_config_drives_merge_policy(self, tmp_path, monkeypatch):
        conf = tmp_path / "scenemerge.conf"
        conf.write_text("policy prefer-b\n")
        monkeypatch.setenv("SCENEMERGE_CONFIG", str(conf))
        code = main([
            "merge",
            str(fixture_path("fig4-base.lvl")),
            str(fixture_path("fig4-mine.lvl")),
            str(fixture_path("fig4-theirs.lvl")),
            "--output", str(tmp_path / "m.lvl"),
        ])
        assert code == 0  # resolved by configured preference

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_averaging_reals_whose_sum_overflows_merges(self, tmp_path, sign):
        from scenemerge import PropertyValue, write_document
        from scenemerge.levelfile import LevelDocument
        from conftest import D, g

        paths = []
        for role, value in (("base", 1.0), ("mine", sign * 1.7e308), ("theirs", sign * 1.6e308)):
            lamp = ("lamp", "Light", {"intensity": PropertyValue.real(value)})
            level = g("r", [("r", "Scene"), lamp], [("r", "lamp", D)])
            write_document(LevelDocument(1, level), tmp_path / f"{role}.lvl")
            paths.append(str(tmp_path / f"{role}.lvl"))
        conf = tmp_path / "scenemerge.conf"
        conf.write_text("averaging on\naverageable Light\n")
        merged = tmp_path / "m.lvl"
        assert main(["merge", *paths, "--output", str(merged), "--config", str(conf)]) == 0
        intensity = read_document(merged).graph.node("lamp").properties["intensity"]
        assert intensity == PropertyValue.real(sign * (1.7e308 / 2 + 1.6e308 / 2))


def _asset_levels(tmp_path, asset_id, digests):
    """ancestor, mine and theirs level paths differing only in ``asset_id``'s digest."""
    from scenemerge import PropertyValue, write_document
    from scenemerge.levelfile import LevelDocument
    from conftest import D, g

    paths = []
    for role, digest in zip(("base", "mine", "theirs"), digests):
        nodes = [("r", "Scene"), ("s", "Script", {"src": PropertyValue.asset_ref(asset_id)})]
        path = tmp_path / f"{role}.lvl"
        write_document(LevelDocument(1, g("r", nodes, [("r", "s", D)], {asset_id: digest})), path)
        paths.append(str(path))
    return paths


def _failing_command(tmp_path, code):
    """A command that writes bytes that are not UTF-8 to stderr and exits ``code``."""
    script = tmp_path / "not_utf8.py"
    script.write_text(f"import sys\nsys.stderr.buffer.write(b'bad \\xff')\nraise SystemExit({code})\n")
    return f"{sys.executable} {script}"


class TestAssetAwareMerge:
    def test_configured_validator_gates_code_assets(self, tmp_path, monkeypatch):
        import sys

        from scenemerge import (
            DepKind,
            Edge,
            LevelGraph,
            Node,
            PropertyValue,
            write_document,
        )
        from scenemerge.assets import BlobStore
        from scenemerge.levelfile import LevelDocument

        store = BlobStore(tmp_path / "blobs")
        good = store.put(b"x = 1\n")
        broken = store.put(b"def f(:\n")

        def level(digest):
            graph = LevelGraph(
                "r",
                [Node("r", "Scene"),
                 Node("s", "Script", {"src": PropertyValue.asset_ref("ai.py")})],
                [Edge("r", "s", DepKind.DIRECT)],
                {"ai.py": digest},
            )
            return LevelDocument(1, graph)

        base_p, mine_p, theirs_p = (tmp_path / n for n in ("b.lvl", "m.lvl", "t.lvl"))
        write_document(level(good), base_p)
        write_document(level(broken), mine_p)  # A commits broken code
        write_document(level(good), theirs_p)
        conf = tmp_path / "scenemerge.conf"
        conf.write_text(
            "policy prefer-a\n"
            "assets-dir blobs\n"
            "asset-type py code\n"
            f"validator code {sys.executable} -m py_compile\n"
        )
        monkeypatch.setenv("SCENEMERGE_CONFIG", str(conf))
        out_path = tmp_path / "merged.lvl"
        report_path = tmp_path / "merged.lvlreport"
        code = main(["merge", str(base_p), str(mine_p), str(theirs_p),
                     "--output", str(out_path), "--report", str(report_path)])
        assert code == 0
        merged = read_document(out_path).graph
        assert merged.assets["ai.py"] == good  # failing blob never admitted
        report = parse_report(report_path.read_text())
        assert any("rejected by validator" in d[2] for d in report.dropped)

    @pytest.mark.parametrize("policy, code, taken", [("manual", 1, 0), ("prefer-b", 0, 2)])
    def test_tag_without_strategy_reads_no_blob(self, tmp_path, monkeypatch, policy, code, taken):
        digests = [c * 64 for c in "abc"]  # none of them is in the store
        paths = _asset_levels(tmp_path, "t.png", digests)
        (tmp_path / "blobs").mkdir()
        conf = tmp_path / "assets.conf"
        conf.write_text(f"assets-dir blobs\nstrategy obj {sys.executable} -c pass\n")
        monkeypatch.delenv("SCENEMERGE_CONFIG", raising=False)
        monkeypatch.chdir(tmp_path)

        def merge(name, *config):
            out, report = tmp_path / f"{name}.lvl", tmp_path / f"{name}.lvlreport"
            args = ["merge", *paths, "--policy", policy, "--output", str(out)]
            assert main([*args, "--report", str(report), *config]) == code
            wall_time = re.compile(r"^stat wall_time_s .*$", re.MULTILINE)
            return out.read_bytes(), wall_time.sub("", report.read_text())

        merged, report = merge("content", "--config", str(conf))
        assert read_document(tmp_path / "content.lvl").graph.assets == {"t.png": digests[taken]}
        assert (merged, report) == merge("plain")

    def test_validator_output_that_is_not_utf8_is_a_rejection(self, tmp_path):
        from scenemerge.assets import BlobStore

        store = BlobStore(tmp_path / "blobs")
        good, edited = store.put(b"x = 1\n"), store.put(b"x = 2\n")
        base, current, other = _asset_levels(tmp_path, "ai.py", [good, edited, good])
        conf = tmp_path / "assets.conf"
        conf.write_text(f"assets-dir blobs\nvalidator py {_failing_command(tmp_path, 1)}\n")
        report_path = tmp_path / "merged.lvlreport"
        code = main(["merge-driver", base, current, other,
                     "--config", str(conf), "--report", str(report_path)])
        assert code == 0  # the rejected edit is dropped, not left in conflict
        assert read_document(current).graph.assets == {"ai.py": good}
        dropped = parse_report(report_path.read_text()).dropped
        assert [d[2] for d in dropped] == ["asset ai.py rejected by validator: bad \ufffd"]

    def test_corrupt_blob_in_store_exits_two(self, tmp_path):
        import scenemerge
        from scenemerge.assets import BlobStore

        store = BlobStore(tmp_path / "blobs")
        good, edited = store.put(b"x = 1\n"), store.put(b"x = 2\n")
        base, current, other = _asset_levels(tmp_path, "ai.py", [good, edited, good])
        store.path_for(edited).write_bytes(b"x = 3\n")  # no longer hashes to its name
        before = Path(current).read_bytes()
        conf = tmp_path / "assets.conf"
        conf.write_text(f"assets-dir blobs\nvalidator py {sys.executable} -m py_compile\n")
        env = {**os.environ, "PYTHONPATH": str(Path(scenemerge.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "scenemerge.cli", "merge-driver", base, current, other,
             "--config", str(conf)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2  # an input error, not "conflicts remain"
        assert done.stderr == (
            f"scenemerge: blob {edited} in store {tmp_path / 'blobs'} does not match its digest\n"
        )
        assert Path(current).read_bytes() == before

    def test_strategy_output_that_is_not_utf8_is_a_strategy_error(self, tmp_path, capsys):
        from scenemerge.assets import BlobStore

        store = BlobStore(tmp_path / "blobs")
        digests = [store.put(content) for content in (b"a\n", b"b\n", b"c\n")]
        base, current, other = _asset_levels(tmp_path, "n.txt", digests)
        before = Path(current).read_bytes()
        conf = tmp_path / "assets.conf"
        conf.write_text(f"assets-dir blobs\nstrategy txt {_failing_command(tmp_path, 3)}\n")
        assert main(["merge-driver", base, current, other, "--config", str(conf)]) == 2
        assert "failed with exit code 3: bad \ufffd" in capsys.readouterr().err
        assert Path(current).read_bytes() == before


class TestSimulateCommand:
    def test_size_choices_are_the_simulator_presets(self):
        from scenemerge import cli, sim

        assert cli._SIZE_PRESETS == tuple(sorted(sim.PRESETS))

    def test_unknown_size_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--size", "huge"])
        assert exit_info.value.code == 2
        assert (
            "argument --size: invalid choice: 'huge' "
            "(choose from 'custom', 'lab', 'planets', 'room', 'vikings')"
        ) in capsys.readouterr().err

    def test_importing_the_cli_leaves_the_simulator_unloaded(self):
        import scenemerge

        env = {**os.environ, "PYTHONPATH": str(Path(scenemerge.__file__).resolve().parents[1])}
        probe = "import scenemerge.cli, sys; print('scenemerge.sim' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout == "False\n"

    def test_importing_the_cli_leaves_assets_and_its_imports_unloaded(self):
        import scenemerge

        # -S: no site hook may load these modules first
        env = {**os.environ, "PYTHONPATH": str(Path(scenemerge.__file__).resolve().parents[1])}
        names = ("scenemerge.assets", "subprocess", "tempfile", "hashlib")
        probe = f"import scenemerge.cli, sys; print([n for n in {names!r} if n in sys.modules])"
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout == "[]\n"

    def test_importing_the_cli_leaves_dataclasses_and_inspect_unloaded(self):
        import scenemerge

        # Git starts the driver once per file; -S, as no site hook may load these first
        env = {**os.environ, "PYTHONPATH": str(Path(scenemerge.__file__).resolve().parents[1])}
        names = ("dataclasses", "inspect")
        probe = f"import scenemerge.cli, sys; print([n for n in {names!r} if n in sys.modules])"
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout == "[]\n"

    def test_smoke_run_writes_results(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SCENEMERGE_CONFIG", raising=False)
        out = tmp_path / "results.json"
        code = main([
            "simulate", "--seed", "3", "--count", "5",
            "--nodes", "12", "--edges", "14", "--ops-per-branch", "3",
            "--out", str(out),
        ])
        assert code == 0
        assert "5/5 scenarios passed" in capsys.readouterr().out
        import json

        text = out.read_text()
        assert text.startswith(
            '{\n  "seed": 3,\n  "count": 5,\n  "policy": "manual",\n  "size": {\n'
            '    "nodes": 12,\n    "edges": 14,\n    "ops_per_branch": 3,\n'
            '    "edits_a": null,\n    "edits_b": null\n  },\n  "failures": 0,\n'
            '  "scenarios": [\n'
        )
        summary = json.loads(text)
        assert summary["failures"] == 0
        assert len(summary["scenarios"]) == 5
