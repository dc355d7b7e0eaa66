from __future__ import annotations

import json
import os
import stat
import sys

import pytest

from scenemerge.assets import (
    BlobStore,
    BlobStoreError,
    CommandStrategy,
    StrategyError,
    ValidatorConfigError,
    digest_of,
    type_tag_for,
    validate_code_asset,
)
from scenemerge.merge import CONFLICT, Branch, MergePolicy, PolicyKind, Resolution, merge_cell
from conftest import merge3_manifests

MANUAL = MergePolicy(PolicyKind.MANUAL)
PREFER_B = MergePolicy(PolicyKind.PREFER_B)

PY = sys.executable


class TestBlob:
    def test_type_tag_from_extension(self):
        assert type_tag_for("models/tree.OBJ") == "obj"
        assert type_tag_for("noext") == ""
        assert type_tag_for("code/ai.cs", {"cs": "code"}) == "code"


class TestAtomicDigestCell:
    # every equality pattern over (ancestor, mine, theirs), presence included;
    # None is an absent asset, so a None result deletes it
    @pytest.mark.parametrize(
        "anc, mine, theirs, expected",
        [
            ("x", "x", "x", "x"),  # untouched
            ("x", "y", "x", "y"),  # mine changed
            ("x", "x", "y", "y"),  # theirs changed
            ("x", "y", "y", "y"),  # both changed identically
            ("x", "y", "z", CONFLICT),  # both changed differently
            (None, "y", "y", "y"),  # both added same
            (None, "y", "z", CONFLICT),  # both added differently
            (None, "y", None, "y"),  # added in one branch
            (None, None, "z", "z"),
            ("x", None, "x", None),  # deleted in one branch
            ("x", "x", None, None),
            ("x", None, None, None),  # deleted in both
            ("x", None, "z", CONFLICT),  # delete vs modify
            ("x", "y", None, CONFLICT),
            (None, None, None, None),
        ],
    )
    def test_exhaustive_digest_table(self, anc, mine, theirs, expected):
        assert merge_cell(anc, mine, theirs) == expected


class TestBlobStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = BlobStore(tmp_path / "assets")
        digest = store.put(b"payload")
        assert store.get(digest) == b"payload"

    def test_missing_digest_is_hard_error(self, tmp_path):
        store = BlobStore(tmp_path)
        with pytest.raises(BlobStoreError):
            store.get("0" * 64)

    def test_interrupted_put_leaves_no_blob_and_a_later_put_stores_it_whole(
        self, tmp_path, monkeypatch
    ):
        store = BlobStore(tmp_path)
        content = b"payload" * 1000
        digest = digest_of(content)

        def fail(fd):
            raise OSError("disk gone")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", fail)
            with pytest.raises(OSError, match="disk gone"):
                store.put(content)
        assert os.listdir(tmp_path) == []
        assert store.put(content) == digest
        assert store.get(digest) == content

    def test_a_put_rewrites_a_blob_file_that_holds_other_bytes(self, tmp_path):
        store = BlobStore(tmp_path)
        content = bytes(range(256)) * 2 + b"tail" * 47  # 700 bytes
        digest = digest_of(content)
        store.path_for(digest).write_bytes(content[:10])  # a truncated blob
        with pytest.raises(BlobStoreError, match="does not match"):
            store.get(digest)
        assert store.put(content) == digest
        assert store.get(digest) == content
        assert os.listdir(tmp_path) == [digest]  # no temp file left beside it


def write_script(path, body: str) -> str:
    path.write_text(f"#!{PY}\n{body}")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


class TestCommandStrategy:
    def test_merging_command(self, tmp_path):
        script = write_script(
            tmp_path / "concat.py",
            "import sys\n"
            "paths = sys.argv[1:5]\n"
            "data = b''.join(open(p, 'rb').read() for p in paths[:3] if p != '-')\n"
            "open(paths[3], 'wb').write(data)\n",
        )
        strategy = CommandStrategy([PY, script])
        assert strategy.merge3("x.bin", b"A", b"B", b"C") == b"ABC"

    def test_conflict_exit_code(self, tmp_path):
        script = write_script(tmp_path / "refuse.py", "raise SystemExit(1)\n")
        assert CommandStrategy([PY, script]).merge3("x.bin", b"A", b"B", b"C") is None

    @pytest.mark.parametrize(
        "body",
        [
            "raise SystemExit(3)\n",
            # output that is not UTF-8 still reads as a strategy failure
            "import sys\nsys.stderr.buffer.write(b'bad \\xff')\nraise SystemExit(3)\n",
        ],
        ids=["plain", "not-utf8"],
    )
    def test_other_exit_codes_are_failures(self, tmp_path, body):
        script = write_script(tmp_path / "crash.py", body)
        with pytest.raises(StrategyError, match="exit code 3"):
            CommandStrategy([PY, script]).merge3("x.bin", b"A", b"B", b"C")


class TestValidator:
    # None is a pass; a failure is the check's message
    def test_always_passing_command(self):
        assert validate_code_asset("ok.py", b"x = 1\n", [PY, "-c", "exit(0)"]) is None

    def test_always_failing_command(self):
        assert validate_code_asset("no.py", b"x = 1\n", [PY, "-c", "exit(1)"]) == "exit 1"

    def test_output_that_is_not_utf8_is_decoded_with_replacement(self):
        check = [PY, "-c", "import sys; sys.stderr.buffer.write(b'bad \\xff'); exit(1)"]
        assert validate_code_asset("no.py", b"x = 1\n", check) == "bad \ufffd"

    def test_real_syntax_checker_reports_message(self):
        message = validate_code_asset("broken.py", b"def f(:\n", [PY, "-m", "py_compile"])
        assert "SyntaxError" in message or "invalid syntax" in message

    def test_missing_command_is_config_error(self):
        with pytest.raises(ValidatorConfigError):
            validate_code_asset("x.py", b"", ["/nonexistent/checker-cmd"])


def recording_script(path, log, then: str) -> list[str]:
    """A command that writes its arguments to ``log`` as JSON, then runs ``then``."""
    script = write_script(
        path, f"import json, sys\njson.dump(sys.argv[1:], open({str(log)!r}, 'w'))\n{then}"
    )
    return [PY, script]


class TestCommandProtocols:
    """The argument shapes the strategy and validator commands are called with."""

    def test_strategy_on_a_cell_both_branches_added(self, tmp_path):
        store = BlobStore(tmp_path / "store")
        log = tmp_path / "argv.json"
        argv = recording_script(
            tmp_path / "strategy.py", log, "open(sys.argv[-1], 'wb').write(b'merged')\n"
        )
        mine, theirs = store.put(b"mine"), store.put(b"theirs")
        merged, conflicts, _ = merge3_manifests(
            {}, {"m.obj": mine}, {"m.obj": theirs}, store, MANUAL,
            strategies={"obj": CommandStrategy(argv)},
        )
        assert merged == {"m.obj": digest_of(b"merged")} and not conflicts
        paths = json.loads(log.read_text())
        assert len(paths) == 4 and paths[0] == "-"
        assert all(path.endswith(".obj") for path in paths[1:])

    def test_validator_gets_one_path_with_the_extension(self, tmp_path):
        store = BlobStore(tmp_path / "store")
        log = tmp_path / "argv.json"
        argv = recording_script(tmp_path / "check.py", log, "")
        good, better = store.put(b"x = 1\n"), store.put(b"x = 2\n")
        merged, _, dropped = merge3_manifests(
            {"ai.py": good}, {"ai.py": better}, {"ai.py": good}, store, MANUAL,
            validators={"py": argv},
        )
        assert merged == {"ai.py": better} and not dropped
        paths = json.loads(log.read_text())
        assert len(paths) == 1 and paths[0].endswith(".py")

    def test_strategy_that_exits_0_without_output_fails(self, tmp_path):
        store = BlobStore(tmp_path / "store")
        argv = recording_script(tmp_path / "strategy.py", tmp_path / "argv.json", "")
        d1, d2, d3 = store.put(b"1"), store.put(b"2"), store.put(b"3")
        with pytest.raises(StrategyError, match="without writing"):
            merge3_manifests(
                {"m.obj": d1}, {"m.obj": d2}, {"m.obj": d3}, store, MANUAL,
                strategies={"obj": CommandStrategy(argv)},
            )


class TestMergeManifests:
    def manifests(self, store):
        d1 = store.put(b"v1")
        d2 = store.put(b"v2")
        d3 = store.put(b"v3")
        return d1, d2, d3

    def test_all_identical_is_identity(self, tmp_path):
        store = BlobStore(tmp_path)
        d1 = store.put(b"v1")
        manifest = {"a.bin": d1}
        merged, conflicts, dropped = merge3_manifests(manifest, manifest, manifest, store, MANUAL)
        assert merged == manifest
        assert not conflicts and not dropped

    def test_one_sided_change_taken_without_store_reads(self, tmp_path):
        store = BlobStore(tmp_path / "empty")  # digests unresolvable on purpose
        merged, _, _ = merge3_manifests(
            {"t.png": "1"}, {"t.png": "2"}, {"t.png": "1"}, store, MANUAL
        )
        assert merged == {"t.png": "2"}

    def test_divergence_without_strategy_falls_to_policy(self, tmp_path):
        store = BlobStore(tmp_path)
        d1, d2, d3 = self.manifests(store)
        merged, conflicts, dropped = merge3_manifests(
            {"c.py": d1}, {"c.py": d2}, {"c.py": d3}, store, PREFER_B
        )
        assert merged == {"c.py": d3}
        assert conflicts[0].resolution is Resolution.TOOK_B
        assert dropped[0].branch is Branch.A

    def test_registered_strategy_merges_content(self, tmp_path):
        store = BlobStore(tmp_path / "store")
        d1 = store.put(b"1\n")
        d2 = store.put(b"2\n")
        d3 = store.put(b"3\n")
        script = write_script(
            tmp_path / "concat.py",
            "import sys\n"
            "paths = sys.argv[1:5]\n"
            "data = b''.join(open(p, 'rb').read() for p in paths[:3] if p != '-')\n"
            "open(paths[3], 'wb').write(data)\n",
        )
        merged, conflicts, _ = merge3_manifests(
            {"m.obj": d1},
            {"m.obj": d2},
            {"m.obj": d3},
            store,
            MANUAL,
            strategies={"obj": CommandStrategy([PY, script])},
        )
        assert store.get(merged["m.obj"]) == b"1\n2\n3\n"
        assert not conflicts

    def test_failing_validator_never_admits_blob(self, tmp_path):
        store = BlobStore(tmp_path)
        good = store.put(b"x = 1\n")
        bad = store.put(b"def f(:\n")
        merged, _, dropped = merge3_manifests(
            {"ai.py": good},
            {"ai.py": bad},
            {"ai.py": good},
            store,
            PREFER_B,
            validators={"py": [PY, "-m", "py_compile"]},
        )
        assert merged["ai.py"] == good  # ancestor kept
        assert any("rejected by validator" in d.description for d in dropped)

    def test_passing_validator_admits_blob(self, tmp_path):
        store = BlobStore(tmp_path)
        good = store.put(b"x = 1\n")
        better = store.put(b"x = 2\n")
        merged, _, dropped = merge3_manifests(
            {"ai.py": good},
            {"ai.py": better},
            {"ai.py": good},
            store,
            MANUAL,
            validators={"py": [PY, "-m", "py_compile"]},
        )
        assert merged["ai.py"] == better
        assert not dropped
