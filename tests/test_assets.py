from __future__ import annotations

import os
import stat
import sys

import pytest

from scenemerge.assets import (
    AssetBlob,
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


def blob(name: str, content: bytes, tag: str = "bin") -> AssetBlob:
    return AssetBlob(name, tag, content)


class TestBlob:
    def test_digest_computed(self):
        b = blob("a.bin", b"hello")
        assert b.digest == digest_of(b"hello")

    def test_digest_mismatch_rejected(self):
        with pytest.raises(ValueError, match="digest mismatch"):
            AssetBlob("a.bin", "bin", b"hello", "0" * 64)

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
        result = strategy.merge3(
            blob("x.bin", b"A"), blob("x.bin", b"B"), blob("x.bin", b"C")
        )
        assert result == b"ABC"

    def test_conflict_exit_code(self, tmp_path):
        script = write_script(tmp_path / "refuse.py", "raise SystemExit(1)\n")
        result = CommandStrategy([PY, script]).merge3(
            blob("x.bin", b"A"), blob("x.bin", b"B"), blob("x.bin", b"C")
        )
        assert result is None

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
            CommandStrategy([PY, script]).merge3(
                blob("x.bin", b"A"), blob("x.bin", b"B"), blob("x.bin", b"C")
            )


class TestValidator:
    def test_always_passing_command(self):
        result = validate_code_asset(blob("ok.py", b"x = 1\n"), [PY, "-c", "exit(0)"])
        assert result.passed

    def test_always_failing_command(self):
        result = validate_code_asset(blob("no.py", b"x = 1\n"), [PY, "-c", "exit(1)"])
        assert not result.passed

    def test_output_that_is_not_utf8_is_decoded_with_replacement(self):
        check = [PY, "-c", "import sys; sys.stderr.buffer.write(b'bad \\xff'); exit(1)"]
        result = validate_code_asset(blob("no.py", b"x = 1\n"), check)
        assert not result.passed
        assert result.message == "bad \ufffd"

    def test_real_syntax_checker_reports_message(self):
        broken = blob("broken.py", b"def f(:\n", tag="code")
        result = validate_code_asset(broken, [PY, "-m", "py_compile"])
        assert not result.passed
        assert "SyntaxError" in result.message or "invalid syntax" in result.message

    def test_missing_command_is_config_error(self):
        with pytest.raises(ValidatorConfigError):
            validate_code_asset(blob("x.py", b""), ["/nonexistent/checker-cmd"])


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
