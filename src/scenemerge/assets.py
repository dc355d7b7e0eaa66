"""Content-aware asset merging: per-type strategy commands and a validator gate.

Assets are opaque blobs identified by a path-like id; level documents
carry only the manifest (id to content digest) while blob content lives
in a content-addressed store next to the level. `merge.merge3` merges
manifests in one loop, one three-way digest cell per asset id, and a
`ManifestMerger` built here adds a content step to that loop. When both
branches changed an asset differently and both still hold it, the id's
type tag picks a registered strategy; under a tag with no strategy the
cell stays a digest-level conflict and no blob is read for it.

Strategies and validators are external commands, so existing mergers
integrate without bindings:

* strategy: ``<cmd> <ancestor-path|-> <mine-path> <theirs-path> <out-path>``;
  exit 0 means the merged blob was written to out-path, exit 1 means
  conflict, anything else is a strategy failure.
* validator: ``<cmd> <blob-path>``; exit 0 means the blob is acceptable.

A failing validator never lets a blob into the merged manifest: the
merge keeps the ancestor blob (manual policy) or the preferred branch's
passing version, and records the rejected edit as dropped.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Mapping, Sequence

from .graph import SceneMergeError, _Record, _set
from .merge import CONFLICT, Branch, DroppedEdit


class BlobStoreError(SceneMergeError):
    """A manifest digest could not be resolved in the blob store."""


class StrategyError(SceneMergeError):
    """An external merge strategy failed (exit code other than 0 or 1)."""


class ValidatorConfigError(SceneMergeError):
    """The configured validator command could not be run at all."""


def digest_of(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


class AssetBlob(_Record):
    """An opaque asset: id, type tag, raw content, and its content digest."""

    __slots__ = ("id", "type_tag", "content", "digest")

    def __init__(self, id: str, type_tag: str, content: bytes, digest: str = ""):
        computed = digest_of(content)
        if digest and digest != computed:
            raise ValueError(f"digest mismatch for asset {id!r}")
        _set(self, "id", id)
        _set(self, "type_tag", type_tag)
        _set(self, "content", content)
        _set(self, "digest", computed)


def type_tag_for(asset_id: str, type_map: Mapping[str, str] | None = None) -> str:
    """Type tag of an asset id: its file extension, via the optional map."""
    name = asset_id.rsplit("/", 1)[-1]
    ext = name.rsplit(".", 1)[-1].lower() if "." in name else ""
    if type_map and ext in type_map:
        return type_map[ext]
    return ext


class BlobStore:
    """Content-addressed blob directory: one file per digest."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        return self.root / digest

    def get(self, digest: str) -> bytes:
        """The content stored under ``digest``, which must hash to it."""
        path = self.path_for(digest)
        if not path.is_file():
            raise BlobStoreError(f"blob {digest} missing from store {self.root}")
        content = path.read_bytes()
        if digest_of(content) != digest:
            raise BlobStoreError(f"blob {digest} in store {self.root} does not match its digest")
        return content

    def put(self, content: bytes) -> str:
        digest = digest_of(content)
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(digest)
        if not path.exists():
            path.write_bytes(content)
        return digest


class CommandStrategy:
    """External three-way merger following the strategy command protocol."""

    def __init__(self, argv: Sequence[str]):
        if not argv:
            raise ValueError("strategy command must not be empty")
        self.argv = list(argv)

    def merge3(self, ancestor, mine, theirs):
        """The merged content, or None for a conflict; ``ancestor`` may be None."""
        suffix = os.path.splitext(mine.id)[1] or ".blob"
        with tempfile.TemporaryDirectory(prefix="scenemerge-strategy-") as tmp:
            tmp_path = Path(tmp)
            paths = []
            for name, blob in (("ancestor", ancestor), ("mine", mine), ("theirs", theirs)):
                if blob is None:
                    paths.append("-")
                    continue
                path = tmp_path / f"{name}{suffix}"
                path.write_bytes(blob.content)
                paths.append(str(path))
            out_path = tmp_path / f"out{suffix}"
            try:
                proc = subprocess.run(
                    [*self.argv, *paths, str(out_path)],
                    capture_output=True,
                    text=True,
                    errors="replace",
                )
            except OSError as exc:
                raise StrategyError(f"cannot run strategy {self.argv}: {exc}") from exc
            if proc.returncode == 0:
                if not out_path.is_file():
                    raise StrategyError(
                        f"strategy {self.argv} exited 0 without writing {out_path}"
                    )
                return out_path.read_bytes()
            if proc.returncode == 1:
                return None
            raise StrategyError(
                f"strategy {self.argv} failed with exit code {proc.returncode}: "
                f"{proc.stderr.strip() or proc.stdout.strip()}"
            )


class ValidationResult(_Record):
    passed: bool
    message: str
    __slots__ = ("passed", "message")
    _defaults = {"message": ""}


def validate_code_asset(blob: AssetBlob, validator: Sequence[str]) -> ValidationResult:
    """Run the configured external check on a blob; exit 0 passes.

    A nonzero exit is a Fail carrying the captured output. A validator
    that cannot be executed at all is a configuration error, distinct
    from a failing check.
    """
    if not validator:
        raise ValidatorConfigError("validator command must not be empty")
    suffix = os.path.splitext(blob.id)[1] or ".blob"
    with tempfile.NamedTemporaryFile(
        prefix="scenemerge-validate-", suffix=suffix, delete=False
    ) as handle:
        handle.write(blob.content)
        path = handle.name
    try:
        try:
            proc = subprocess.run(
                [*validator, path], capture_output=True, text=True, errors="replace"
            )
        except OSError as exc:
            raise ValidatorConfigError(
                f"cannot run validator {list(validator)}: {exc}"
            ) from exc
        if proc.returncode == 0:
            return ValidationResult(True)
        return ValidationResult(
            False, (proc.stderr.strip() or proc.stdout.strip() or f"exit {proc.returncode}")
        )
    finally:
        os.unlink(path)


class ManifestMerger:
    """The content step of `merge3`'s manifest loop, from a blob store.

    ``strategies`` and ``validators`` are keyed by type tag, the id's
    extension mapped through ``type_map`` (see `type_tag_for`).
    """

    def __init__(
        self,
        store: BlobStore,
        strategies: Mapping[str, CommandStrategy] | None = None,
        validators: Mapping[str, Sequence[str]] | None = None,
        type_map: Mapping[str, str] | None = None,
    ):
        self.store = store
        self.strategies = strategies or {}
        self.validators = validators or {}
        self.type_map = type_map

    def merge(self, asset_id, da, dm, dt):
        """The merged digest of a divergent cell (ancestor, mine, theirs), or CONFLICT.

        Presence changes stay atomic: only a cell both branches hold,
        under a tag with a strategy, reads its blobs and runs it.
        """
        tag = type_tag_for(asset_id, self.type_map)
        strategy = self.strategies.get(tag)
        if strategy is None or dm is None or dt is None:
            return CONFLICT
        ancestor, mine, theirs = (
            None if digest is None else AssetBlob(asset_id, tag, self.store.get(digest), digest)
            for digest in (da, dm, dt)
        )
        merged = strategy.merge3(ancestor, mine, theirs)
        return CONFLICT if merged is None else self.store.put(merged)

    def admit(self, asset_id, da, dm, dt, chosen, winner, dropped):
        """The digest kept in place of ``chosen``, which differs from the ancestor's ``da``.

        With a validator for the tag, ``chosen`` and then the preferred
        branch's own change must pass it; each rejection is dropped, and
        the ancestor digest is kept when none passes. A rejected
        ``chosen`` is blamed on theirs when only theirs holds it, and
        on mine otherwise.
        """
        tag = type_tag_for(asset_id, self.type_map)
        validator = self.validators.get(tag)
        if validator is None:
            return chosen
        candidates = [(chosen, Branch.B if dt == chosen and dm != chosen else Branch.A)]
        if winner is not None:
            preferred = dm if winner is Branch.A else dt
            if preferred is not None and preferred != chosen and preferred != da:
                candidates.append((preferred, winner))
        for digest, blame in candidates:
            blob = AssetBlob(asset_id, tag, self.store.get(digest), digest)
            outcome = validate_code_asset(blob, validator)
            if outcome.passed:
                return digest
            dropped.append(
                DroppedEdit(blame, None, f"asset {asset_id} rejected by validator: {outcome.message}")
            )
        return da

