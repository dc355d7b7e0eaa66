"""Atomic asset merging with pluggable per-type strategies and a code gate.

Assets are opaque blobs identified by a path-like id; level documents
carry only the manifest (id to content digest) while blob content lives
in a content-addressed store next to the level. Three-way manifest
merging is atomic at digest level by default; when both branches change
one asset differently, the id's type tag picks a registered strategy.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from .graph import SceneMergeError
from .merge import (
    CONFLICT,
    AssetConflict,
    Branch,
    DroppedEdit,
    MergePolicy,
    _settle_asset,
    merge_cell,
)


class BlobStoreError(SceneMergeError):
    """A manifest digest could not be resolved in the blob store."""


class StrategyError(SceneMergeError):
    """An external merge strategy failed (exit code other than 0 or 1)."""


class ValidatorConfigError(SceneMergeError):
    """The configured validator command could not be run at all."""


def digest_of(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


@dataclass(frozen=True)
class AssetBlob:
    """An opaque asset: id, type tag, raw content, and its content digest."""

    id: str
    type_tag: str
    content: bytes
    digest: str = ""

    def __post_init__(self) -> None:
        computed = digest_of(self.content)
        if not self.digest:
            object.__setattr__(self, "digest", computed)
        elif self.digest != computed:
            raise ValueError(f"digest mismatch for asset {self.id!r}")


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

    def has(self, digest: str) -> bool:
        return self.path_for(digest).is_file()

    def get(self, digest: str) -> bytes:
        path = self.path_for(digest)
        if not path.is_file():
            raise BlobStoreError(f"blob {digest} missing from store {self.root}")
        return path.read_bytes()

    def put(self, content: bytes) -> str:
        digest = digest_of(content)
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(digest)
        if not path.exists():
            path.write_bytes(content)
        return digest


@dataclass(frozen=True)
class AssetMergeResult:
    """Outcome of one strategy invocation."""

    kind: str  # "merged" | "conflict" | "deleted"
    blob: AssetBlob | None = None

    @staticmethod
    def merged(blob: AssetBlob) -> "AssetMergeResult":
        return AssetMergeResult("merged", blob)

    @staticmethod
    def conflict() -> "AssetMergeResult":
        return AssetMergeResult("conflict")

    @staticmethod
    def deleted() -> "AssetMergeResult":
        return AssetMergeResult("deleted")


class AssetMergeStrategy(Protocol):
    def merge3(
        self,
        ancestor: AssetBlob | None,
        mine: AssetBlob | None,
        theirs: AssetBlob | None,
    ) -> AssetMergeResult: ...


class AtomicStrategy:
    """Digest-level three-way logic; the default for unregistered tags."""

    def merge3(self, ancestor, mine, theirs):
        digests = [blob.digest if blob else None for blob in (ancestor, mine, theirs)]
        taken = merge_cell(*digests)
        if taken is CONFLICT:
            return AssetMergeResult.conflict()
        if taken is None:
            return AssetMergeResult.deleted()
        return AssetMergeResult.merged(mine if taken == digests[1] else theirs)


class CommandStrategy:
    """External three-way merger following the strategy command protocol."""

    def __init__(self, argv: Sequence[str]):
        if not argv:
            raise ValueError("strategy command must not be empty")
        self.argv = list(argv)

    def merge3(self, ancestor, mine, theirs):
        some = mine or theirs or ancestor
        if some is None:
            return AssetMergeResult.deleted()
        if mine is None or theirs is None:
            # presence changes stay atomic; strategies merge content only
            return AtomicStrategy().merge3(ancestor, mine, theirs)
        suffix = os.path.splitext(some.id)[1] or ".blob"
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
                )
            except OSError as exc:
                raise StrategyError(f"cannot run strategy {self.argv}: {exc}") from exc
            if proc.returncode == 0:
                if not out_path.is_file():
                    raise StrategyError(
                        f"strategy {self.argv} exited 0 without writing {out_path}"
                    )
                return AssetMergeResult.merged(
                    AssetBlob(some.id, some.type_tag, out_path.read_bytes())
                )
            if proc.returncode == 1:
                return AssetMergeResult.conflict()
            raise StrategyError(
                f"strategy {self.argv} failed with exit code {proc.returncode}: "
                f"{proc.stderr.strip() or proc.stdout.strip()}"
            )


@dataclass(frozen=True)
class ValidationResult:
    passed: bool
    message: str = ""


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
                [*validator, path], capture_output=True, text=True
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


@dataclass
class ManifestMergeResult:
    manifest: dict[str, str]
    conflicts: list[AssetConflict]
    dropped: list[DroppedEdit]


def merge_manifests(
    ancestor: Mapping[str, str],
    mine: Mapping[str, str],
    theirs: Mapping[str, str],
    store: BlobStore,
    policy: MergePolicy = MergePolicy(),
    strategies: Mapping[str, AssetMergeStrategy] | None = None,
    validators: Mapping[str, Sequence[str]] | None = None,
    type_map: Mapping[str, str] | None = None,
) -> ManifestMergeResult:
    """Three-way merge of asset manifests, id by id.

    Unchanged or one-sided changes resolve at digest level without
    touching blob content. True divergence goes to the id's strategy;
    a strategy conflict falls through to the merge policy exactly like
    a property conflict. Candidates whose type tag has a validator are
    gated before admission.
    """
    strategies = strategies or {}
    validators = validators or {}
    atomic = AtomicStrategy()
    manifest: dict[str, str] = {}
    conflicts: list[AssetConflict] = []
    dropped: list[DroppedEdit] = []

    def blob_for(asset_id: str, tag: str, digest: str | None) -> AssetBlob | None:
        if digest is None:
            return None
        return AssetBlob(asset_id, tag, store.get(digest), digest)

    for asset_id in sorted(set(ancestor) | set(mine) | set(theirs)):
        da = ancestor.get(asset_id)
        dm = mine.get(asset_id)
        dt = theirs.get(asset_id)
        tag = type_tag_for(asset_id, type_map)

        chosen = merge_cell(da, dm, dt)
        if chosen is CONFLICT:
            strategy = strategies.get(tag, atomic)
            result = strategy.merge3(
                blob_for(asset_id, tag, da),
                blob_for(asset_id, tag, dm),
                blob_for(asset_id, tag, dt),
            )
            if result.kind == "merged":
                chosen = store.put(result.blob.content)
            elif result.kind == "deleted":
                chosen = None
            else:
                conflict = AssetConflict(asset_id, dm, dt, da)
                conflicts.append(conflict)
                chosen = _settle_asset(conflict, policy.winner, dropped)

        # gate: a candidate that differs from the ancestor must pass its
        # type's validator before being admitted
        if chosen is not None and chosen != da and tag in validators:
            candidates: list[tuple[str, Branch | None]] = [(chosen, None)]
            winner = policy.winner
            if winner is not None:
                preferred = dm if winner is Branch.A else dt
                if preferred is not None and preferred != chosen and preferred != da:
                    candidates.append((preferred, winner))
            admitted = None
            for digest, source in candidates:
                blob = AssetBlob(asset_id, tag, store.get(digest), digest)
                outcome = validate_code_asset(blob, validators[tag])
                if outcome.passed:
                    admitted = digest
                    break
                blame = source if source is not None else _changed_branch(da, dm, dt, digest)
                dropped.append(
                    DroppedEdit(
                        blame if blame is not None else Branch.A,
                        None,
                        f"asset {asset_id} rejected by validator: {outcome.message}",
                    )
                )
            chosen = admitted if admitted is not None else da

        if chosen is not None:
            manifest[asset_id] = chosen
    return ManifestMergeResult(manifest, conflicts, dropped)


def _changed_branch(da: str | None, dm: str | None, dt: str | None, digest: str) -> Branch | None:
    """Which branch introduced this digest, if exactly one did."""
    from_mine = dm == digest and dm != da
    from_theirs = dt == digest and dt != da
    if from_mine and not from_theirs:
        return Branch.A
    if from_theirs and not from_mine:
        return Branch.B
    return None
