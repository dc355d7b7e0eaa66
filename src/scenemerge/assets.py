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

from .graph import SceneMergeError
from .levelfile import atomic_open
from .merge import CONFLICT, Branch, DroppedEdit


class BlobStoreError(SceneMergeError):
    """A manifest digest could not be resolved in the blob store."""


class StrategyError(SceneMergeError):
    """An external merge strategy failed (exit code other than 0 or 1)."""


class ValidatorConfigError(SceneMergeError):
    """The configured validator command could not be run at all."""


def digest_of(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


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
        if not (path.is_file() and path.read_bytes() == content):
            # a put cut short leaves no file under the digest, and a file that
            # holds other bytes (written by another tool) is replaced whole
            with atomic_open(path) as handle:
                handle.buffer.write(content)
        return digest


def _run(role: str, argv: Sequence[str], asset_id: str, contents: dict[str, bytes | None]):
    """Run the ``role`` command, "strategy" or "validator", on ``contents``.

    Each content is written into one temp directory, named by its key and
    ``asset_id``'s extension, and passed as a path in order; an absent one
    is passed as ``-``. A strategy also gets the path of its output file.
    Returns the finished process and, for a strategy, the bytes it wrote
    there (None if it wrote none). A command that cannot be started at
    all raises the role's error.
    """
    suffix = os.path.splitext(asset_id)[1] or ".blob"
    with tempfile.TemporaryDirectory(prefix=f"scenemerge-{role}-") as tmp:
        paths = []
        for name, content in contents.items():
            if content is None:
                paths.append("-")
                continue
            path = Path(tmp, name + suffix)
            path.write_bytes(content)
            paths.append(str(path))
        out = Path(tmp, "out" + suffix)
        if role == "strategy":
            paths.append(str(out))
        try:
            proc = subprocess.run(
                [*argv, *paths], capture_output=True, text=True, errors="replace"
            )
        except OSError as exc:
            error = StrategyError if role == "strategy" else ValidatorConfigError
            raise error(f"cannot run {role} {list(argv)}: {exc}") from exc
        return proc, out.read_bytes() if out.is_file() else None


class CommandStrategy:
    """External three-way merger following the strategy command protocol."""

    def __init__(self, argv: Sequence[str]):
        if not argv:
            raise ValueError("strategy command must not be empty")
        self.argv = list(argv)

    def merge3(self, asset_id: str, ancestor: bytes | None, mine: bytes, theirs: bytes):
        """The merged content of ``asset_id``, or None for a conflict; ``ancestor`` may be None."""
        contents = {"ancestor": ancestor, "mine": mine, "theirs": theirs}
        proc, merged = _run("strategy", self.argv, asset_id, contents)
        if proc.returncode == 1:
            return None
        if proc.returncode != 0:
            raise StrategyError(
                f"strategy {self.argv} failed with exit code {proc.returncode}: "
                f"{proc.stderr.strip() or proc.stdout.strip()}"
            )
        if merged is None:
            raise StrategyError(f"strategy {self.argv} exited 0 without writing its output")
        return merged


def validate_code_asset(asset_id: str, content: bytes, validator: Sequence[str]) -> str | None:
    """Run the configured external check on an asset's content: None if it
    exits 0, else its captured output, or ``exit <code>`` when it printed
    nothing.

    A validator that cannot be executed at all is a configuration error,
    distinct from a failing check.
    """
    if not validator:
        raise ValidatorConfigError("validator command must not be empty")
    proc, _ = _run("validator", validator, asset_id, {"blob": content})
    if proc.returncode == 0:
        return None
    return proc.stderr.strip() or proc.stdout.strip() or f"exit {proc.returncode}"


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
        strategy = self.strategies.get(type_tag_for(asset_id, self.type_map))
        if strategy is None or dm is None or dt is None:
            return CONFLICT
        ancestor, mine, theirs = (
            None if digest is None else self.store.get(digest) for digest in (da, dm, dt)
        )
        merged = strategy.merge3(asset_id, ancestor, mine, theirs)
        return CONFLICT if merged is None else self.store.put(merged)

    def admit(self, asset_id, da, dm, dt, chosen, winner, dropped):
        """The digest kept in place of ``chosen``, which differs from the ancestor's ``da``.

        With a validator for the tag, ``chosen`` and then the preferred
        branch's own change must pass it; each rejection is dropped, and
        the ancestor digest is kept when none passes. A rejected
        ``chosen`` is blamed on theirs when only theirs holds it, and
        on mine otherwise.
        """
        validator = self.validators.get(type_tag_for(asset_id, self.type_map))
        if validator is None:
            return chosen
        candidates = [(chosen, Branch.B if dt == chosen and dm != chosen else Branch.A)]
        if winner is not None:
            preferred = dm if winner is Branch.A else dt
            if preferred is not None and preferred != chosen and preferred != da:
                candidates.append((preferred, winner))
        for digest, blame in candidates:
            message = validate_code_asset(asset_id, self.store.get(digest), validator)
            if message is None:
                return digest
            dropped.append(
                DroppedEdit(blame, None, f"asset {asset_id} rejected by validator: {message}")
            )
        return da

