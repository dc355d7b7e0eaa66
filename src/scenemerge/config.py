"""Project configuration for the command-line front end.

One ``scenemerge.conf`` per project, found beside the repository (the
search walks upward from the working directory) or named explicitly by
the ``SCENEMERGE_CONFIG`` environment variable or a ``--config`` flag.
Key/value lines, one per fact, same tokenizer as level files::

    policy prefer-b
    averaging on
    averageable Material
    averageable Light
    assets-dir assets
    asset-type cs code
    asset-type py code
    strategy mesh meshmerge --three-way
    validator code python -m py_compile
    user alice
    color "#ff8800"

Unknown keys are rejected; defaults are manual policy, averaging off.
"""

from __future__ import annotations

import os
from pathlib import Path

from .graph import SceneMergeError, _Record
from .levelfile import ParseError, _line_texts, _read_text
from .merge import MergePolicy, PolicyKind

ENV_VAR = "SCENEMERGE_CONFIG"
CONFIG_NAME = "scenemerge.conf"

_POLICIES = {p.value: p for p in PolicyKind}


class ConfigError(SceneMergeError):
    """Malformed configuration file."""


class CliConfig(_Record, frozen=False):
    policy: PolicyKind
    averaging: bool
    averageable_kinds: frozenset[str]
    strategies: dict[str, list[str]]
    validators: dict[str, list[str]]
    asset_types: dict[str, str]
    assets_dir: Path | None
    user: str | None
    color: str | None
    __slots__ = (
        "policy", "averaging", "averageable_kinds", "strategies", "validators",
        "asset_types", "assets_dir", "user", "color",
    )
    _defaults = {
        "policy": PolicyKind.MANUAL,
        "averaging": False,
        "averageable_kinds": frozenset(),
        "strategies": dict,
        "validators": dict,
        "asset_types": dict,
        "assets_dir": None,
        "user": None,
        "color": None,
    }

    def merge_policy(self, override: str | None = None) -> MergePolicy:
        kind = self.policy
        if override is not None:
            if override not in _POLICIES:
                raise ConfigError(f"unknown policy {override!r}")
            kind = _POLICIES[override]
        return MergePolicy(
            resolution=kind,
            numeric_averaging=self.averaging,
            averageable_kinds=self.averageable_kinds,
        )

    def report_meta(self) -> dict[str, str]:
        meta = {}
        if self.user:
            meta["user"] = self.user
        if self.color:
            meta["color"] = self.color
        return meta


def parse_config(text: str, base_dir: Path) -> CliConfig:
    config = CliConfig()
    averageable: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _line_texts(line, lineno)
        if not tokens:
            continue
        key, *values = tokens
        try:
            if key == "policy":
                (value,) = values
                if value not in _POLICIES:
                    raise ConfigError(f"line {lineno}: unknown policy {value!r}")
                config.policy = _POLICIES[value]
            elif key == "averaging":
                (value,) = values
                if value not in ("on", "off"):
                    raise ConfigError(f"line {lineno}: averaging must be 'on' or 'off'")
                config.averaging = value == "on"
            elif key == "averageable":
                (value,) = values
                averageable.add(value)
            elif key == "assets-dir":
                (value,) = values
                config.assets_dir = (base_dir / value).resolve()
            elif key == "asset-type":
                ext, tag = values
                config.asset_types[ext.lower()] = tag
            elif key == "strategy":
                tag, *command = values
                if not command:
                    raise ConfigError(f"line {lineno}: strategy needs a command")
                config.strategies[tag] = command
            elif key == "validator":
                tag, *command = values
                if not command:
                    raise ConfigError(f"line {lineno}: validator needs a command")
                config.validators[tag] = command
            elif key == "user":
                (config.user,) = values
            elif key == "color":
                (config.color,) = values
            else:
                raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        except ValueError:
            raise ConfigError(f"line {lineno}: wrong number of values for {key!r}") from None
    config.averageable_kinds = frozenset(averageable)
    return config


def find_config(start_dir: Path) -> Path | None:
    current = start_dir.resolve()
    while True:
        candidate = current / CONFIG_NAME
        if candidate.is_file():
            return candidate
        if (current / ".git").exists():
            return None  # repository root reached without a config
        if current.parent == current:
            return None
        current = current.parent


def load_config(explicit: str | None = None) -> CliConfig:
    path: Path | None
    if explicit is not None:
        path = Path(explicit)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
    elif os.environ.get(ENV_VAR):
        path = Path(os.environ[ENV_VAR])
        if not path.is_file():
            raise ConfigError(f"{ENV_VAR} points to a missing file: {path}")
    else:
        path = find_config(Path("."))
    if path is None:
        return CliConfig()
    try:
        return parse_config(_read_text(path), path.parent)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ParseError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
