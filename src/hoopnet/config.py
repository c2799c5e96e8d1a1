"""One plain-text configuration document drives every command.

Format: UTF-8, one ``section.key = value`` per line, ``#`` comments.
Each section maps onto one config dataclass; unknown sections or keys are
rejected, values are coerced by the dataclass field types, and every
section's own checks run when the document loads.  Seed
fields never live in the document: the CLI derives them from its single
``--seed`` flag.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import dataclass, field, fields, replace

from .court import CourtSpec
from .data import DataConfig, SynthConfig
from .errors import ConfigError, HoopnetError
from .labels import SegmentationConfig
from .model import ArchitectureConfig
from .render import RenderSpec
from .rollout import RolloutConfig
from .train import TrainConfig


@dataclass(frozen=True)
class RunSettings:
    n_rollouts: int = 12

    def validate(self) -> None:
        if self.n_rollouts < 1:
            raise ConfigError("n_rollouts must be >= 1")


@dataclass(frozen=True)
class PathsConfig:
    out_dir: str = "runs/out"

    def validate(self) -> None:
        if not self.out_dir:  # every output would land in the working directory
            raise ConfigError("out_dir must name a directory")


@dataclass(frozen=True)
class RunConfig:
    court: CourtSpec = field(default_factory=CourtSpec)
    data: DataConfig = field(default_factory=DataConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    labels: SegmentationConfig = field(default_factory=SegmentationConfig)
    arch: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    rollout: RolloutConfig = field(default_factory=RolloutConfig)
    render: RenderSpec = field(default_factory=RenderSpec)
    run: RunSettings = field(default_factory=RunSettings)
    paths: PathsConfig = field(default_factory=PathsConfig)


_SECTIONS: dict[str, type] = {
    "court": CourtSpec,
    "data": DataConfig,
    "synth": SynthConfig,
    "labels": SegmentationConfig,
    "arch": ArchitectureConfig,
    "train": TrainConfig,
    "rollout": RolloutConfig,
    "render": RenderSpec,
    "run": RunSettings,
    "paths": PathsConfig,
}

_HIDDEN_FIELDS = {"seed"}  # provided by --seed, never by the document


def _coerce(value: str, ftype, where: str):
    value = value.strip()
    try:
        if ftype is int:
            return int(value)
        if ftype is float:
            return float(value)
        if ftype is str:
            return value
        if ftype == tuple[int, ...]:
            return tuple(int(v.strip()) for v in value.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unsupported config field type {ftype}")


@functools.cache
def _field_types(cls) -> dict[str, type]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def parse_document(text: str) -> dict[tuple[str, str], str]:
    """Raw (section, key) -> value strings, with duplicate keys rejected.

    Comment lines start with ``#``; values may contain ``#`` freely
    (paths may), so there are no trailing comments.
    """
    entries: dict[tuple[str, str], str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key_part, _, value = line.partition("=")
        dotted = key_part.strip()
        if "." not in dotted:
            raise ConfigError(f"line {lineno}: key {dotted!r} must be section.key")
        section, _, key = dotted.partition(".")
        if (section, key) in entries:
            raise ConfigError(f"line {lineno}: duplicate key {dotted!r}")
        entries[(section, key)] = value.strip()
    return entries


def _apply(entries: dict[tuple[str, str], str]) -> RunConfig:
    updates: dict[str, dict] = {}
    for (section, key), value in entries.items():
        cls = _SECTIONS.get(section)
        if cls is None:
            raise ConfigError(f"unknown config section {section!r}")
        types = _field_types(cls)
        if key in _HIDDEN_FIELDS:
            raise ConfigError(f"{section}.{key}: seeds come from --seed, not the document")
        if key not in types:
            raise ConfigError(f"unknown config key {section}.{key}")
        updates.setdefault(section, {})[key] = _coerce(value, types[key], f"{section}.{key}")
    out = RunConfig()
    for section, kv in updates.items():
        try:
            value = replace(getattr(out, section), **kv)
        except ValueError as exc:  # CourtSpec checks its values when built
            raise ConfigError(f"{section}: {exc}") from exc
        out = replace(out, **{section: value})
    return out


def _validate(cfg: RunConfig) -> None:
    """Run each section's own checks (CourtSpec ran its own when built);
    a failure raises ConfigError naming the section."""
    checks = {
        "data": cfg.data.validate,
        "synth": lambda: cfg.synth.validate(cfg.court),
        "labels": lambda: cfg.labels.validate(cfg.court),
        "arch": lambda: cfg.arch.validate(cfg.court),
        "train": cfg.train.validate,
        "rollout": cfg.rollout.validate,
        "render": cfg.render.validate,
        "run": cfg.run.validate,
        "paths": cfg.paths.validate,
    }
    for section, check in checks.items():
        try:
            check()
        except (ValueError, HoopnetError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc


def load_run_config(
    text: str | None = None, overrides: list[str] | None = None
) -> RunConfig:
    """Build a RunConfig from a document plus ``section.key=value`` overrides,
    then check every section; a bad value raises ConfigError.  Document and
    overrides (a later one wins) apply as one update, so a change of
    several court keys is checked only as a whole.  Each override is one
    line holding one ``section.key=value``; a comment, a blank or a
    second line is rejected."""
    entries = parse_document(text) if text is not None else {}
    for item in overrides or []:
        entry = parse_document(item) if "=" in item and len(item.splitlines()) == 1 else {}
        if len(entry) != 1:
            raise ConfigError(f"--set {item!r}: expected one section.key=value")
        entries.update(entry)
    cfg = _apply(entries)
    _validate(cfg)
    return cfg


def dump_run_config(cfg: RunConfig) -> str:
    """Full document with every key, suitable as a starting config file."""
    lines = []
    for section, cls in _SECTIONS.items():
        obj = getattr(cfg, section)
        for f in fields(cls):
            if f.name in _HIDDEN_FIELDS:
                continue
            value = getattr(obj, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{section}.{f.name} = {value}")
        lines.append("")
    return "\n".join(lines)
