"""Declarative pipeline configuration.

One JSON file describes sources, input paths, thresholds, and the output
directory; CLI flags may override the year window, roles, seed, worker
count, and output directory. Paths are resolved relative to the config
file so a fixture directory is self-contained.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields, replace

from .classify import (
    DEFAULT_ALLOWLIST,
    DEFAULT_CC_LICENSE_PATTERN,
    DEFAULT_JOURNAL_ARTICLE_CLASSES,
    DEFAULT_USER_LICENSE_PATTERN,
    DOC_MODE_ALLOWLIST,
    DOC_MODE_HEURISTIC,
)
from .errors import ConfigError
from .model import ROLES


@dataclass(frozen=True)
class SourceConfig:
    """One metadata provider: its article file and identifier scheme."""

    label: str
    articles: str
    scheme: str
    open_baseline: bool = False
    doc_class_mode: str = DOC_MODE_ALLOWLIST
    doc_class_allowlist: tuple[str, ...] = DEFAULT_ALLOWLIST
    journal_article_classes: tuple[str, ...] = DEFAULT_JOURNAL_ARTICLE_CLASSES
    lenient_oa: bool = False


@dataclass(frozen=True)
class PipelineConfig:
    sources: tuple[SourceConfig, ...]
    agreement_dump: str
    durations: str
    issn_links: str
    institutions: str
    fully_oa_lists: tuple[str, ...] = ()
    publisher_aliases: str | None = None
    paratext_patterns: str | None = None
    cc_license_pattern: str = DEFAULT_CC_LICENSE_PATTERN
    user_license_pattern: str = DEFAULT_USER_LICENSE_PATTERN
    license_grace_days: int = 31
    years: tuple[int, int] = (2019, 2023)
    roles: tuple[str, ...] = ROLES
    min_support: int = 1
    correlation_min_articles: int = 10000
    correlation_min_ta_oa: int = 1000
    audit_sample_size: int = 50
    seed: int = 42
    workers: int | None = None
    out_dir: str = "out"

    @property
    def open_source(self) -> str:
        for source in self.sources:
            if source.open_baseline:
                return source.label
        raise ConfigError("no source is marked open_baseline")

    def canonical_json(self) -> str:
        payload = asdict(self)
        # workers and out_dir are execution details: they must not change
        # artifact bytes, so they stay out of the digest. So do input paths:
        # the manifests hash the inputs themselves.
        del payload["workers"], payload["out_dir"]
        for name in _INPUT_FIELDS:
            del payload[name]
        for source in payload["sources"]:
            del source["articles"]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def validate(self) -> None:
        """Check structural consistency and that referenced inputs exist."""
        if not self.sources:
            raise ConfigError("at least one source required")
        labels = [s.label for s in self.sources]
        for label in labels:
            # a label is part of file names in every stage's directory
            if type(label) is not str or label in ("", ".", "..") or any(
                c and c in label for c in (os.sep, os.altsep, "\0")
            ):
                raise ConfigError(f"source label {label!r} must be a plain file-name part")
        if len(set(labels)) != len(labels):
            raise ConfigError("source labels must be unique")
        if sum(1 for s in self.sources if s.open_baseline) != 1:
            raise ConfigError("exactly one source must be the open baseline")
        if len(self.years) != 2 or any(type(year) is not int for year in self.years):
            raise ConfigError(f"years must be two integers, first and last, got {self.years!r}")
        if self.years[0] > self.years[1]:
            raise ConfigError(f"empty year window {self.years}")
        if self.workers is not None and (type(self.workers) is not int or self.workers < 1):
            raise ConfigError(f"workers must be a positive integer or null, got {self.workers!r}")
        if self.audit_sample_size < 0:
            raise ConfigError(
                f"audit_sample_size must not be negative, got {self.audit_sample_size!r}"
            )
        if not self.roles:
            raise ConfigError("roles must name at least one role")
        for role in self.roles:
            if role not in ROLES:
                raise ConfigError(f"unknown role {role!r}")
        if len(set(self.roles)) != len(self.roles):
            raise ConfigError(f"roles must not repeat a role, got {list(self.roles)!r}")
        for source in self.sources:
            if source.doc_class_mode not in (DOC_MODE_ALLOWLIST, DOC_MODE_HEURISTIC):
                raise ConfigError(f"unknown doc_class_mode {source.doc_class_mode!r}")
        paths = [self.agreement_dump, self.durations, self.issn_links, self.institutions]
        paths.extend(self.fully_oa_lists)
        paths.extend(s.articles for s in self.sources)
        if self.publisher_aliases:
            paths.append(self.publisher_aliases)
        if self.paratext_patterns:
            paths.append(self.paratext_patterns)
        for path in paths:
            if not os.path.exists(path):
                raise ConfigError(f"input path does not exist: {path}")


def _resolve(base: str, path: str | None) -> str | None:
    if path is None:
        return None
    return path if os.path.isabs(path) else os.path.normpath(os.path.join(base, path))


# Fields naming one input file, resolved against the config file's directory.
_PATH_FIELDS = frozenset(
    {"articles", "agreement_dump", "durations", "issn_links", "institutions",
     "publisher_aliases", "paratext_patterns"}
)
# PipelineConfig fields naming inputs.
_INPUT_FIELDS = (_PATH_FIELDS - {"articles"}) | {"fully_oa_lists"}


_JSON_TYPES = {bool: "boolean", int: "integer", str: "string"}


def _from_raw(cls, raw: dict, base: str):
    """`cls` from the file's keys; a missing key keeps the dataclass default.

    Paths resolve against `base`. A field whose default is a bool or an int
    takes only a JSON value of exactly that type (an int field no boolean),
    and a tuple field only a list of elements typed like the default's;
    anything else raises ConfigError. Unknown keys are ignored.
    """
    values = {}
    for f in fields(cls):
        if f.name not in raw:
            continue
        value = raw[f.name]
        if f.name in _PATH_FIELDS:
            value = _resolve(base, value)
        elif f.name == "fully_oa_lists":
            value = tuple(_resolve(base, p) for p in value)
        elif isinstance(f.default, tuple):
            kind = type(f.default[0])
            if type(value) is not list or any(type(v) is not kind for v in value):
                raise ConfigError(
                    f"config key {f.name!r} must be a list of JSON {_JSON_TYPES[kind]}s,"
                    f" got {value!r}"
                )
            value = tuple(value)
        elif isinstance(f.default, (bool, int)) and type(value) is not type(f.default):
            raise ConfigError(
                f"config key {f.name!r} must be a JSON {_JSON_TYPES[type(f.default)]},"
                f" got {value!r}"
            )
        values[f.name] = value
    return cls(**values)


def load_config(path: str) -> PipelineConfig:
    """Read a config file, resolving relative paths against its directory."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    base = os.path.dirname(os.path.abspath(path))
    try:
        sources = tuple(_from_raw(SourceConfig, s, base) for s in raw["sources"])
        config = _from_raw(PipelineConfig, {**raw, "sources": sources}, base)
        # out_dir resolves like an input path, its default included
        return replace(config, out_dir=_resolve(base, config.out_dir))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc


def apply_overrides(
    config: PipelineConfig,
    years: str | None = None,
    role: str | None = None,
    seed: int | None = None,
    workers: int | None = None,
    out_dir: str | None = None,
) -> PipelineConfig:
    """Apply CLI flag overrides on top of the loaded config."""
    updates = {}
    if years:
        try:
            lo, hi = years.split(":")
            updates["years"] = (int(lo), int(hi))
        except ValueError as exc:
            raise ConfigError(f"bad --years value {years!r}, expected LO:HI") from exc
    if role:
        updates["roles"] = (role,)
    if seed is not None:
        updates["seed"] = seed
    if workers is not None:
        updates["workers"] = workers
    if out_dir is not None:
        updates["out_dir"] = out_dir
    return replace(config, **updates) if updates else config
