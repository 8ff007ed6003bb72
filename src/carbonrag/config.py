"""Run configuration: one JSON file describing a full pipeline run.

Flags override file values, file values override defaults. Every
benchmark report embeds the effective configuration, less the fields that
are unset, so ``bench --config`` on that object reruns the same benchmark.
The prompt template is not a setting: a report records the version it was
rendered with. Every setting is checked when a config is made, from a file
or from flags, so a bad one fails before any datasource is read.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Collection, Mapping

from ._json import read_json
from .corpus import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_LENGTH_THRESHOLD,
    DEFAULT_OVERLAP,
    check_chunking,
)
from .errors import ConfigError

DEFAULT_K = 5  # fragments retrieved per query
DEFAULT_PROMPT_BUDGET = 12000  # characters of a rendered prompt


@dataclass(frozen=True)
class RunConfig:
    catalog_path: str | None = None
    index_path: str | None = None
    benchmark_path: str | None = None
    report_out: str | None = None
    encoder: str = "lexical"
    k: int = DEFAULT_K
    chunk_size: int = DEFAULT_CHUNK_SIZE
    overlap: int = DEFAULT_OVERLAP
    length_threshold: int = DEFAULT_LENGTH_THRESHOLD
    backend: str | None = None
    model: str = "default"
    prompt_budget: int = DEFAULT_PROMPT_BUDGET

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # Every field is a string or an int, and only None-default fields may be None.
            kind = str if f.default is None else type(f.default)
            if not (type(value) is kind or (value is None and f.default is None)):
                raise ConfigError(f"{f.name} must be {kind.__name__}, got {value!r}")
        for name in ("k", "length_threshold", "prompt_budget"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        check_chunking(self.chunk_size, self.overlap)

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_file(cls, path: str | Path, *, reader: str, reads: Collection[str]) -> "RunConfig":
        """The config in file ``path``, read by the command ``reader``: a key
        outside ``reads`` is an error rather than silently ignored."""
        root = read_json(path, "config", ConfigError).only_keys(cls.field_names())
        unread = sorted(set(root.value) - set(reads))
        if unread:
            root.fail(f"{reader} does not read {', '.join(unread)}")
        try:
            return cls(**root.value)
        except ConfigError as exc:
            root.fail(str(exc))

    def merged(self, overrides: Mapping[str, Any]) -> "RunConfig":
        """New config with non-None override values applied (flags win)."""
        return dataclasses.replace(self, **{k: v for k, v in overrides.items() if v is not None})

    def to_json_obj(self) -> dict:
        """The set fields; a field left None is omitted, as a config file omits it."""
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}

    def require(self, field_name: str) -> str:
        value = getattr(self, field_name)
        if not value:
            raise ConfigError(f"config is missing {field_name}")
        return value

    def build_encoder(self):
        from .embedding import encoder_from_spec  # loads numpy: only embedding needs it

        return encoder_from_spec(self.encoder)

    def build_backend(self):
        from .generation import backend_from_spec  # only query and bench need a backend

        return backend_from_spec(self.require("backend"), model=self.model)
