"""Run configuration: one JSON file describing a full pipeline run.

Flags override file values, file values override defaults. Every
benchmark report embeds the effective configuration, less the fields that
are unset, so ``bench --config`` on that object reruns the same benchmark.
The prompt template is not a setting: a report records the version it was
rendered with.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Collection, Mapping

from ._json import read_json
from .corpus import DEFAULT_CHUNK_SIZE, DEFAULT_LENGTH_THRESHOLD, DEFAULT_OVERLAP
from .embedding import encoder_from_spec
from .errors import ConfigError
from .fusion import DEFAULT_PROMPT_BUDGET
from .generation import backend_from_spec
from .index import DEFAULT_K


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
        if self.k <= 0:
            raise ConfigError(f"k must be positive, got {self.k}")
        if self.chunk_size <= self.overlap:
            raise ConfigError(
                f"chunk_size ({self.chunk_size}) must exceed overlap ({self.overlap})"
            )
        if self.prompt_budget <= 0:
            raise ConfigError(f"prompt_budget must be positive, got {self.prompt_budget}")

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_file(
        cls, path: str | Path, *, reader: str | None = None, reads: Collection[str] = ()
    ) -> "RunConfig":
        """The config in file ``path``. When ``reader`` names the command
        that reads it, a key outside ``reads`` is an error rather than
        silently ignored."""
        root = read_json(path, "config", ConfigError).only_keys(cls.field_names())
        unread = sorted(set(root.value) - set(reads)) if reader else []
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

    def require(self, field_name: str, *, must_exist: bool = False) -> str:
        value = getattr(self, field_name)
        if not value:
            raise ConfigError(f"config is missing {field_name}")
        if must_exist and not Path(value).exists():
            raise ConfigError(f"{field_name} {value!r} does not exist")
        return value

    def build_encoder(self):
        return encoder_from_spec(self.encoder)

    def build_backend(self):
        return backend_from_spec(self.require("backend"), model=self.model)
