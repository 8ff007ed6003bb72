"""Exception hierarchy shared by every pipeline stage.

Each error carries the stage it belongs to so callers (in particular the
CLI and the benchmark runner) can report failures as ``[stage] message``
without inspecting the exception type.
"""

from __future__ import annotations


class CarbonRagError(Exception):
    """Base class for all errors raised by this package."""

    default_stage = "pipeline"

    def __init__(self, message: str, *, stage: str | None = None):
        super().__init__(message)
        self.stage = stage

    @property
    def stage_name(self) -> str:
        """The pipeline stage to report, falling back to the type's default."""
        return self.stage or self.default_stage


class InputError(CarbonRagError):
    """A caller-supplied value violates an operation precondition."""

    default_stage = "input"


class ConfigError(CarbonRagError):
    """Invalid configuration (chunk sizes, training setup, run config)."""

    default_stage = "config"


class EncodingError(CarbonRagError):
    """Payload bytes could not be decoded as UTF-8 text."""

    default_stage = "ingest"


class FetchError(CarbonRagError):
    """A URL datasource could not be fetched; the catalog is untouched."""

    default_stage = "ingest"


class FormatError(CarbonRagError):
    """A persisted file or wire payload does not match its schema."""

    default_stage = "load"


class TransportError(CarbonRagError):
    """A remote endpoint failed, at once (4xx) or after every retry."""

    default_stage = "generation"

    def __init__(self, message: str, *, attempts: int = 1, stage: str | None = None):
        super().__init__(message, stage=stage)
        self.attempts = attempts


class MockMissError(CarbonRagError):
    """The scripted mock has no entry for a query."""

    default_stage = "generation"


class ExtractionError(CarbonRagError):
    """No structured answer block could be parsed from a raw answer."""

    default_stage = "parse"

    def __init__(self, message: str, *, raw_text: str = ""):
        super().__init__(message)
        self.raw_text = raw_text


class UnitError(CarbonRagError):
    """Unknown unit or dimensionally incompatible conversion."""

    default_stage = "accounting"


class AccountingError(CarbonRagError):
    """Footprint computation aborted; no partial total is produced."""

    default_stage = "accounting"

    def __init__(self, message: str, *, missing_activities: list[str] | None = None):
        super().__init__(message)
        self.missing_activities = list(missing_activities or [])


class BenchmarkError(CarbonRagError):
    """The benchmark definition itself is unusable (empty truth set, ...)."""

    default_stage = "benchmark"
