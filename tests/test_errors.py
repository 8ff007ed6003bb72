"""Error hierarchy and stage reporting."""

import pytest

from carbonrag import CarbonRagError
from carbonrag.errors import (
    AccountingError,
    BenchmarkError,
    ConfigError,
    EncodingError,
    ExtractionError,
    FetchError,
    FormatError,
    InputError,
    MockMissError,
    TransportError,
    UnitError,
)

_DEFAULT_STAGES = {
    InputError: "input",
    ConfigError: "config",
    EncodingError: "ingest",
    FetchError: "ingest",
    FormatError: "load",
    TransportError: "generation",
    MockMissError: "generation",
    ExtractionError: "parse",
    UnitError: "accounting",
    AccountingError: "accounting",
    BenchmarkError: "benchmark",
}


class TestHierarchy:
    def test_every_error_shares_one_base(self):
        for cls in _DEFAULT_STAGES:
            assert issubclass(cls, CarbonRagError)

    def test_one_except_clause_catches_them_all(self):
        with pytest.raises(CarbonRagError):
            raise UnitError("no such unit")


class TestStages:
    def test_default_stage_per_type(self):
        for cls, stage in _DEFAULT_STAGES.items():
            err = cls("boom")
            assert err.stage is None
            assert err.stage_name == stage

    def test_explicit_stage_overrides_the_default(self):
        err = FormatError("boom", stage="benchmark")
        assert err.stage == "benchmark"
        assert err.stage_name == "benchmark"

    def test_stage_can_be_assigned_after_raising(self):
        err = FormatError("boom")
        err.stage = "index"
        assert err.stage_name == "index"


class TestPayloads:
    def test_transport_error_counts_attempts(self):
        assert TransportError("down", attempts=3).attempts == 3
        assert TransportError("down").attempts == 1

    def test_extraction_error_keeps_the_raw_answer(self):
        assert ExtractionError("no block", raw_text="free text").raw_text == "free text"

    def test_accounting_error_lists_missing_activities(self):
        err = AccountingError("missing", missing_activities=["a", "b"])
        assert err.missing_activities == ["a", "b"]
        assert AccountingError("missing").missing_activities == []

    def test_message_is_the_str_form(self):
        assert str(InputError("cannot embed empty text")) == "cannot embed empty text"
