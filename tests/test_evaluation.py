"""Metric definitions, benchmark loading, and the end-to-end runner."""

import json
import logging

import pytest

import fixtures
from carbonrag import (
    AccountingDeviation,
    BenchmarkError,
    ConfigError,
    ExtractedFact,
    FormatError,
    GroundTruthRecord,
    LexicalEncoder,
    MetricsReport,
    MockMissError,
    Quantity,
    RunConfig,
    ScriptedMockBackend,
    Scope,
    compute_ad,
    compute_id,
    compute_irr,
    fact_deviation,
    load_benchmark,
    run_benchmark,
)


def _fact(key, value, unit="kWh"):
    q = value if isinstance(value, Quantity) else Quantity.point(value)
    return ExtractedFact(fact_key=key, value=q, unit=unit)


def _truth(key, value, unit="kWh"):
    return GroundTruthRecord(fact_key=key, true_value=value, unit=unit)


class TestRetrievalRate:
    def test_partial_retrieval_hand_check(self):
        truth = [f"fact_{i}" for i in range(56)]
        retrieved = truth[:47]
        irr = compute_irr(retrieved, truth)
        assert irr == 100.0 * 47 / 56
        assert round(irr, 2) == 83.93

    def test_full_and_empty_retrieval(self):
        truth = ["a", "b", "c"]
        assert compute_irr(truth, truth) == 100.0
        assert compute_irr([], truth) == 0.0

    def test_extra_keys_cannot_inflate_the_score(self):
        assert compute_irr(["a", "x", "y", "z"], ["a", "b"]) == 50.0

    def test_duplicates_count_once(self):
        assert compute_irr(["a", "a", "a"], ["a", "b"]) == 50.0

    def test_empty_truth_is_an_error(self):
        with pytest.raises(BenchmarkError):
            compute_irr(["a"], [])


class TestFactDeviation:
    def test_point_deviation(self):
        assert fact_deviation(_fact("k", 110.0), _truth("k", 100.0)) == 10.0

    def test_range_pays_its_worse_boundary(self):
        fact = _fact("k", Quantity.range(90.0, 130.0))
        assert fact_deviation(fact, _truth("k", 100.0)) == 30.0

    def test_bracketing_range_still_pays_for_width(self):
        fact = _fact("k", Quantity.range(95.0, 105.0))
        assert fact_deviation(fact, _truth("k", 100.0)) == 5.0

    def test_exact_match_is_zero(self):
        assert fact_deviation(_fact("k", 600.0), _truth("k", 600.0)) == 0.0

    def test_units_convert_before_comparing(self):
        fact = _fact("k", 13.5, unit="MWh")
        assert fact_deviation(fact, _truth("k", 13500.0, unit="kWh")) == 0.0

    def test_ten_percent_high_reading(self):
        assert fact_deviation(_fact("k", 660.0), _truth("k", 600.0)) == 10.0

    def test_zero_truth_is_an_error(self):
        with pytest.raises(BenchmarkError):
            fact_deviation(_fact("k", 1.0), _truth("k", 0.0))


class TestInformationDeviation:
    def test_mean_over_matched_facts(self):
        facts = [_fact("a", 110.0), _fact("b", 105.0)]
        truths = [_truth("a", 100.0), _truth("b", 100.0)]
        assert compute_id(facts, truths) == 7.5

    def test_order_does_not_matter(self):
        facts = [_fact("a", 110.0), _fact("b", 105.0)]
        truths = [_truth("b", 100.0), _truth("a", 100.0)]
        assert compute_id(list(reversed(facts)), truths) == 7.5

    def test_unmatched_facts_are_ignored(self):
        facts = [_fact("a", 110.0), _fact("stray", 9000.0)]
        assert compute_id(facts, [_truth("a", 100.0)]) == 10.0

    def test_no_matches_is_none_not_zero(self):
        assert compute_id([_fact("stray", 1.0)], [_truth("a", 100.0)]) is None
        assert compute_id([], [_truth("a", 100.0)]) is None

    def test_zero_truths_are_excluded_with_a_warning(self, caplog):
        facts = [_fact("a", 110.0), _fact("z", 5.0)]
        truths = [_truth("a", 100.0), _truth("z", 0.0)]
        with caplog.at_level(logging.WARNING, logger="carbonrag.evaluation"):
            assert compute_id(facts, truths) == 10.0
        assert any("zero" in m for m in caplog.messages)


class TestAccountingDeviation:
    def test_point_total(self):
        ad = compute_ad(102.35, 100.0)
        assert ad.at_lower_pct == pytest.approx(2.35, abs=1e-12)
        assert ad.at_upper_pct == ad.at_lower_pct
        assert ad.ad_pct == ad.at_lower_pct

    def test_range_total_keeps_both_signs(self):
        ad = compute_ad(Quantity.range(95.0, 110.0), 100.0)
        assert ad.at_lower_pct == -5.0
        assert ad.at_upper_pct == 10.0
        assert ad.ad_pct == 10.0

    def test_undershoot_magnitude_wins_when_larger(self):
        ad = compute_ad(Quantity.range(80.0, 110.0), 100.0)
        assert ad.ad_pct == 20.0

    def test_zero_truth_is_an_error(self):
        with pytest.raises(BenchmarkError):
            compute_ad(50.0, 0.0)


class TestLoadBenchmark:
    def test_loads_the_fixture_tree(self, benchmark_tree):
        bench = load_benchmark(benchmark_tree.benchmark)
        assert bench.industry == fixtures.INDUSTRY
        assert len(bench.datasources) == 3
        assert [q.query_id for q in bench.queries] == ["q_energy", "q_materials", "q_process"]
        assert len(bench.truths) == 10
        assert bench.true_footprint == fixtures.TRUE_FOOTPRINT
        assert bench.scope is Scope.CRADLE_TO_GATE
        assert bench.factor_db_path == benchmark_tree.root / "factors.csv"
        assert bench.base_dir == benchmark_tree.root

    def _write(self, tmp_path, mutate):
        obj = fixtures.benchmark_obj()
        mutate(obj)
        path = tmp_path / "benchmark.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return path

    def test_missing_required_field(self, tmp_path):
        path = self._write(tmp_path, lambda o: o.pop("industry"))
        with pytest.raises(BenchmarkError, match="industry"):
            load_benchmark(path)

    def test_empty_queries_rejected(self, tmp_path):
        path = self._write(tmp_path, lambda o: o.update(queries=[]))
        with pytest.raises(BenchmarkError, match="queries"):
            load_benchmark(path)

    def test_duplicate_query_id_rejected(self, tmp_path):
        path = self._write(tmp_path, lambda o: o.update(queries=o["queries"] + [o["queries"][0]]))
        with pytest.raises(BenchmarkError, match="duplicate query_id"):
            load_benchmark(path)

    def test_duplicate_truth_key_rejected(self, tmp_path):
        path = self._write(tmp_path, lambda o: o.update(truths=o["truths"] + [o["truths"][0]]))
        with pytest.raises(BenchmarkError, match="duplicate truth"):
            load_benchmark(path)

    def test_non_numeric_truth_rejected(self, tmp_path):
        def mutate(o):
            o["truths"][0]["true_value"] = "13500"

        with pytest.raises(BenchmarkError, match="must be a number"):
            load_benchmark(self._write(tmp_path, mutate))

    def test_unknown_scope_rejected(self, tmp_path):
        path = self._write(tmp_path, lambda o: o.update(scope="gate_to_gate"))
        with pytest.raises(BenchmarkError, match="scope"):
            load_benchmark(path)

    def test_unknown_lifecycle_stage_rejected(self, tmp_path):
        for stages in ({"electricity_use": "cradle"}, []):
            path = self._write(tmp_path, lambda o: o.update(lifecycle_stages=stages))
            with pytest.raises(BenchmarkError, match="lifecycle"):
                load_benchmark(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "benchmark.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(BenchmarkError):
            load_benchmark(path)


def _config(tree, **kw):
    return RunConfig(benchmark_path=str(tree.benchmark), **kw)


def _run_perfect(tree, **kw):
    backend = ScriptedMockBackend(fixtures.PERFECT_SCRIPT)
    return run_benchmark(_config(tree, **kw), backend=backend)


class TestRunBenchmark:
    def test_perfect_mock_scores_perfectly(self, benchmark_tree):
        report = _run_perfect(benchmark_tree)
        assert report.irr_pct == 100.0
        assert report.id_pct == 0.0
        assert report.ad == AccountingDeviation(0.0, 0.0, 0.0)
        assert report.footprint.total == Quantity.point(fixtures.TRUE_FOOTPRINT)
        assert report.retrieved_count == 10
        assert report.truth_count == 10
        assert report.warnings == ()

    def test_perfect_run_metadata(self, benchmark_tree):
        report = _run_perfect(benchmark_tree)
        assert report.metadata["strategy"] == "rag_long"
        assert report.metadata["document_count"] == 3
        assert report.metadata["chunk_count"] >= 30
        assert report.metadata["encoder_kind"] == "lexical_baseline"
        assert report.metadata["backend_kind"] == "scripted_mock"
        assert report.metadata["template_version"] == "cfa-rag-prompt/1"

    def test_variant_mock_scores_match_hand_computation(self, benchmark_tree):
        backend = ScriptedMockBackend(fixtures.VARIANT_SCRIPT)
        report = run_benchmark(_config(benchmark_tree), backend=backend)
        assert report.irr_pct == 90.0
        assert report.id_pct == 10.0 / 9.0
        assert report.ad.ad_pct == 100.0 * 15.0 / fixtures.TRUE_FOOTPRINT
        assert report.ad.at_lower_pct == report.ad.ad_pct
        assert report.footprint.total == Quantity.point(fixtures.VARIANT_TOTAL)
        assert any("fluoride_consumption" in w for w in report.warnings)

    def test_per_fact_records_are_sorted_and_complete(self, benchmark_tree):
        backend = ScriptedMockBackend(fixtures.VARIANT_SCRIPT)
        report = run_benchmark(_config(benchmark_tree), backend=backend)
        keys = [r.fact_key for r in report.per_fact]
        assert keys == sorted(fixtures.TRUTHS)
        by_key = {r.fact_key: r for r in report.per_fact}
        assert by_key["fluoride_consumption"].retrieved is False
        assert by_key["fluoride_consumption"].deviation_pct is None
        assert by_key["natural_gas_use"].deviation_pct == 10.0
        assert by_key["electricity_use"].extracted_unit == "MWh"

    def test_runs_are_deterministic_modulo_timestamp(self, benchmark_tree):
        a = _run_perfect(benchmark_tree).to_json_obj()
        b = _run_perfect(benchmark_tree).to_json_obj()
        a.pop("generated_at")
        b.pop("generated_at")
        assert a == b

    def test_report_out_is_written_and_loads_back(self, benchmark_tree, tmp_path):
        out = tmp_path / "report.json"
        config = _config(
            benchmark_tree,
            backend=f"mock:{benchmark_tree.mock_perfect}",
            report_out=str(out),
        )
        report = run_benchmark(config)
        assert out.is_file()
        assert MetricsReport.load(out).to_json_obj() == report.to_json_obj()

    def test_explicit_encoder_is_used(self, benchmark_tree):
        backend = ScriptedMockBackend(fixtures.PERFECT_SCRIPT)
        report = run_benchmark(
            _config(benchmark_tree), backend=backend, encoder=LexicalEncoder(dims=32)
        )
        assert report.metadata["encoder_dims"] == 32
        assert report.irr_pct == 100.0

    def test_missing_benchmark_is_tagged_with_its_stage(self, tmp_path):
        config = RunConfig(benchmark_path=str(tmp_path / "missing.json"))
        with pytest.raises(ConfigError) as err:
            run_benchmark(config)
        assert err.value.stage == "benchmark"
        assert err.value.stage_name == "benchmark"

    def test_mock_miss_is_tagged_generate(self, benchmark_tree):
        with pytest.raises(MockMissError) as err:
            run_benchmark(_config(benchmark_tree), backend=ScriptedMockBackend({}))
        assert err.value.stage == "generate"

    def test_bad_datasource_is_tagged_ingest(self, tmp_path):
        obj = fixtures.benchmark_obj()
        obj["datasources"] = [{"source": "raw_text"}]
        bench = tmp_path / "benchmark.json"
        bench.write_text(json.dumps(obj), encoding="utf-8")
        (tmp_path / "factors.csv").write_text(fixtures.FACTORS_CSV, encoding="utf-8")
        config = RunConfig(benchmark_path=str(bench))
        with pytest.raises(BenchmarkError) as err:
            run_benchmark(config, backend=ScriptedMockBackend({}))
        assert err.value.stage == "ingest"


def _mock_answer(facts):
    return "```json\n" + json.dumps({"facts": facts}) + "\n```"


def _write_mini(root, obj, script):
    (root / "factors.csv").write_text(
        "activity,factor_kgco2e,canonical_unit,source_note\n"
        "electricity_use,0.5,kWh,grid\n"
        "water_use,0.25,L,municipal\n",
        encoding="utf-8",
    )
    obj.setdefault("factor_db", "factors.csv")
    bench = root / "benchmark.json"
    bench.write_text(json.dumps(obj), encoding="utf-8")
    return RunConfig(benchmark_path=str(bench)), ScriptedMockBackend(script)


class TestRunBenchmarkStrategies:
    def test_short_datasource_skips_retrieval(self, tmp_path):
        (tmp_path / "site.txt").write_text(
            "Site summary: electricity use was 100 kWh per unit produced.",
            encoding="utf-8",
        )
        obj = {
            "industry": "widgets",
            "datasources": [{"source": "local_file", "payload": "site.txt"}],
            "queries": [
                {"query_id": "q1", "query_text": "Electricity?", "fact_keys": ["electricity_use"]}
            ],
            "truths": [{"fact_key": "electricity_use", "true_value": 100.0, "unit": "kWh"}],
            "true_footprint": 50.0,
        }
        script = {
            "q1": _mock_answer([{"key": "electricity_use", "value": 100, "unit": "kWh"}])
        }
        config, backend = _write_mini(tmp_path, obj, script)
        report = run_benchmark(config, backend=backend)
        assert report.metadata["strategy"] == "short_direct"
        assert report.irr_pct == 100.0
        assert report.footprint.total == Quantity.point(50.0)
        assert report.ad.ad_pct == 0.0

    def test_no_datasource_asks_directly(self, tmp_path):
        obj = {
            "industry": "widgets",
            "datasources": [],
            "queries": [
                {"query_id": "q1", "query_text": "Electricity?", "fact_keys": ["electricity_use"]}
            ],
            "truths": [{"fact_key": "electricity_use", "true_value": 100.0, "unit": "kWh"}],
            "true_footprint": 50.0,
        }
        script = {
            "q1": _mock_answer([{"key": "electricity_use", "value": 110, "unit": "kWh"}])
        }
        config, backend = _write_mini(tmp_path, obj, script)
        report = run_benchmark(config, backend=backend)
        assert report.metadata["strategy"] == "no_datasource"
        assert report.metadata["chunk_count"] == 0
        assert report.id_pct == 10.0
        assert report.footprint.total == Quantity.point(55.0)

    def test_unretrieved_inventory_activity_is_skipped_with_a_warning(self, tmp_path):
        obj = {
            "industry": "widgets",
            "datasources": [],
            "queries": [
                {"query_id": "q1", "query_text": "Electricity?", "fact_keys": ["electricity_use"]}
            ],
            "truths": [
                {"fact_key": "electricity_use", "true_value": 100.0, "unit": "kWh"},
                {"fact_key": "water_use", "true_value": 4.0, "unit": "L"},
            ],
            "true_footprint": 51.0,
        }
        script = {
            "q1": _mock_answer([{"key": "electricity_use", "value": 100, "unit": "kWh"}])
        }
        config, backend = _write_mini(tmp_path, obj, script)
        report = run_benchmark(config, backend=backend)
        assert any("water_use" in w and "not retrieved" in w for w in report.warnings)
        assert report.footprint.total == Quantity.point(50.0)
        assert report.irr_pct == 50.0

    def test_results_do_not_leak_facts_across_queries(self, tmp_path):
        # Both queries yield electricity_use; the first extraction wins.
        obj = {
            "industry": "widgets",
            "datasources": [],
            "queries": [
                {"query_id": "q1", "query_text": "Electricity?", "fact_keys": ["electricity_use"]},
                {"query_id": "q2", "query_text": "Again?", "fact_keys": ["electricity_use"]},
            ],
            "truths": [{"fact_key": "electricity_use", "true_value": 100.0, "unit": "kWh"}],
            "true_footprint": 50.0,
        }
        script = {
            "q1": _mock_answer([{"key": "electricity_use", "value": 100, "unit": "kWh"}]),
            "q2": _mock_answer([{"key": "electricity_use", "value": 999, "unit": "kWh"}]),
        }
        config, backend = _write_mini(tmp_path, obj, script)
        report = run_benchmark(config, backend=backend)
        assert report.footprint.total == Quantity.point(50.0)
        assert any("already extracted" in w for w in report.warnings)


class TestMetricsReport:
    def test_json_round_trip_preserves_everything(self, benchmark_tree):
        backend = ScriptedMockBackend(fixtures.VARIANT_SCRIPT)
        report = run_benchmark(_config(benchmark_tree), backend=backend)
        round_tripped = MetricsReport.from_json_obj(report.to_json_obj())
        assert round_tripped.to_json_text() == report.to_json_text()
        assert round_tripped.id_pct == report.id_pct
        assert round_tripped.footprint.total == report.footprint.total

    def test_junk_object_is_rejected(self):
        with pytest.raises(FormatError, match="not a metrics report"):
            MetricsReport.from_json_obj({"hello": 1})

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(FormatError):
            MetricsReport.load(path)

    def test_per_fact_csv_has_one_row_per_truth(self, benchmark_tree, tmp_path):
        report = _run_perfect(benchmark_tree)
        path = tmp_path / "per_fact.csv"
        report.write_per_fact_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("fact_key,retrieved,deviation_pct")
        assert len(lines) == 1 + 10
        assert any(line.startswith("electricity_use,true,0.0") for line in lines)

    def test_summary_text_for_a_perfect_run(self, benchmark_tree):
        text = _run_perfect(benchmark_tree).summary_text()
        assert "IRR: 100.00% (10/10 truth facts retrieved)" in text
        assert "ID: 0.00% over matched facts" in text
        assert "AD: 0.00% (at lower +0.00%, at upper +0.00%)" in text
        assert "10802.5" in text
        assert "Warnings" not in text

    def test_summary_text_for_a_degraded_run(self, benchmark_tree):
        backend = ScriptedMockBackend(fixtures.VARIANT_SCRIPT)
        report = run_benchmark(_config(benchmark_tree), backend=backend)
        text = report.summary_text()
        assert "IRR: 90.00% (9/10 truth facts retrieved)" in text
        assert "ID: 1.11% over matched facts" in text
        assert "AD: 0.14% (at lower +0.14%, at upper +0.14%)" in text
        assert "Warnings: 1" in text

    def test_summary_reports_an_undefined_id_as_absent(self, tmp_path):
        obj = {
            "industry": "widgets",
            "datasources": [],
            "queries": [
                {"query_id": "q1", "query_text": "Electricity?", "fact_keys": ["electricity_use"]}
            ],
            "truths": [{"fact_key": "electricity_use", "true_value": 100.0, "unit": "kWh"}],
            "true_footprint": 50.0,
        }
        script = {"q1": _mock_answer([{"key": "other_metric", "value": 1, "unit": "kg"}])}
        config, backend = _write_mini(tmp_path, obj, script)
        report = run_benchmark(config, backend=backend)
        assert report.id_pct is None
        assert "ID: n/a" in report.summary_text()
