"""Metric definitions, benchmark loading, and the end-to-end runner."""

import http.server
import json
import logging
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import fixtures
from carbonrag import (
    CarbonRagError,
    LexicalEncoder,
    RemoteChatBackend,
    RemoteEncoder,
    RunConfig,
    ScriptedMockBackend,
    evaluation,
    run_benchmark,
)
from carbonrag.accounting import Scope
from carbonrag.errors import BenchmarkError, FormatError, MockMissError
from carbonrag.evaluation import (
    AccountingDeviation,
    GroundTruthRecord,
    MetricsReport,
    compute_ad,
    compute_id,
    compute_irr,
    fact_deviation,
    load_benchmark,
)
from carbonrag.generation import ExtractedFact
from carbonrag.quantity import Quantity


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

    def test_fixture_object_is_a_fresh_copy(self):
        obj = fixtures.benchmark_obj()
        before = json.dumps(obj)
        obj["queries"][0]["fact_keys"].append("extra_key")
        obj["queries"][1]["query_text"] = "another question"
        assert json.dumps(fixtures.benchmark_obj()) == before

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
        for mutate, message in (
            (lambda o: o["truths"][0].update(true_value="13500"), "must be a number"),
            (lambda o: o["truths"][3].update(true_value=True), r"truths\[3\]\.true_value must be"),
            (lambda o: o["truths"][0].update(true_value=float("nan")), "non-finite number NaN"),
            (lambda o: o.update(true_footprint=float("inf")), "non-finite number Infinity"),
            (lambda o: o.update(true_footprint=10**400), "true_footprint must be a number"),
        ):
            with pytest.raises(BenchmarkError, match=message):
                load_benchmark(self._write(tmp_path, mutate))

    def test_mistyped_fields_name_their_path(self, tmp_path):
        for mutate, message in (
            (lambda o: o.update(functional_unit=5), "functional_unit must be a string, got 5"),
            (lambda o: o["truths"][1].update(unit=5), r"truths\[1\]\.unit must be a string, got 5"),
            (
                lambda o: o["datasources"][2].update(title=["x"]),
                r"datasources\[2\]\.title must be a string, got \['x'\]",
            ),
            (
                lambda o: o.update(queries=[{**o["queries"][0], "fact_keys": ["a", 1]}]),
                r"queries\[0\]\.fact_keys\[1\] must be a string, got 1",
            ),
            (lambda o: o.update(inventory_keys="electricity_use"), "inventory_keys must be a list"),
            (lambda o: o.update(factor_db=None), "factor_db must be a string, got None"),
            (lambda o: o["datasources"][0].pop("source"), r"datasources\[0\] is missing 'source'"),
            (
                lambda o: o["datasources"][1].update(source="ftp"),
                r"datasources\[1\]\.source: 'ftp' is not a valid SourceKind",
            ),
        ):
            with pytest.raises(BenchmarkError, match=message):
                load_benchmark(self._write(tmp_path, mutate))

    def test_unknown_keys_are_refused(self, tmp_path):
        """A misspelt optional key would otherwise be silently ignored: here
        every truth with a factor would be priced, or a truth keep its unit."""
        for mutate, where, keys in (
            (lambda o: o.update(inventory_key=["electricity_use"]), "", "inventory_key"),
            (lambda o: o["truths"][0].update(unit_="MWh"), "truths[0]: ", "unit_"),
            (lambda o: o["queries"][1].update(fact_key="x", id="q"), "queries[1]: ", "fact_key, id"),
            (lambda o: o["datasources"][2].update(industry="x"), "datasources[2]: ", "industry"),
        ):
            path = self._write(tmp_path, mutate)
            with pytest.raises(BenchmarkError) as err:
                load_benchmark(path)
            assert str(err.value) == f"benchmark {path}: {where}unknown keys: {keys}"
            assert err.value.stage_name == "benchmark"

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

    def test_unwritable_report_out_fails_before_any_question(self, benchmark_tree, tmp_path):
        backend = ScriptedMockBackend(fixtures.PERFECT_SCRIPT)
        out = tmp_path / "missing" / "report.json"
        with pytest.raises(FormatError, match=r"cannot write report .*missing/report\.json") as err:
            run_benchmark(_config(benchmark_tree, report_out=str(out)), backend=backend)
        assert err.value.stage == "save"
        assert backend.calls == []
        assert not (tmp_path / "missing").exists()

    def test_zero_true_footprint_fails_before_any_question(self, benchmark_tree):
        # AD divides by the true footprint, so the run could not be scored.
        obj = fixtures.benchmark_obj()
        obj["true_footprint"] = 0
        benchmark_tree.benchmark.write_text(json.dumps(obj), encoding="utf-8")
        backend = ScriptedMockBackend(fixtures.PERFECT_SCRIPT)
        with pytest.raises(BenchmarkError, match=r"benchmark\.json: true_footprint must not be zero"):
            run_benchmark(_config(benchmark_tree), backend=backend)
        assert backend.calls == []

    def test_explicit_encoder_is_used(self, benchmark_tree):
        backend = ScriptedMockBackend(fixtures.PERFECT_SCRIPT)
        report = run_benchmark(
            _config(benchmark_tree), backend=backend, encoder=LexicalEncoder(dims=32)
        )
        assert report.metadata["encoder_dims"] == 32
        assert report.irr_pct == 100.0

    def test_missing_benchmark_is_tagged_with_its_stage(self, tmp_path):
        config = RunConfig(benchmark_path=str(tmp_path / "missing.json"))
        with pytest.raises(BenchmarkError, match=r"cannot load benchmark .*missing\.json") as err:
            run_benchmark(config)
        assert err.value.stage_name == "benchmark"

    def test_mock_miss_is_tagged_generate(self, benchmark_tree):
        with pytest.raises(MockMissError) as err:
            run_benchmark(_config(benchmark_tree), backend=ScriptedMockBackend({}))
        assert err.value.stage == "generate"

    def test_bad_datasource_is_tagged_benchmark(self, tmp_path):
        obj = fixtures.benchmark_obj()
        bench = tmp_path / "benchmark.json"
        (tmp_path / "factors.csv").write_text(fixtures.FACTORS_CSV, encoding="utf-8")
        config = RunConfig(benchmark_path=str(bench))
        for datasource, message in (
            ({"source": "raw_text"}, r"datasources\[0\] is missing 'payload'"),
            ({"source": "ftp", "payload": "x"}, r"datasources\[0\]\.source: 'ftp' is not a valid"),
        ):
            obj["datasources"] = [datasource]
            bench.write_text(json.dumps(obj), encoding="utf-8")
            with pytest.raises(BenchmarkError, match=message) as err:
                run_benchmark(config, backend=ScriptedMockBackend({}))
            assert err.value.stage_name == "benchmark"


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
    def test_json_round_trip_preserves_everything(self, benchmark_tree, tmp_path):
        backend = ScriptedMockBackend(fixtures.VARIANT_SCRIPT)
        report = run_benchmark(_config(benchmark_tree), backend=backend)
        path = tmp_path / "report.json"
        report.write_json(path)
        round_tripped = MetricsReport.load(path)
        assert round_tripped.to_json_text() == report.to_json_text()
        assert round_tripped.id_pct == report.id_pct
        assert round_tripped.footprint.total == report.footprint.total

    def test_junk_object_is_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"hello": 1}), encoding="utf-8")
        with pytest.raises(FormatError, match=r"report .*report\.json is missing 'footprint'"):
            MetricsReport.load(path)

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


class _RemoteHandler(http.server.BaseHTTPRequestHandler):
    """Embedding and chat endpoints over HTTP/1.1 keep-alive.

    ``/embed`` records its ``input`` list and answers with lexical vectors.
    ``/chat`` looks the prompt's question up in ``server.answers``; an
    ``int`` there is sent as that status. It records each question as its
    request arrives, counts connections and the peak number of chat requests
    in flight, holds each question for its ``server.delays`` entry, and then
    until ``server.release`` is set if ``server.held(question)`` says so.
    """

    protocol_version = "HTTP/1.1"
    timeout = 5  # idle keep-alive connections end after the test

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        server = self.server
        if self.path == "/embed":
            with server.lock:
                server.embed_inputs.append(body["input"])
            vectors = LexicalEncoder(dims=64).embed_batch(body["input"])
            self._send(200, {"embeddings": vectors.tolist()})
            return
        rendered = body["messages"][0]["content"]
        question = re.search(r"^Question: (.*)$", rendered, re.MULTILINE).group(1)
        with server.lock:
            server.chat_log.append(question)
            server.in_flight += 1
            server.peak = max(server.peak, server.in_flight)
        try:
            time.sleep(server.delays.get(question, 0.0))
            if server.held(question):
                server.release.wait(timeout=10)
            answer = server.answers[question]
        finally:
            with server.lock:
                server.in_flight -= 1
        if isinstance(answer, int):
            self._send(answer, {"error": "refused"})
        else:
            self._send(200, {"choices": [{"message": {"content": answer}}]})

    def _send(self, status, obj):
        data = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def _concurrent_benchmark(root):
    """The fixture benchmark with ten questions whose answers produce
    duplicate-key, missing-fact and unexpected-key warnings; earlier
    questions are held longer, so answers arrive out of file order."""
    obj = fixtures.benchmark_obj()
    script = dict(fixtures.VARIANT_SCRIPT)
    queries = list(fixtures.QUERIES)
    fact = fixtures._fact
    extra = {
        "q_gas_again": (["natural_gas_use"], [fact("natural_gas_use", 1, "kWh", [1])]),
        "q_fluoride": (["fluoride_consumption"], [fact("fluoride_consumption", 21, "kg", [1])] * 2),
        "q_power": (["electricity_use", "power_factor"], [fact("bath_ratio", 2, "ratio", [1])]),
        "q_distance": (["transport_distance"], [fact("transport_distance", 510, "km", [2])]),
        "q_temp": (["smelting_temperature"], []),
        "q_anode": (["anode_consumption"], [fact("anode_consumption", 0.4, "t", [1])]),
        "q_alumina": (["alumina_consumption"], [fact("alumina_consumption", 2, "t", [1])]),
    }
    for qid, (keys, facts) in extra.items():
        text = f"Report {qid} for the smelter."
        queries.append({"query_id": qid, "query_text": text, "fact_keys": keys})
        script[qid] = fixtures._answer(facts)
    obj["queries"] = queries
    tree = fixtures.write_benchmark_tree(root)
    tree.benchmark.write_text(json.dumps(obj), encoding="utf-8")
    answers = {q["query_text"]: script[q["query_id"]] for q in queries}
    delays = {q["query_text"]: 0.004 * (len(queries) - i) for i, q in enumerate(queries)}
    return RunConfig(benchmark_path=str(tree.benchmark), prompt_budget=2500), answers, delays


class TestConcurrentRemoteRun:
    """``run_benchmark`` over the remote encoder and chat backend answers up
    to ``max_in_flight`` questions at once over kept-alive connections."""

    @pytest.fixture()
    def remote(self, http_server, tmp_path, monkeypatch, fast_retries, aluminum_catalog):
        config, answers, delays = _concurrent_benchmark(tmp_path)
        questions = list(answers)
        fast_retries(1)

        def run(max_in_flight, failures=None):
            """One run on a fresh server; returns it with the report or error.

            ``failures`` maps question indexes to answers. The last of them is
            answered at once, so it fails first. From its arrival on, and for
            every question after it in file order, the other questions are
            held until the pool has cancelled its queue: no worker can free
            itself to start another question in the meantime, whatever the
            thread timing.
            """
            failures = failures or {}
            last = max(failures, default=None)
            first = None if last is None else questions[last]
            server = http_server(_RemoteHandler)
            server.lock = threading.Lock()
            server.connections = server.in_flight = server.peak = 0
            server.chat_log, server.embed_inputs = [], []
            server.answers = {**answers, **{questions[i]: a for i, a in failures.items()}}
            server.delays = {q: 0.0 if q == first else d for q, d in delays.items()}
            release = server.release = threading.Event()

            def held(question):
                if first is None or question == first:
                    return False
                with server.lock:
                    return questions.index(question) > last or first in server.chat_log

            server.held = held

            class CancelThenRelease(ThreadPoolExecutor):
                def shutdown(self, wait=True, *, cancel_futures=False):
                    super().shutdown(wait=False, cancel_futures=cancel_futures)
                    release.set()
                    super().shutdown(wait=wait)

            monkeypatch.setattr(evaluation, "ThreadPoolExecutor", CancelThenRelease)
            url = f"http://127.0.0.1:{server.server_address[1]}"
            monkeypatch.setattr(RemoteChatBackend, "max_in_flight", max_in_flight)
            backend = RemoteChatBackend(url + "/chat")
            encoder = RemoteEncoder(url + "/embed", dims=64)
            try:
                report = run_benchmark(config, encoder=encoder, backend=backend)
            except CarbonRagError as exc:
                return server, exc
            return server, report

        run.questions = questions
        chunks = aluminum_catalog.chunk_all(config.chunk_size, config.overlap)
        run.chunk_texts = [c.text for c in chunks]
        return run

    @staticmethod
    def _text(report):
        obj = report.to_json_obj()
        obj.pop("generated_at")
        return json.dumps(obj, indent=2, sort_keys=True)

    def test_report_equals_the_serial_run(self, remote):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            serial_server, serial = remote(1)
            server, report = remote(4)
        finally:
            sys.setswitchinterval(previous)
        assert self._text(report) == self._text(serial)
        warnings = "\n".join(report.warnings)
        for expected in (
            "already extracted",
            "duplicate_key",
            "missing_fact",
            "unexpected_key",
            "dropped fragment",
        ):
            assert expected in warnings
        assert serial_server.peak == 1
        assert 1 < server.peak <= 4
        # one request: the chunks, then the questions in file order
        expected = [remote.chunk_texts + remote.questions]
        assert server.embed_inputs == serial_server.embed_inputs == expected
        requests_sent = len(server.embed_inputs) + len(server.chat_log)
        assert server.connections < requests_sent
        assert serial_server.connections < requests_sent

    @pytest.mark.parametrize(
        "failures, stage",
        [
            ({4: 401}, "generate"),
            ({4: "no facts here"}, "parse"),
            # both start at once and the later one fails first; the earlier
            # one is still the one reported
            ({1: 503, 3: "no facts here"}, "generate"),
        ],
    )
    def test_first_failure_in_file_order_is_reported(self, remote, failures, stage):
        _, serial = remote(1, failures)
        server, error = remote(4, failures)
        assert isinstance(serial, CarbonRagError) and isinstance(error, CarbonRagError)
        assert (error.stage, str(error)) == (serial.stage, str(serial))
        assert error.stage == stage
        # once a question has failed, at most the other workers' questions follow
        failed_first = server.chat_log.index(remote.questions[max(failures)])
        assert len(server.chat_log) - failed_first - 1 <= 4
        assert len(server.chat_log) < len(remote.questions)
