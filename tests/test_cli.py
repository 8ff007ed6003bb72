"""Subcommand behavior: outputs, exit codes, and error reporting."""

import http.server
import io
import json
import logging
import os
import re

import numpy as np
import pytest

import fixtures
from carbonrag import Catalog, RemoteEncoder, RunConfig, VectorIndex
from carbonrag.cli import main
from carbonrag.embedding import DualTowerEncoder, load_encoder
from carbonrag.errors import ConfigError
from carbonrag.evaluation import MetricsReport

_QUESTION = "How much electricity does the smelter use?"
_QUERY_ANSWER = (
    "```json\n"
    + json.dumps(
        {"facts": [{"key": "electricity_use", "value": 13500, "unit": "kWh", "sources": [1]}]}
    )
    + "\n```"
)


@pytest.fixture()
def pipeline_files(tmp_path, aluminum_catalog):
    """Catalog, index, and mock script files for query-style commands."""
    catalog = tmp_path / "catalog.json"
    aluminum_catalog.save(catalog)
    index = tmp_path / "index.json"
    assert main(["index", "build", "--catalog", str(catalog), "--out", str(index)]) == 0
    script = tmp_path / "script.json"
    script.write_text(json.dumps({_QUESTION: _QUERY_ANSWER}), encoding="utf-8")
    return {"catalog": catalog, "index": index, "script": script}


class TestIngest:
    def test_raw_text_payload_creates_a_catalog(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.json"
        code = main(
            [
                "ingest",
                "Electricity use was 100 kWh per unit.",
                "--source",
                "raw_text",
                "--catalog",
                str(catalog),
                "--doc-id",
                "site-a",
                "--title",
                "Site A",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ingested site-a" in out
        assert "1 documents" in out
        umask = os.umask(0)
        os.umask(umask)
        assert catalog.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_local_files_extend_an_existing_catalog(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.json"
        main(["ingest", "first body", "--source", "raw_text", "--catalog", str(catalog)])
        doc = tmp_path / "site.txt"
        doc.write_text("second body from a file", encoding="utf-8")
        code = main(["ingest", str(doc), "--catalog", str(catalog)])
        assert code == 0
        assert "2 documents" in capsys.readouterr().out

    def test_doc_id_with_many_payloads_is_refused(self, tmp_path, capsys):
        code = main(
            [
                "ingest",
                "one",
                "two",
                "--source",
                "raw_text",
                "--catalog",
                str(tmp_path / "c.json"),
                "--doc-id",
                "only-one",
            ]
        )
        assert code == 1
        assert "[config]" in capsys.readouterr().err

    def test_empty_flags_are_kept_as_given(self, tmp_path, capsys):
        """An empty ``--doc-id`` is refused as an id, not replaced by a made-up
        one; an empty title or tag is stored as given, not as the default."""
        catalog = tmp_path / "c.catalog"
        doc = tmp_path / "a.txt"
        doc.write_text("body", encoding="utf-8")
        argv = ["ingest", "--catalog", str(catalog)]
        assert main([*argv, "--doc-id", "", str(doc)]) == 1
        assert capsys.readouterr().err.startswith("[input] doc_id '' must match ")
        assert main([*argv, "--doc-id", "", str(doc), str(doc)]) == 1
        assert capsys.readouterr().err.startswith("[config] --doc-id only applies")
        assert not catalog.exists()
        assert main([*argv, "--title", "", "--industry-tag", "", str(doc)]) == 0
        (stored,) = Catalog.load(catalog).documents
        assert (stored.title, stored.industry_tag) == ("", "")

    def test_missing_file_reports_the_ingest_stage(self, tmp_path, capsys):
        code = main(
            ["ingest", str(tmp_path / "absent.txt"), "--catalog", str(tmp_path / "c.json")]
        )
        assert code == 1
        assert "[ingest]" in capsys.readouterr().err

    @pytest.mark.parametrize("doc_id", [[], ["--doc-id", "d9"]], ids=["default id", "given id"])
    def test_non_utf8_argument_reports_the_ingest_stage(self, tmp_path, capsys, doc_id):
        """A non-UTF-8 argv byte reaches Python as a lone surrogate ('\\xff' as
        '\\udcff'); it cannot be hashed or saved, so nothing is ingested, even
        when the id is given and the body need not be hashed."""
        catalog = tmp_path / "catalog.json"
        main(["ingest", "first body", "--source", "raw_text", "--catalog", str(catalog)])
        before = catalog.read_bytes()
        capsys.readouterr()
        argv = ["ingest", "--source", "raw_text", "--catalog", str(catalog), *doc_id, "more \udcff"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("[ingest] raw_text payload is not valid UTF-8 text: "), err
        assert "Traceback" not in err and err.count("\n") == 1
        assert catalog.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["catalog.json"]

    def test_a_bad_byte_after_crlf_lines_is_named_at_its_offset_in_the_file(
        self, tmp_path, capsys
    ):
        """A file is checked as read, before CRLF becomes LF, so the error
        names the bad byte's offset in the file."""
        catalog = tmp_path / "catalog.json"
        main(["ingest", "first body", "--source", "raw_text", "--catalog", str(catalog)])
        before = catalog.read_bytes()
        capsys.readouterr()
        doc = tmp_path / "crlf.txt"
        data = b"one\r\ntwo\r\nthree\r\n\xff"
        doc.write_bytes(data)
        assert main(["ingest", "--catalog", str(catalog), str(doc)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"[ingest] {doc} is not valid UTF-8 text: "), err
        assert f"in position {len(data) - 1}: " in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert out == ""
        assert catalog.read_bytes() == before

    @pytest.mark.parametrize("source", ["raw_text title", "local_file name"])
    def test_non_utf8_title_is_refused_before_anything_is_ingested(self, tmp_path, capsys, source):
        """A title from ``--title`` or a file's name can hold a lone surrogate
        too; it ends in [ingest], not in a failed save after 'ingested'."""
        catalog = tmp_path / "catalog.json"
        main(["ingest", "first body", "--source", "raw_text", "--catalog", str(catalog)])
        before = catalog.read_bytes()
        capsys.readouterr()
        if source == "raw_text title":
            argv = ["--source", "raw_text", "--title", "t\udcff", "more"]
        else:
            doc = tmp_path / "t\udcff.txt"  # the file name's bytes are b"t\xff.txt"
            doc.write_text("more", encoding="utf-8")
            argv = [str(doc)]
        assert main(["ingest", "--catalog", str(catalog), *argv]) == 1
        out, err = capsys.readouterr()
        kind = source.split()[0]
        assert err.startswith(f"[ingest] {kind} title is not valid UTF-8 text: "), err
        assert "Traceback" not in err and err.count("\n") == 1
        assert out == ""
        assert catalog.read_bytes() == before

    def test_catalog_with_a_lone_surrogate_reports_the_load_stage(self, tmp_path, capsys):
        """A JSON-escaped lone surrogate is refused where the catalog is read,
        before anything could fail to print or save it."""
        catalog = tmp_path / "catalog.json"
        record = {"doc_id": "a", "title": "t\ud800", "source": "raw_text", "industry_tag": None,
                  "fetched_at": "2024", "bytes": 1}
        header = {"format": "carbonrag-catalog", "version": 2, "documents": [record]}
        catalog.write_bytes(json.dumps(header).encode() + b"\nx")
        before = catalog.read_bytes()
        argv = ["ingest", "--source", "raw_text", "--catalog", str(catalog), "more"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            f"[load] catalog {catalog}: header holds a lone surrogate '\\ud800', which is not text\n"
        )
        assert catalog.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["catalog.json"]


class TestIndexBuild:
    def test_builds_a_loadable_index(self, tmp_path, aluminum_catalog, capsys):
        catalog = tmp_path / "catalog.json"
        aluminum_catalog.save(catalog)
        out = tmp_path / "index.json"
        code = main(["index", "build", "--catalog", str(catalog), "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "lexical_baseline" in stdout
        index = VectorIndex.load(out)
        assert len(index) >= 30

    def test_chunking_flags_are_honored(self, tmp_path, aluminum_catalog):
        catalog = tmp_path / "catalog.json"
        aluminum_catalog.save(catalog)
        small = tmp_path / "small.json"
        large = tmp_path / "large.json"
        main(["index", "build", "--catalog", str(catalog), "--out", str(small)])
        main(
            [
                "index",
                "build",
                "--catalog",
                str(catalog),
                "--out",
                str(large),
                "--chunk-size",
                "2000",
                "--overlap",
                "100",
            ]
        )
        assert len(VectorIndex.load(large)) < len(VectorIndex.load(small))

    def test_bad_chunking_fails_before_the_catalog_is_read(self, tmp_path, capsys):
        catalog, out = tmp_path / "catalog.json", tmp_path / "corpus.index"
        catalog.write_text("[]", encoding="utf-8")
        for flags in (["--chunk-size", "5", "--overlap", "10"], ["--overlap", "-1"]):
            for path in (catalog, tmp_path / "missing.json"):
                argv = ["index", "build", "--catalog", str(path), "--out", str(out), *flags]
                assert main(argv) == 1
                assert capsys.readouterr().err.startswith("[config] chunk_size must exceed")
                assert not out.exists()

    def test_a_lexical_width_past_the_kernel_is_a_config_error(self, tmp_path, capsys):
        catalog, out = tmp_path / "catalog.json", tmp_path / "corpus.index"
        Catalog().save(catalog)
        argv = ["index", "build", "--catalog", str(catalog), "--out", str(out)]
        assert main([*argv, "--encoder", "lexical:99999999999999999999"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[config] dims must be at most ") and err.endswith(
            ", got 99999999999999999999\n"
        ), err
        assert not out.exists()

    def test_whitespace_only_chunks_are_left_out(self, tmp_path, capsys):
        # A run of 2,500 spaces holds two whole 1,000-character chunks; they
        # have nothing to embed, and the lexical encoder refuses them.
        body = fixtures.CORPUS_DOCS[0][2]
        padded = tmp_path / "padded.txt"
        padded.write_text(body[:1500] + " " * 2500 + body[1500:], encoding="utf-8")
        for payload, source, kept in ((str(padded), "local_file", 12), ("   ", "raw_text", 0)):
            catalog, index = tmp_path / f"{source}.json", tmp_path / f"{source}.index"
            assert main(["ingest", "--source", source, "--catalog", str(catalog), payload]) == 0
            assert main(["index", "build", "--catalog", str(catalog), "--out", str(index)]) == 0
            assert f"indexed {kept} chunks from 1 documents" in capsys.readouterr().out
            assert len(VectorIndex.load(index)) == kept


class TestTrainEncoder:
    def test_trains_and_saves_a_tower(self, tmp_path, capsys):
        pairs = [
            {"text_a": "potline electricity", "text_b": "smelter power demand", "related": True},
            {"text_a": "anode carbon", "text_b": "prebaked anode usage", "related": True},
            {"text_a": "potline electricity", "text_b": "rail wagon cycle", "related": False},
            {"text_a": "anode carbon", "text_b": "port silo inventory", "related": False},
        ]
        pairs_path = tmp_path / "pairs.json"
        pairs_path.write_text(json.dumps(pairs), encoding="utf-8")
        out = tmp_path / "encoder.json"
        code = main(
            [
                "train-encoder",
                "--pairs",
                str(pairs_path),
                "--out",
                str(out),
            ]
        )
        stdout = capsys.readouterr().out
        assert code == 0
        assert "trained on 4 pairs" in stdout
        encoder = load_encoder(out)
        assert isinstance(encoder, DualTowerEncoder)
        assert encoder.dims == 64

    def test_malformed_pairs_file_reports_the_load_stage(self, tmp_path, capsys):
        bad = tmp_path / "pairs.json"
        pair = {"text_a": "potline", "text_b": "anode carbon", "related": True}
        for pairs, message in (
            ([{"text_a": "only half"}], "[0] is missing 'text_b'"),
            ([{**pair, "text_a": 5}], "[0].text_a must be a string, got 5"),
            # Ignored, a weight would train as if every pair counted once.
            ([{**pair, "weight": 3}], "[0]: unknown keys: weight"),
        ):
            bad.write_text(json.dumps(pairs), encoding="utf-8")
            code = main(["train-encoder", "--pairs", str(bad), "--out", str(tmp_path / "e.json")])
            assert code == 1
            assert capsys.readouterr().err == f"[load] training pairs {bad}: {message}\n"


class TestQuery:
    def test_one_shot_answers_with_ranked_hits_and_facts(self, pipeline_files, capsys):
        code = main(
            [
                "query",
                _QUESTION,
                "--catalog",
                str(pipeline_files["catalog"]),
                "--index",
                str(pipeline_files["index"]),
                "--backend",
                f"mock:{pipeline_files['script']}",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[1] " in out
        assert "electricity_use = 13500 kWh  (sources: 1)" in out

    def test_notes_warnings_and_an_answer_without_facts_are_printed(
        self, pipeline_files, tmp_path, capsys
    ):
        """A fragment dropped to fit the prompt budget is a note on stderr, an
        answer that yields no fact prints "no facts extracted", and each parse
        warning is a line on stderr."""
        script = tmp_path / "answers.json"
        unitless = {"facts": [{"key": "electricity_use", "value": 13500}]}
        for answer, warnings in (
            ({"facts": []}, []),
            (unitless, ["warning: missing_unit: key 'electricity_use' has no unit"]),
        ):
            script.write_text(json.dumps({_QUESTION: json.dumps(answer)}), encoding="utf-8")
            argv = ["query", _QUESTION, "--catalog", str(pipeline_files["catalog"])]
            argv += ["--index", str(pipeline_files["index"]), "--backend", f"mock:{script}"]
            assert main([*argv, "--prompt-budget", "2500"]) == 0
            captured = capsys.readouterr()
            assert captured.out.endswith("\nno facts extracted\n")
            lines = captured.err.splitlines()
            notes = [line for line in lines if line.startswith("note: ")]
            assert notes and lines == notes + warnings
            assert all(
                re.fullmatch(r"note: dropped fragment \S+ \(similarity [0-9.]+\) to fit budget 2500", n)
                for n in notes
            ), notes
            assert len(notes) < 5  # the budget keeps some of the k = 5 fragments

    def test_long_datasource_without_an_index_is_a_config_error(self, pipeline_files, capsys):
        code = main(
            [
                "query",
                _QUESTION,
                "--catalog",
                str(pipeline_files["catalog"]),
                "--backend",
                f"mock:{pipeline_files['script']}",
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "[config]" in err and "--index" in err

    def test_interactive_long_datasource_without_an_index_fails_before_reading(
        self, pipeline_files, capsys, monkeypatch
    ):
        stdin = io.StringIO(f"{_QUESTION}\n{_QUESTION}\n")
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(
            [
                "query",
                "--interactive",
                "--catalog",
                str(pipeline_files["catalog"]),
                "--backend",
                f"mock:{pipeline_files['script']}",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "[config] datasource is long: retrieval needs --index "
            "(build one with 'index build')\n"
        )
        assert captured.out == ""
        assert stdin.tell() == 0

    def test_an_index_on_a_route_that_does_not_retrieve_is_a_config_error(
        self, pipeline_files, tmp_path, capsys, monkeypatch
    ):
        """A short catalog inlines its documents, so its index would be loaded
        and ignored: refused before the index is read or a line is."""
        catalog, index = tmp_path / "short.json", tmp_path / "short.index"
        main(["ingest", "--source", "raw_text", "--catalog", str(catalog), "21 characters of text"])
        main(["index", "build", "--catalog", str(catalog), "--out", str(index)])
        capsys.readouterr()
        stdin = io.StringIO(f"{_QUESTION}\n")
        monkeypatch.setattr("sys.stdin", stdin)
        argv = ["query", "--catalog", str(catalog), "--backend", f"mock:{pipeline_files['script']}"]
        for given in (["--index", str(index)], ["--index", str(tmp_path / "absent.index")]):
            for question in ([_QUESTION], ["--interactive"]):
                assert main([*argv, *given, *question]) == 1
                captured = capsys.readouterr()
                assert captured.err == (
                    "[config] datasource routes to short_direct, which does not retrieve: "
                    "drop --index\n"
                )
                assert captured.out == ""
        assert stdin.tell() == 0

    def test_interactive_session_survives_per_question_errors(
        self, pipeline_files, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(f"{_QUESTION}\n\nWhat is not in the script?\n")
        )
        code = main(
            [
                "query",
                "--interactive",
                "--catalog",
                str(pipeline_files["catalog"]),
                "--index",
                str(pipeline_files["index"]),
                "--backend",
                f"mock:{pipeline_files['script']}",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "electricity_use = 13500 kWh" in captured.out
        assert "[generate]" in captured.err

    def test_json_index_reports_the_load_stage(self, pipeline_files, tmp_path, capsys):
        old = tmp_path / "old-index.json"
        old.write_text('{"dims": 2, "entries": []}\n', encoding="utf-8")
        # Version 1 stored the manifest in an .npz archive as a numpy unicode
        # string, and a tower only as a digest of its matrix.
        v1 = tmp_path / "v1-index.npz"
        manifest = {"format": "carbonrag-index", "version": 1, "ids": ["c:0"],
                    "encoder": {"kind": "lexical_baseline", "dims": 2, "seed": 0}}
        with open(v1, "wb") as fh:
            np.savez(fh, matrix=np.eye(1, 2), manifest=np.array(json.dumps(manifest)))
        for index, problem in (
            (old, f"index {old}: header does not declare {{'format': 'carbonrag-index', 'version': 3}}"),
            (v1, f"index {v1}: not a format-3 index (its first byte is not '{{')"),
        ):
            code = main(
                [
                    "query",
                    _QUESTION,
                    "--catalog",
                    str(pipeline_files["catalog"]),
                    "--index",
                    str(index),
                    "--backend",
                    f"mock:{pipeline_files['script']}",
                ]
            )
            assert code == 1
            assert capsys.readouterr().err == (
                f"[load] {problem}; rebuild it with 'carbonrag index build'\n"
            )

    def test_an_index_over_documents_the_catalog_lacks_ends_in_retrieve(
        self, pipeline_files, tmp_path, capsys
    ):
        """The same long bodies under other ids: the route retrieves, and
        no hit of the index resolves in this catalog."""
        other = Catalog()
        for doc_id, title, body in fixtures.CORPUS_DOCS:
            other.ingest("raw_text", body, {"doc_id": f"other-{doc_id}", "title": title})
        catalog = tmp_path / "other.catalog"
        other.save(catalog)
        argv = [
            "query", _QUESTION, "--catalog", str(catalog), "--index", str(pipeline_files["index"]),
            "--backend", f"mock:{pipeline_files['script']}",
        ]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert re.fullmatch(r"\[retrieve\] no document '[^']+' in catalog\n", err), err
        assert out == ""

    def test_question_or_interactive_is_required(self, pipeline_files, tmp_path, capsys):
        # A blank question is refused before the catalog, index or encoder is loaded.
        for question in ([], ["   "], [""]):
            code = main(
                [
                    "query",
                    *question,
                    "--catalog",
                    str(pipeline_files["catalog"]),
                    "--index",
                    str(tmp_path / "absent.index"),
                    "--backend",
                    f"mock:{pipeline_files['script']}",
                ]
            )
            assert code == 1
            assert capsys.readouterr().err == "[config] provide a question or use --interactive\n"

    def test_index_without_a_catalog_is_refused(self, pipeline_files, tmp_path, capsys):
        # Without the catalog the index's hits have no text, so the question
        # would go out with no fragment. Refused before the index is loaded.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"index_path": str(pipeline_files["index"])}), encoding="utf-8")
        for index in (
            ["--index", str(pipeline_files["index"])],
            ["--index", str(tmp_path / "absent.index")],
            ["--config", str(config)],
        ):
            code = main(["query", _QUESTION, *index, "--backend", f"mock:{pipeline_files['script']}"])
            captured = capsys.readouterr()
            assert code == 1, index
            assert captured.err == (
                "[config] --index needs --catalog, the catalog the index was built from\n"
            ), index
            assert captured.out == ""

    def test_question_with_interactive_is_refused(
        self, pipeline_files, tmp_path, capsys, monkeypatch
    ):
        # Refused before anything is loaded or read, rather than dropping the question.
        stdin = io.StringIO(f"{_QUESTION}\n")
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(
            [
                "query",
                _QUESTION,
                "--interactive",
                "--catalog",
                str(pipeline_files["catalog"]),
                "--index",
                str(tmp_path / "absent.index"),
                "--backend",
                f"mock:{pipeline_files['script']}",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "[config] give a question or use --interactive, not both\n"
        assert captured.out == ""
        assert stdin.tell() == 0


class TestAccount:
    def _write_inputs(self, tmp_path):
        facts = tmp_path / "facts.json"
        facts.write_text(
            json.dumps(
                {
                    "facts": [
                        {"key": "electricity_use", "value": 8, "unit": "kWh"},
                        {"key": "alumina_consumption", "value": 3.2, "unit": "kg"},
                    ]
                }
            ),
            encoding="utf-8",
        )
        factors = tmp_path / "factors.csv"
        factors.write_text(
            "activity,factor_kgco2e,canonical_unit,source_note\n"
            "electricity_use,0.5,kWh,grid\n"
            "alumina_consumption,2.0,kg,supplier\n",
            encoding="utf-8",
        )
        return facts, factors

    def test_prints_per_item_lines_and_the_total(self, tmp_path, capsys):
        facts, factors = self._write_inputs(tmp_path)
        code = main(["account", "--facts", str(facts), "--factors", str(factors)])
        out = capsys.readouterr().out
        assert code == 0
        assert "electricity_use: 4 kgCO2e" in out
        assert "alumina_consumption: 6.4 kgCO2e" in out
        assert "total: 10.4 kgCO2e per unit (cradle_to_gate)" in out

    def test_writes_json_and_csv_outputs(self, tmp_path, capsys):
        facts, factors = self._write_inputs(tmp_path)
        out_json = tmp_path / "footprint.json"
        out_csv = tmp_path / "footprint.csv"
        code = main(
            [
                "account",
                "--facts",
                str(facts),
                "--factors",
                str(factors),
                "--out",
                str(out_json),
                "--csv",
                str(out_csv),
            ]
        )
        assert code == 0
        obj = json.loads(out_json.read_text(encoding="utf-8"))
        assert obj["total_kgco2e"] == pytest.approx(10.4, rel=1e-12)
        assert out_csv.read_text(encoding="utf-8").startswith("activity,")

    def test_bare_fact_arrays_are_accepted(self, tmp_path, capsys):
        _, factors = self._write_inputs(tmp_path)
        facts = tmp_path / "bare.json"
        facts.write_text(
            json.dumps([{"activity": "electricity_use", "value": 2, "unit": "kWh"}]),
            encoding="utf-8",
        )
        code = main(["account", "--facts", str(facts), "--factors", str(factors)])
        assert code == 0
        assert "total: 1 kgCO2e" in capsys.readouterr().out

    def test_unknown_fact_keys_are_refused(self, tmp_path, capsys):
        _, factors = self._write_inputs(tmp_path)
        facts = tmp_path / "extracted.json"
        argv = ["account", "--facts", str(facts), "--factors", str(factors)]
        # Extraction output carries sources, so they are accepted.
        entry = {"key": "electricity_use", "value": 2, "unit": "kWh", "sources": [1]}
        facts.write_text(json.dumps([entry]), encoding="utf-8")
        assert main(argv) == 0
        assert "total: 1 kgCO2e" in capsys.readouterr().out
        # Ignored, a misspelt lifecycle_stage would price the item as raw_material.
        facts.write_text(json.dumps([{**entry, "lifecycle_stages": "use"}]), encoding="utf-8")
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"[load] facts {facts}: [0]: unknown keys: lifecycle_stages\n"
        )

    def test_unknown_keys_beside_facts_are_refused(self, tmp_path, capsys):
        _, factors = self._write_inputs(tmp_path)
        facts = tmp_path / "extracted.json"
        entry = {"key": "electricity_use", "value": 2, "unit": "kWh"}
        facts.write_text(json.dumps({"facts": [entry], "fcts": []}), encoding="utf-8")
        assert main(["account", "--facts", str(facts), "--factors", str(factors)]) == 1
        assert capsys.readouterr().err == f"[load] facts {facts}: unknown keys: fcts\n"

    def test_missing_factor_reports_the_accounting_stage(self, tmp_path, capsys):
        _, factors = self._write_inputs(tmp_path)
        facts = tmp_path / "unpriced.json"
        facts.write_text(
            json.dumps([{"key": "unpriced_activity", "value": 1, "unit": "kg"}]),
            encoding="utf-8",
        )
        code = main(["account", "--facts", str(facts), "--factors", str(factors)])
        err = capsys.readouterr().err
        assert code == 1
        assert "[accounting]" in err and "unpriced_activity" in err

    def test_overflow_and_nan_factor_report_their_stage(self, tmp_path, capsys):
        facts = tmp_path / "huge.json"
        facts.write_text(
            json.dumps([{"key": "electricity_use", "value": 1e308, "unit": "kWh"}]),
            encoding="utf-8",
        )
        factors = tmp_path / "factors.csv"
        factors.write_text(
            "activity,factor_kgco2e,canonical_unit,source_note\n"
            "electricity_use,10,kWh,grid\n",
            encoding="utf-8",
        )
        code = main(["account", "--facts", str(facts), "--factors", str(factors)])
        err = capsys.readouterr().err
        assert code == 1
        assert "[accounting]" in err and "electricity_use" in err
        factors.write_text(
            "activity,factor_kgco2e,canonical_unit,source_note\n"
            "electricity_use,nan,kWh,grid\n",
            encoding="utf-8",
        )
        code = main(["account", "--facts", str(facts), "--factors", str(factors)])
        err = capsys.readouterr().err
        assert code == 1
        assert "[load]" in err and ":2:" in err
        facts.write_text(
            json.dumps([{"key": "electricity_use", "value": 1, "unit": 5}]), encoding="utf-8"
        )
        code = main(["account", "--facts", str(facts), "--factors", str(factors)])
        err = capsys.readouterr().err
        assert code == 1
        assert "[load]" in err and "[0].unit must be a string, got 5" in err

    def test_a_negative_value_is_refused_when_the_facts_are_read(self, tmp_path, capsys):
        _, factors = self._write_inputs(tmp_path)
        facts = tmp_path / "negative.json"
        facts.write_text(
            json.dumps([{"key": "electricity_use", "value": -2, "unit": "kWh"}]), encoding="utf-8"
        )
        assert main(["account", "--facts", str(facts), "--factors", str(factors)]) == 1
        assert capsys.readouterr().err == (
            f"[load] facts {facts}: [0]: inventory quantity for 'electricity_use' "
            "must be nonnegative, got -2\n"
        )


class TestBenchAndReport:
    def test_bench_prints_the_summary_and_writes_outputs(self, benchmark_tree, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "per_fact.csv"
        code = main(
            [
                "bench",
                "--benchmark",
                str(benchmark_tree.benchmark),
                "--backend",
                f"mock:{benchmark_tree.mock_perfect}",
                "--out",
                str(report_path),
                "--csv",
                str(csv_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "IRR: 100.00% (10/10 truth facts retrieved)" in out
        assert "AD: 0.00%" in out
        assert report_path.is_file()
        assert csv_path.is_file()
        assert MetricsReport.load(report_path).irr_pct == 100.0

    def test_a_zero_truths_exclusion_is_printed_once(self, benchmark_tree, capsys, caplog):
        """In the summary's warnings, not also as a log line on stderr."""
        obj = fixtures.benchmark_obj()
        next(t for t in obj["truths"] if t["fact_key"] == "natural_gas_use")["true_value"] = 0.0
        benchmark_tree.benchmark.write_text(json.dumps(obj), encoding="utf-8")
        argv = ["bench", "--benchmark", str(benchmark_tree.benchmark)]
        with caplog.at_level(logging.WARNING):
            assert main([*argv, "--backend", f"mock:{benchmark_tree.mock_perfect}"]) == 0
        out, err = capsys.readouterr()
        assert "truth value is zero" not in err
        assert [m for m in caplog.messages if "truth value is zero" in m] == []
        warning = "excluding 'natural_gas_use' from the deviation mean: truth value is zero"
        assert out.count("truth value is zero") == 1
        assert f"  - {warning}\n" in out

    def test_whitespace_only_datasource_is_scored(self, benchmark_tree, tmp_path, capsys):
        # 5,000 spaces hold no chunk, so the questions go out with no datasource.
        obj = fixtures.benchmark_obj()
        obj["datasources"] = [{"source": "raw_text", "payload": " " * 5000}]
        benchmark_tree.benchmark.write_text(json.dumps(obj), encoding="utf-8")
        report = tmp_path / "report.json"
        code = main(
            [
                "bench",
                "--benchmark",
                str(benchmark_tree.benchmark),
                "--backend",
                f"mock:{benchmark_tree.mock_perfect}",
                "--out",
                str(report),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "IRR: 100.00% (10/10 truth facts retrieved)" in captured.out
        assert MetricsReport.load(report).metadata["strategy"] == "no_datasource"

    def test_a_negative_answer_ends_in_accounting(self, benchmark_tree, tmp_path, capsys):
        energy = fixtures.PERFECT_SCRIPT["q_energy"].replace('"value": 600', '"value": -600')
        script = {**fixtures.PERFECT_SCRIPT, "q_energy": energy}
        mock = tmp_path / "negative.json"
        mock.write_text(json.dumps(script), encoding="utf-8")
        argv = ["bench", "--benchmark", str(benchmark_tree.benchmark), "--backend", f"mock:{mock}"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err == (
            "[accounting] inventory quantity for 'natural_gas_use' must be nonnegative, got -600\n"
        )
        assert out == ""

    def test_a_model_needs_a_remote_backend(self, benchmark_tree, pipeline_files, tmp_path, capsys):
        """A model beside a mock would be accepted and then ignored."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "gpt-x"}), encoding="utf-8")
        bench = ["bench", "--benchmark", str(benchmark_tree.benchmark)]
        query = [
            "query", _QUESTION, "--catalog", str(pipeline_files["catalog"]),
            "--index", str(pipeline_files["index"]),
        ]
        for command, mock in (
            (bench, benchmark_tree.mock_perfect),
            (query, pipeline_files["script"]),
        ):
            for given in (["--model", "gpt-x"], ["--config", str(config)]):
                assert main([*command, "--backend", f"mock:{mock}", *given]) == 1
                out, err = capsys.readouterr()
                assert err == "[config] model 'gpt-x' needs a remote backend; a mock takes no model\n"
                assert out == ""

    def test_report_rerenders_a_saved_report(self, benchmark_tree, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        main(
            [
                "bench",
                "--benchmark",
                str(benchmark_tree.benchmark),
                "--backend",
                f"mock:{benchmark_tree.mock_variant}",
                "--out",
                str(report_path),
            ]
        )
        capsys.readouterr()
        code = main(["report", "--in", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "IRR: 90.00% (9/10 truth facts retrieved)" in out
        assert "Warnings: 1" in out

    def test_report_rejects_mistyped_fields(self, benchmark_tree, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        main(
            [
                "bench",
                "--benchmark",
                str(benchmark_tree.benchmark),
                "--backend",
                f"mock:{benchmark_tree.mock_variant}",
                "--out",
                str(report_path),
            ]
        )
        capsys.readouterr()
        saved = json.loads(report_path.read_text(encoding="utf-8"))
        csv_path = tmp_path / "per_fact.csv"
        for message, edit in (
            (": irr_pct must be", lambda o: o.update(irr_pct="abc")),
            (": id_pct must be", lambda o: o.update(id_pct=True)),
            (": ad.ad_pct must be", lambda o: o["ad"].update(ad_pct=None)),
            (": retrieved_count must be", lambda o: o.update(retrieved_count=9.0)),
            (": truth_count must be", lambda o: o.update(truth_count="10")),
            (": true_footprint must be", lambda o: o.update(true_footprint=[1])),
            (
                ": per_fact[0].deviation_pct must be",
                lambda o: o["per_fact"][0].update(deviation_pct="zz"),
            ),
            (": per_fact[1].retrieved must be", lambda o: o["per_fact"][1].update(retrieved=1)),
            (
                ": per_fact[2].true_value must be",
                lambda o: o["per_fact"][2].update(true_value=None),
            ),
            (" is not JSON: non-finite number NaN", lambda o: o.update(irr_pct=float("nan"))),
            (": warnings must be a list, got 'abc'", lambda o: o.update(warnings="abc")),
            (": industry must be a string, got 5", lambda o: o.update(industry=5)),
            (": per_fact[0].fact_key must be", lambda o: o["per_fact"][0].update(fact_key=5)),
            (": per_fact[1].true_unit must be", lambda o: o["per_fact"][1].update(true_unit=[])),
            (
                ": footprint.functional_unit must be",
                lambda o: o["footprint"].update(functional_unit=1),
            ),
            (
                ": footprint.per_item[0].activity must be",
                lambda o: o["footprint"]["per_item"][0].update(activity=None),
            ),
            (": metadata must be an object, got 'x'", lambda o: o.update(metadata="x")),
            (
                ": per_fact[0].extracted_value: cannot interpret '2 t' as a quantity",
                lambda o: o["per_fact"][0].update(extracted_value="2 t"),
            ),
            (
                ": per_fact[3].extracted_value: range object must have exactly lower/upper",
                lambda o: o["per_fact"][3].update(extracted_value={"lower": 1}),
            ),
        ):
            obj = json.loads(json.dumps(saved))
            edit(obj)
            report_path.write_text(json.dumps(obj), encoding="utf-8")
            code = main(["report", "--in", str(report_path), "--csv", str(csv_path)])
            err = capsys.readouterr().err
            assert code == 1, message
            assert err.startswith(f"[load] report {report_path}{message}"), err
            assert not csv_path.exists()
        # null is a valid id_pct and deviation_pct, a range a valid extracted_value
        saved["id_pct"] = saved["per_fact"][0]["deviation_pct"] = None
        saved["per_fact"][0]["extracted_value"] = {"lower": 1.5, "upper": 2.5}
        report_path.write_text(json.dumps(saved), encoding="utf-8")
        assert main(["report", "--in", str(report_path), "--csv", str(csv_path)]) == 0
        assert "ID: n/a" in capsys.readouterr().out
        row = csv_path.read_text(encoding="utf-8").splitlines()[1]
        assert row == 'alumina_consumption,true,,2.0,t,"{""lower"": 1.5, ""upper"": 2.5}",t'

    def test_report_refuses_unknown_keys(self, benchmark_tree, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        argv = ["bench", "--benchmark", str(benchmark_tree.benchmark)]
        main([*argv, "--backend", f"mock:{benchmark_tree.mock_variant}", "--out", str(report_path)])
        capsys.readouterr()
        saved = json.loads(report_path.read_text(encoding="utf-8"))
        for where, edit in (
            ("", lambda o: o.update(irr=100.0)),
            ("ad: ", lambda o: o["ad"].update(ad=0.0)),
            ("footprint: ", lambda o: o["footprint"].update(extra=1)),
            ("footprint.per_item[0]: ", lambda o: o["footprint"]["per_item"][0].update(stage="use")),
            ("per_fact[0]: ", lambda o: o["per_fact"][0].update(retreived=True)),
        ):
            obj = json.loads(json.dumps(saved))
            edit(obj)
            report_path.write_text(json.dumps(obj), encoding="utf-8")
            assert main(["report", "--in", str(report_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"[load] report {report_path}: {where}unknown keys: "), err
        # Every field that bench --out writes must be there.
        for where, field in (
            ("", "warnings"),
            ("", "metadata"),
            ("", "generated_at"),
            (": per_fact[0]", "extracted_value"),
            (": per_fact[0]", "extracted_unit"),
        ):
            obj = json.loads(json.dumps(saved))
            del (obj["per_fact"][0] if where else obj)[field]
            report_path.write_text(json.dumps(obj), encoding="utf-8")
            assert main(["report", "--in", str(report_path)]) == 1
            err = capsys.readouterr().err
            assert err == f"[load] report {report_path}{where} is missing {field!r}\n", err
        # metadata is free-form.
        saved["metadata"]["note"] = "kept"
        report_path.write_text(json.dumps(saved), encoding="utf-8")
        assert main(["report", "--in", str(report_path)]) == 0
        assert MetricsReport.load(report_path).metadata["note"] == "kept"

    def test_flags_override_the_config_file(self, benchmark_tree, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "benchmark_path": str(benchmark_tree.benchmark),
                    "backend": f"mock:{benchmark_tree.mock_perfect}",
                    "k": 3,
                }
            ),
            encoding="utf-8",
        )
        report_path = tmp_path / "report.json"
        code = main(
            ["bench", "--config", str(config_path), "--k", "7", "--out", str(report_path)]
        )
        assert code == 0
        report = MetricsReport.load(report_path)
        assert report.metadata["config"]["k"] == 7

    def test_a_reports_config_reruns_the_same_benchmark(self, benchmark_tree, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        argv = [
            "bench",
            "--benchmark",
            str(benchmark_tree.benchmark),
            "--backend",
            f"mock:{benchmark_tree.mock_variant}",
            "--k",
            "4",
            "--out",
            str(report_path),
        ]
        assert main(argv) == 0
        first = json.loads(report_path.read_text(encoding="utf-8"))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(first["metadata"]["config"]), encoding="utf-8")
        capsys.readouterr()
        code = main(["bench", "--config", str(config_path)])
        assert (code, capsys.readouterr().err) == (0, "")
        second = json.loads(report_path.read_text(encoding="utf-8"))
        first.pop("generated_at")
        second.pop("generated_at")
        assert second == first

    def test_config_file_refuses_template_version(self, benchmark_tree, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"template_version": "cfa-rag-prompt/1"}), encoding="utf-8")
        code = main(["bench", "--config", str(config_path), "--benchmark", str(benchmark_tree.benchmark)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"[config] config {config_path}: unknown keys: template_version\n"
        )

    def test_config_file_rejects_factor_db_path(self, benchmark_tree, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "benchmark_path": str(benchmark_tree.benchmark),
                    "factor_db_path": str(benchmark_tree.factors),
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="unknown keys: factor_db_path"):
            RunConfig.from_file(config_path, reader="bench", reads=RunConfig.field_names())
        bench = ["bench", "--benchmark", str(benchmark_tree.benchmark)]
        query = ["query", "What is the electricity use?"]
        for command, bad, message in (
            (bench, {"encoder": 5}, "encoder must be str, got 5"),
            (bench, {"k": 2.5}, "k must be int, got 2.5"),
            (bench, {"k": 0}, "k must be positive, got 0"),
            # keys the command has no flag for would be silently ignored
            (query, {"chunk_size": 500, "overlap": 100}, "query does not read chunk_size, overlap"),
            (query, {"report_out": "r.json", "benchmark_path": "b.json"}, "query does not read benchmark_path, report_out"),
            (bench, {"index_path": "/nonexistent/i.index"}, "bench does not read index_path"),
            (bench, {"catalog_path": "c.json", "k": 3}, "bench does not read catalog_path"),
            # query embeds with the encoder its index was built with
            (query, {"encoder": "lexical"}, "query does not read encoder"),
        ):
            config_path.write_text(json.dumps(bad), encoding="utf-8")
            backend = ["--backend", f"mock:{benchmark_tree.mock_perfect}"]
            code = main([*command, "--config", str(config_path), *backend])
            assert code == 1
            assert capsys.readouterr().err == f"[config] config {config_path}: {message}\n"

    def test_bad_settings_fail_before_any_datasource_is_fetched(self, benchmark_tree, capsys):
        obj = fixtures.benchmark_obj()
        obj["datasources"] = [{"source": "url_fetch", "payload": "http://127.0.0.1:1/doc.txt"}]
        benchmark = benchmark_tree.root / "url.json"
        benchmark.write_text(json.dumps(obj), encoding="utf-8")
        mock = f"mock:{benchmark_tree.mock_perfect}"
        bench = ["bench", "--benchmark", str(benchmark), "--backend", mock]
        for flags, message in (
            (["--overlap", "-1"], "chunk_size must exceed overlap >= 0"),
            (["--length-threshold", "0"], "length_threshold must be positive, got 0"),
        ):
            assert main([*bench, *flags]) == 1
            assert capsys.readouterr().err.startswith(f"[config] {message}")
        for fields in ({"overlap": -1}, {"length_threshold": -5}):
            with pytest.raises(ConfigError):
                RunConfig(**fields)

    @pytest.mark.parametrize("blank", ["", " \t\n"], ids=["empty", "whitespace"])
    def test_blank_question_is_refused_when_the_benchmark_is_read(
        self, benchmark_tree, tmp_path, capsys, blank
    ):
        """A blank question is refused before any encoder or backend call,
        so no paid embedding request goes out for a run that cannot finish."""
        obj = fixtures.benchmark_obj()
        obj["queries"][1]["query_text"] = blank
        benchmark_tree.benchmark.write_text(json.dumps(obj), encoding="utf-8")
        code = main(
            [
                "bench",
                "--benchmark",
                str(benchmark_tree.benchmark),
                "--backend",
                f"mock:{benchmark_tree.mock_perfect}",
            ]
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert err == (
            f"[benchmark] benchmark {benchmark_tree.benchmark}: "
            "queries[1].query_text must not be blank\n"
        )
        assert out == ""

    def test_missing_benchmark_reports_its_stage(self, tmp_path, capsys):
        code = main(["bench", "--benchmark", str(tmp_path / "absent.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert "[benchmark]" in err


class _BadEmbeddingReply(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = b'{"embeddings": "nope"}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


# Commands that succeed on the fixture. A row below appends the flag it
# breaks; given twice, a flag takes its last value.
_QUERY = [
    "query", _QUESTION, "--catalog", "{catalog}", "--index", "{index}",
    "--backend", "mock:{script}",
]
_BENCH = ["bench", "--benchmark", "{benchmark}", "--backend", "mock:{mock}"]


class TestOneStagePerFailure:
    """A failure reports the same stage whichever command meets it."""

    def test_a_bad_embedding_reply_ends_in_embedding(
        self, pipeline_files, benchmark_tree, http_server, tmp_path, capsys
    ):
        server = http_server(_BadEmbeddingReply)
        url = f"http://127.0.0.1:{server.server_address[1]}/embed"
        # query embeds the question with the encoder the index was built with
        index = tmp_path / "remote.index"
        VectorIndex(["c:0"], np.eye(1, 64), encoder=RemoteEncoder(url)).save(index)
        catalog = str(pipeline_files["catalog"])
        for argv in (
            ["index", "build", "--catalog", catalog, "--out", str(tmp_path / "i.index"),
             "--encoder", f"remote:{url}"],
            ["query", _QUESTION, "--catalog", catalog, "--index", str(index),
             "--backend", f"mock:{pipeline_files['script']}"],
            ["bench", "--benchmark", str(benchmark_tree.benchmark),
             "--backend", f"mock:{benchmark_tree.mock_perfect}", "--encoder", f"remote:{url}"],
        ):
            assert main(argv) == 1, argv
            assert capsys.readouterr().err == (
                f"[embedding] embedding endpoint {url} reply: "
                "embeddings must be a list, got 'nope'\n"
            ), argv

    def test_a_missing_emission_factor_ends_in_accounting(self, benchmark_tree, tmp_path, capsys):
        # fluoride_consumption is extracted but has no factor
        obj = fixtures.benchmark_obj()
        obj["inventory_keys"] = ["electricity_use", "fluoride_consumption"]
        benchmark_tree.benchmark.write_text(json.dumps(obj), encoding="utf-8")
        facts = tmp_path / "facts.json"
        facts.write_text(
            json.dumps([{"key": "fluoride_consumption", "value": 20, "unit": "kg"}]),
            encoding="utf-8",
        )
        for argv in (
            ["account", "--facts", str(facts), "--factors", str(benchmark_tree.factors)],
            ["bench", "--benchmark", str(benchmark_tree.benchmark),
             "--backend", f"mock:{benchmark_tree.mock_perfect}"],
        ):
            assert main(argv) == 1, argv
            assert capsys.readouterr().err == (
                "[accounting] no emission factor for: fluoride_consumption\n"
            ), argv

    @pytest.mark.parametrize(
        "first, second, stage",
        [
            ([*_QUERY, "--backend", "mock:{bad}"], [*_BENCH, "--backend", "mock:{bad}"], "load"),
            ([*_QUERY, "--backend", "foo"], [*_BENCH, "--backend", "foo"], "config"),
            ([*_QUERY, "--length-threshold", "0"], [*_BENCH, "--length-threshold", "0"], "config"),
            (
                ["index", "build", "--catalog", "{catalog}", "--out", "{out}", "--encoder", "{bad}"],
                [*_BENCH, "--encoder", "{bad}"],
                "load",
            ),
            (
                ["index", "build", "--catalog", "{catalog}", "--out", "{out}", "--overlap", "-1"],
                [*_BENCH, "--overlap", "-1"],
                "config",
            ),
            (
                ["account", "--facts", "{facts}", "--factors", "{bad_csv}"],
                [*_BENCH, "--benchmark", "{bad_csv_benchmark}"],
                "load",
            ),
        ],
        ids=[
            "malformed mock script",
            "unknown backend",
            "zero length threshold",
            "malformed encoder file",
            "negative overlap",
            "malformed factor CSV",
        ],
    )
    def test_both_commands_report_the_same_stage(
        self, pipeline_files, benchmark_tree, tmp_path, capsys, first, second, stage
    ):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]", encoding="utf-8")
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("activity,factor\n", encoding="utf-8")
        obj = fixtures.benchmark_obj()
        obj["factor_db"] = str(bad_csv)
        bad_csv_benchmark = tmp_path / "bad-csv-benchmark.json"
        bad_csv_benchmark.write_text(json.dumps(obj), encoding="utf-8")
        facts = tmp_path / "facts.json"
        facts.write_text(
            json.dumps([{"key": "electricity_use", "value": 1, "unit": "kWh"}]), encoding="utf-8"
        )
        paths = {
            **pipeline_files,
            "benchmark": benchmark_tree.benchmark,
            "mock": benchmark_tree.mock_perfect,
            "bad": bad,
            "bad_csv": bad_csv,
            "bad_csv_benchmark": bad_csv_benchmark,
            "facts": facts,
            "out": tmp_path / "out.index",
        }
        for argv in (first, second):
            assert main([arg.format(**paths) for arg in argv]) == 1, argv
            captured = capsys.readouterr()
            assert captured.err.startswith(f"[{stage}] "), (argv, captured.err)


_UNREADABLE = {"non-utf8": b"\xff\xfe[]", "deep-nesting": b"[" * 200_000}


class TestUnreadableFiles:
    @pytest.mark.parametrize("content", list(_UNREADABLE.values()), ids=list(_UNREADABLE))
    @pytest.mark.parametrize(
        "argv, stage",
        [
            (["ingest", "--source", "raw_text", "--catalog", "{bad}", "text"], "load"),
            (["index", "build", "--catalog", "{bad}", "--out", "{out}"], "load"),
            (["query", "--catalog", "{bad}", "--backend", "mock:{script}", "q"], "load"),
            (
                ["query", "--catalog", "{catalog}", "--index", "{bad}", "--backend", "mock:{script}", "q"],
                "load",
            ),
            (["index", "build", "--catalog", "{catalog}", "--out", "{out}", "--encoder", "{bad}"], "load"),
            (["query", "--backend", "mock:{bad}", "q"], "load"),
            (["query", "--config", "{bad}", "q"], "config"),
            (["bench", "--benchmark", "{bad}", "--backend", "mock:{script}"], "benchmark"),
            (["bench", "--config", "{bad}"], "config"),
            (["account", "--facts", "{bad}", "--factors", "{factors}"], "load"),
            (["account", "--facts", "{facts}", "--factors", "{bad}"], "load"),
            (["train-encoder", "--pairs", "{bad}", "--out", "{out}"], "load"),
            (["report", "--in", "{bad}"], "load"),
        ],
    )
    def test_every_file_read_ends_in_a_stage(
        self, benchmark_tree, aluminum_catalog, tmp_path, capsys, argv, stage, content
    ):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        facts = tmp_path / "facts.json"
        facts.write_text(
            json.dumps([{"key": "electricity_use", "value": 1, "unit": "kWh"}]), encoding="utf-8"
        )
        catalog = tmp_path / "catalog.json"
        aluminum_catalog.save(catalog)  # long: query reads --index only to retrieve
        paths = {
            "bad": bad,
            "out": tmp_path / "out.json",
            "catalog": catalog,
            "facts": facts,
            "factors": benchmark_tree.factors,
            "script": benchmark_tree.mock_perfect,
        }
        assert main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"[{stage}] ") and str(bad) in err, err


class TestUnwritableFiles:
    @pytest.mark.parametrize(
        "argv, what, target",
        [
            (["bench", "--backend", "mock:{script}", "--out", "{missing}/r.json"], "report", "{missing}/r.json"),
            (["bench", "--backend", "mock:{script}", "--csv", "{missing}/f.csv"], "per-fact CSV", "{missing}/f.csv"),
            (["bench", "--backend", "mock:{script}", "--out", "{directory}"], "report", "{directory}"),
            (["index", "build", "--catalog", "{catalog}", "--out", "{missing}/i.index"], "index", "{missing}/i.index"),
            (["account", "--facts", "{facts}", "--factors", "{factors}", "--out", "{missing}/o.json"], "footprint", "{missing}/o.json"),
            (["account", "--facts", "{facts}", "--factors", "{factors}", "--csv", "{missing}/o.csv"], "footprint CSV", "{missing}/o.csv"),
            (["train-encoder", "--pairs", "{pairs}", "--out", "{missing}/e.json"], "encoder", "{missing}/e.json"),
            (["ingest", "--catalog", "{missing}/c.json", "{doc}"], "catalog", "{missing}/c.json"),
            # an empty path is a path, not "no output"
            (["bench", "--backend", "mock:{script}", "--out", ""], "report", "''"),
            (["bench", "--backend", "mock:{script}", "--csv", ""], "per-fact CSV", "''"),
            (["index", "build", "--catalog", "{catalog}", "--out", ""], "index", "''"),
            (["account", "--facts", "{facts}", "--factors", "{factors}", "--out", ""], "footprint", "''"),
            (["account", "--facts", "{facts}", "--factors", "{factors}", "--csv", ""], "footprint CSV", "''"),
            # a lone surrogate, as a non-UTF-8 argv byte gives, is text no reader takes back
            (["index", "build", "--catalog", "{empty}", "--out", "{here}/i.index", "--encoder", "remote:http://127.0.0.1:9/\udcff"], "index", "{here}/i.index"),
            (["bench", "--backend", "mock:{odd_script}", "--out", "{here}/r.json"], "report", "{here}/r.json"),
        ],
        ids=[
            "bench out",
            "bench csv",
            "bench out directory",
            "index build",
            "account out",
            "account csv",
            "train-encoder",
            "ingest",
            "bench out empty",
            "bench csv empty",
            "index build empty",
            "account out empty",
            "account csv empty",
            "index build surrogate endpoint",
            "bench surrogate in the report",
        ],
    )
    def test_every_failed_write_ends_in_save(
        self, benchmark_tree, aluminum_catalog, tmp_path, capsys, argv, what, target
    ):
        paths = {
            "script": benchmark_tree.mock_perfect,
            "missing": tmp_path / "missing",
            "directory": tmp_path / "taken",
            "catalog": tmp_path / "catalog.json",
            "facts": tmp_path / "facts.json",
            "factors": benchmark_tree.factors,
            "pairs": tmp_path / "pairs.json",
            "doc": tmp_path / "doc.txt",
            "here": tmp_path,
            "empty": tmp_path / "empty.json",  # no chunk, so no embedding request
            "odd_script": tmp_path / "mock\udcff.json",  # the report records this path
        }
        paths["directory"].mkdir()
        Catalog().save(paths["empty"])
        paths["odd_script"].write_bytes(benchmark_tree.mock_perfect.read_bytes())
        aluminum_catalog.save(paths["catalog"])
        paths["facts"].write_text(
            json.dumps([{"key": "electricity_use", "value": 1, "unit": "kWh"}]), encoding="utf-8"
        )
        pairs = [
            {"text_a": "a", "text_b": "a b", "related": True},
            {"text_a": "a", "text_b": "c", "related": False},
        ]
        paths["pairs"].write_text(json.dumps(pairs), encoding="utf-8")
        paths["doc"].write_text("Electricity use was 100 kWh.", encoding="utf-8")
        argv = [arg.format(**paths) for arg in argv]
        if argv[0] == "bench":
            argv += ["--benchmark", str(benchmark_tree.benchmark)]
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"[save] cannot write {what} {target.format(**paths)}: "), err
        assert err.count("\n") == 1
        # the target keeps its bytes and no temporary file is left behind
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


class TestUsage:
    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_query_takes_no_chunking_flags(self):
        with pytest.raises(SystemExit) as err:
            main(["query", "--chunk-size", "5", "How much electricity?"])
        assert err.value.code == 2

    def test_query_takes_no_encoder_flag(self):
        """The index names its encoder; a second one could only disagree."""
        with pytest.raises(SystemExit) as err:
            main(["query", "--encoder", "lexical", "How much electricity?"])
        assert err.value.code == 2

    def test_bench_requires_a_backend(self, benchmark_tree, capsys):
        code = main(["bench", "--benchmark", str(benchmark_tree.benchmark)])
        err = capsys.readouterr().err
        assert code == 1
        assert "[config]" in err and "backend" in err
