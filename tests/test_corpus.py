"""Normalization, segmentation, classification, and catalog persistence."""

import http.server
import json
import string

import numpy as np
import pytest

from carbonrag import Catalog, classify_datasource
from carbonrag.corpus import (
    Document,
    LengthClass,
    SourceKind,
    chunk_id_for,
    normalize_text,
    parse_chunk_id,
    segment,
)
from carbonrag.errors import ConfigError, EncodingError, FetchError, FormatError, InputError


def _doc(body: str, doc_id: str = "d1") -> Document:
    return Document(doc_id, "t", SourceKind.RAW_TEXT, body, "2026-01-01T00:00:00+00:00")


class TestNormalization:
    def test_crlf_becomes_lf(self):
        assert normalize_text("a\r\nb") == "a\nb"

    def test_control_chars_become_spaces(self):
        assert normalize_text("a\x00b\tc\x1fd") == "a b c d"

    def test_newline_is_preserved(self):
        assert normalize_text("a\nb") == "a\nb"

    def test_more_than_two_blank_lines_collapse_to_two(self):
        assert normalize_text("a\n\n\n\n\n\nb") == "a\n\n\nb"
        assert normalize_text("a\n\n\nb") == "a\n\n\nb"

    def test_idempotent_on_random_text(self):
        rng = np.random.default_rng(7)
        alphabet = string.ascii_letters + "\r\n\t\x00\x07 "
        for _ in range(50):
            raw = "".join(rng.choice(list(alphabet), size=200))
            once = normalize_text(raw)
            assert normalize_text(once) == once


class TestSegmentation:
    def test_documented_span_layout(self):
        """2500 chars at size 1000 / overlap 200 yield exactly three spans."""
        chunks = segment(_doc("x" * 2500), 1000, 200)
        spans = [(c.start_offset, c.end_offset) for c in chunks]
        assert spans == [(0, 1000), (800, 1800), (1600, 2500)]

    def test_short_body_is_a_single_chunk(self):
        chunks = segment(_doc("hello"), 1000, 200)
        assert len(chunks) == 1
        assert chunks[0].text == "hello"

    def test_empty_body_has_no_chunks(self):
        assert segment(_doc(""), 1000, 200) == []

    def test_remainder_shorter_than_overlap_merges_backward(self):
        # 1700 chars: the 100-char tail past 1600 is inside the second span.
        chunks = segment(_doc("y" * 1700), 1000, 200)
        spans = [(c.start_offset, c.end_offset) for c in chunks]
        assert spans == [(0, 1000), (800, 1700)]

    def test_remainder_equal_to_overlap_is_kept(self):
        chunks = segment(_doc("y" * 1800), 1000, 200)
        assert [(c.start_offset, c.end_offset) for c in chunks] == [
            (0, 1000),
            (800, 1800),
            (1600, 1800),
        ]

    def test_chunk_size_must_exceed_overlap(self):
        with pytest.raises(ConfigError):
            segment(_doc("abc"), 100, 100)
        with pytest.raises(ConfigError):
            segment(_doc("abc"), 100, -1)

    def test_texts_match_offsets(self):
        body = "".join(chr(ord("a") + i % 26) for i in range(3210))
        for chunk in segment(_doc(body), 700, 150):
            assert chunk.text == body[chunk.start_offset : chunk.end_offset]

    def test_every_char_covered(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 4000))
            size = int(rng.integers(2, 900))
            overlap = int(rng.integers(0, size))
            covered = np.zeros(n, dtype=bool)
            for chunk in segment(_doc("z" * n), size, overlap):
                covered[chunk.start_offset : chunk.end_offset] = True
            assert covered.all()


class TestChunkIds:
    def test_format_and_parse_round_trip(self):
        cid = chunk_id_for("doc-1", 800, 1800)
        assert cid == "doc-1:00000800-00001800"
        assert parse_chunk_id(cid) == ("doc-1", 800, 1800)

    def test_malformed_id_rejected(self):
        with pytest.raises(InputError):
            parse_chunk_id("nonsense")


class TestClassification:
    def test_empty_is_none(self):
        assert classify_datasource([]) is LengthClass.NONE

    def test_total_at_or_below_threshold_is_short(self):
        assert classify_datasource([_doc("x" * 400)], 4000) is LengthClass.SHORT
        assert classify_datasource([_doc("x" * 4000)], 4000) is LengthClass.SHORT

    def test_total_above_threshold_is_long(self):
        docs = [_doc("x" * 3000, "a"), _doc("x" * 1001, "b")]
        assert classify_datasource(docs, 4000) is LengthClass.LONG

    def test_adding_documents_never_shrinks_the_class(self):
        docs = [_doc("x" * 3000, "a")]
        assert classify_datasource(docs, 4000) is LengthClass.SHORT
        docs.append(_doc("x" * 2000, "b"))
        assert classify_datasource(docs, 4000) is LengthClass.LONG

    def test_threshold_must_be_positive(self):
        with pytest.raises(ConfigError):
            classify_datasource([_doc("x")], 0)


class TestCatalogIngest:
    def test_raw_text_is_normalized_and_stored(self):
        catalog = Catalog()
        doc = catalog.ingest("raw_text", "line1\r\nline2", {"doc_id": "d1"})
        assert doc.body == "line1\nline2"
        assert catalog.get("d1") is doc

    def test_generated_ids_are_deterministic_and_unique(self):
        catalog = Catalog()
        a = catalog.ingest("raw_text", "same body")
        b = catalog.ingest("raw_text", "same body")
        assert a.doc_id != b.doc_id
        assert a.doc_id.split("-")[-1] == b.doc_id.split("-")[-1]

    def test_duplicate_doc_id_rejected(self):
        catalog = Catalog()
        catalog.ingest("raw_text", "x", {"doc_id": "d1"})
        with pytest.raises(InputError):
            catalog.ingest("raw_text", "y", {"doc_id": "d1"})

    def test_colon_in_doc_id_rejected(self):
        with pytest.raises(InputError, match="reserved"):
            Catalog().ingest("raw_text", "x", {"doc_id": "a:b"})

    def test_local_file(self, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_text("from disk", encoding="utf-8")
        doc = Catalog().ingest("local_file", str(path))
        assert doc.body == "from disk"
        assert doc.title == "doc.txt"

    def test_missing_file_is_a_fetch_error(self, tmp_path):
        catalog = Catalog()
        with pytest.raises(FetchError):
            catalog.ingest("local_file", str(tmp_path / "absent.txt"))
        assert len(catalog) == 0

    def test_invalid_utf8_is_an_encoding_error(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\xff\xfe\x00junk")
        catalog = Catalog()
        with pytest.raises(EncodingError):
            catalog.ingest("local_file", str(path))
        assert len(catalog) == 0

    def test_unknown_source_kind_rejected(self):
        with pytest.raises(ValueError):
            Catalog().ingest("carrier_pigeon", "x")


class _TextHandler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        if self.path == "/doc.txt":
            body = "fetched over http\n".encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(404)

    def log_message(self, *args):
        pass


@pytest.fixture()
def text_server(http_server):
    return f"http://127.0.0.1:{http_server(_TextHandler).server_address[1]}"


class TestCatalogUrlFetch:
    def test_fetch_success(self, text_server):
        doc = Catalog().ingest("url_fetch", f"{text_server}/doc.txt")
        assert doc.body == "fetched over http\n"
        assert doc.source is SourceKind.URL_FETCH

    def test_http_error_status_is_a_fetch_error(self, text_server):
        catalog = Catalog()
        with pytest.raises(FetchError, match="404"):
            catalog.ingest("url_fetch", f"{text_server}/missing.txt")
        assert len(catalog) == 0

    def test_unreachable_host_is_a_fetch_error(self):
        with pytest.raises(FetchError):
            Catalog().ingest("url_fetch", "http://127.0.0.1:1/doc.txt")


class TestCatalogChunks:
    def test_chunk_all_covers_every_document(self, aluminum_catalog):
        chunks = aluminum_catalog.chunk_all(1000, 200)
        assert {c.doc_id for c in chunks} == {d.doc_id for d in aluminum_catalog.documents}

    def test_resolve_chunk_rebuilds_text(self, aluminum_catalog):
        for chunk in aluminum_catalog.chunk_all(1000, 200):
            resolved = aluminum_catalog.resolve_chunk(chunk.chunk_id)
            assert resolved == chunk

    def test_resolve_out_of_bounds_rejected(self):
        catalog = Catalog()
        catalog.ingest("raw_text", "short", {"doc_id": "d1"})
        with pytest.raises(InputError):
            catalog.resolve_chunk(chunk_id_for("d1", 0, 999))


class TestCatalogPersistence:
    def test_round_trip_preserves_documents(self, aluminum_catalog, tmp_path):
        path = tmp_path / "catalog.json"
        aluminum_catalog.save(path)
        loaded = Catalog.load(path)
        assert loaded.documents == aluminum_catalog.documents

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError):
            Catalog.load(path)

    def test_load_names_the_offending_record(self, tmp_path):
        path = tmp_path / "catalog.json"
        record = {"doc_id": "a", "title": "t", "source": "raw_text", "body": "b", "fetched_at": "x"}
        for records, message in (
            ([{"title": "missing ids"}], r"\[0\] is missing 'doc_id'"),
            ([{**record, "body": ["not", "text"]}], r"\[0\]\.body must be a string"),
            ([record, {**record, "doc_id": "b", "title": 5}], r"\[1\]\.title must be a string"),
            ([{**record, "fetched_at": None}], r"\[0\]\.fetched_at must be a string"),
            ([{**record, "industry_tag": 3}], r"\[0\]\.industry_tag must be a string or null"),
            ([{**record, "industry_tag": ["steel"]}], r"\[0\]\.industry_tag must be a string or"),
            ([{**record, "doc_id": 5}], r"\[0\]\.doc_id must be a string, got 5"),
            ([{**record, "source": "ftp"}], r"\[0\]\.source: 'ftp' is not a valid SourceKind"),
            ([record, record], r"\[1\]: duplicate doc_id 'a'"),
        ):
            path.write_text(json.dumps(records), encoding="utf-8")
            with pytest.raises(FormatError, match=message):
                Catalog.load(path)
        path.write_text(json.dumps([{**record, "industry_tag": None}]), encoding="utf-8")
        assert Catalog.load(path).get("a").industry_tag is None

    def test_load_rejects_non_array(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"docs": []}), encoding="utf-8")
        with pytest.raises(FormatError):
            Catalog.load(path)
