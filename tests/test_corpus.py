"""Normalization, segmentation, classification, and catalog persistence."""

import dataclasses
import http.server
import json
import re
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carbonrag import Catalog, classify_datasource, corpus
from carbonrag.cli import main
from carbonrag.corpus import (
    Chunk,
    Document,
    LengthClass,
    SourceKind,
    chunk_id_for,
    normalize_text,
    parse_chunk_id,
    segment,
)
from carbonrag.errors import ConfigError, EncodingError, FetchError, FormatError, InputError
from carbonrag.index import RetrievalHit


def _doc(body: str, doc_id: str = "d1") -> Document:
    return Document(doc_id, "t", SourceKind.RAW_TEXT, body, "2026-01-01T00:00:00+00:00")


_V2 = {"format": "carbonrag-catalog", "version": 2}
_V2_RECORD = {"doc_id": "a", "title": "t", "source": "raw_text", "fetched_at": "x", "bytes": 3}


def _v2_file(records, bodies: bytes = b"abc", **header) -> bytes:
    """A format-2 catalog: the one-line header, a newline, then ``bodies``."""
    return json.dumps({**_V2, "documents": records, **header}).encode() + b"\n" + bodies


# Empty and newline-only text, text of chars a JSON escaper may rewrite (DEL, quote,
# backslash, U+2028) and of one- to four-byte UTF-8 chars, and any text.
_CATALOG_TEXT = st.one_of(
    st.just(""),
    st.text(alphabet="\n", max_size=3),
    st.text(alphabet="a \x7f\\\"\u2028\u00e9\u4e2d\U0001f600", max_size=12),
    st.text(max_size=12),
)


class TestNormalization:
    @pytest.mark.parametrize(
        "raw, text",
        [
            ("a\r\nb", "a\nb"),
            ("a\rb", "a b"),  # a lone CR is a control char
            ("a\r\r\nb", "a \nb"),
            ("é\r\r\n", "é \n"),
        ],
    )
    def test_crlf_becomes_lf(self, raw, text):
        assert normalize_text(raw) == text

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

    @settings(max_examples=300, deadline=None)
    @given(raw=st.text(alphabet=st.sampled_from("ab\n\r\t\x00\x1f\x0bé \U0001f600\ud800")))
    def test_equals_the_regex_version(self, raw):
        """The UTF-8 byte map and the skipped blank-line pass change nothing,
        and a text that needs no change is not copied."""
        text = re.sub(r"[\x00-\x09\x0b-\x1f]", " ", raw.replace("\r\n", "\n"))
        expected = re.sub(r"\n{4,}", "\n\n\n", text)
        assert normalize_text(raw) == expected
        if expected == raw:
            assert normalize_text(raw) is raw


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


    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), chunk_size=st.integers(2, 1200))
    @example(data=None, chunk_size=1000)
    def test_spans_follow_the_documented_rule(self, data, chunk_size):
        if data is None:  # the remainder exactly equal to the overlap
            overlap, n = 200, 1800
        else:
            overlap = data.draw(st.integers(0, chunk_size - 1), label="overlap")
            stride = chunk_size - overlap
            exact = st.integers(1, max(1, (5000 - overlap) // stride)).map(
                lambda k: min(k * stride + overlap, 5000)
            )
            n = data.draw(st.integers(0, 5000) | exact, label="n")
        body = (string.ascii_letters * (n // 52 + 1))[:n]
        chunks = segment(_doc(body), chunk_size, overlap)
        spans = _reference_spans(n, chunk_size, overlap)
        assert [(c.start_offset, c.end_offset) for c in chunks] == spans
        assert chunks == [
            Chunk(chunk_id_for("d1", start, end), "d1", start, end, body[start:end])
            for start, end in spans
        ]


def _reference_spans(n: int, chunk_size: int, overlap: int) -> list[tuple[int, int]]:
    """The documented rule as ``segment`` once spelled it: every span at
    stride ``chunk_size - overlap``, then the last one dropped when it is
    shorter than the overlap and not alone."""
    stride = chunk_size - overlap
    spans = [(start, min(start + chunk_size, n)) for start in range(0, n, stride)]
    if len(spans) >= 2 and spans[-1][1] - spans[-1][0] < overlap:
        spans.pop()
    return spans


class TestChunkIds:
    def test_format_and_parse_round_trip(self):
        cid = chunk_id_for("doc-1", 800, 1800)
        assert cid == "doc-1:00000800-00001800"
        assert parse_chunk_id(cid) == ("doc-1", 800, 1800)

    def test_offsets_past_eight_digits_round_trip(self):
        cid = chunk_id_for("d", 99_999_800, 100_000_800)
        assert cid == "d:99999800-100000800"
        assert parse_chunk_id(cid) == ("d", 99_999_800, 100_000_800)

    @settings(derandomize=True, database=None, max_examples=200)
    @given(
        doc_id=st.from_regex(r"[A-Za-z0-9._-]+", fullmatch=True),
        start=st.integers(0, 10**12),
        length=st.integers(1, 10**12),
    )
    def test_every_chunk_id_round_trips(self, doc_id, start, length):
        cid = chunk_id_for(doc_id, start, start + length)
        assert parse_chunk_id(cid) == (doc_id, start, start + length)

    def test_malformed_id_rejected(self):
        # A trailing newline, and offsets 0 and 10 in Arabic-Indic digits.
        arabic_indic = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
        for chunk_id in (
            "nonsense",
            "d:0000001-0000002",
            "plant:00000000-00000010\n",
            "plant:00000000-00000010".translate(arabic_indic),
        ):
            with pytest.raises(InputError):
                parse_chunk_id(chunk_id)


@pytest.mark.parametrize(
    "cls, args",
    [
        (Chunk, ("d:00000000-00000001", "d", 0, 1, "x")),
        (Document, ("d", "t", SourceKind.RAW_TEXT, "x", "2024")),
        (RetrievalHit, ("d:00000000-00000001", 0.5, 1)),
    ],
    ids=["Chunk", "Document", "RetrievalHit"],
)
def test_records_are_frozen_values_without_a_dict(cls, args):
    a, b = cls(*args), cls(*args)
    assert a == b and hash(a) == hash(b) and a is not b
    fields = dataclasses.fields(a)
    shown = ", ".join(f"{f.name}={getattr(a, f.name)!r}" for f in fields)
    assert repr(a) == f"{cls.__name__}({shown})"
    assert not hasattr(a, "__dict__")
    for field in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, field.name, getattr(b, field.name))


class TestClassification:
    def test_empty_is_none(self):
        assert classify_datasource([]) is LengthClass.NONE

    def test_empty_body_is_none(self):
        assert classify_datasource([_doc("")]) is LengthClass.NONE

    def test_whitespace_only_body_counts_for_nothing(self):
        # 5,000 spaces hold no chunk, so there is nothing to retrieve from.
        assert classify_datasource([_doc(" " * 5000)], 4000) is LengthClass.NONE
        docs = [_doc(" \n\t" * 2000, "a"), _doc("x" * 400, "b")]
        assert classify_datasource(docs, 4000) is LengthClass.SHORT

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

    def test_default_id_is_the_count_and_the_hash_of_the_stored_body(self):
        """The first 8 hex digits of sha256(b"CO\\xe2\\x82\\x82 1.2 t\\nline two\\n")."""
        catalog = Catalog()
        catalog.ingest("raw_text", "x", {"doc_id": "d1"})
        doc = catalog.ingest("raw_text", "CO₂ 1.2 t\r\nline two\r\n")
        assert doc.doc_id == "doc-0001-b0ed0895"

    def test_given_keys_are_used_as_given_without_hash_or_clock(self, monkeypatch):
        def no_call(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(corpus.hashlib, "sha256", no_call)
        monkeypatch.setattr(corpus, "datetime", None)
        metadata = {"doc_id": "d1", "fetched_at": "2024-05-01", "title": "t"}
        doc = Catalog().ingest("raw_text", "body é", metadata)
        assert (doc.doc_id, doc.fetched_at, doc.title) == ("d1", "2024-05-01", "t")

    @pytest.mark.parametrize("metadata", [{}, {"doc_id": "d1"}])
    def test_a_lone_surrogate_is_an_encoding_error(self, metadata):
        catalog = Catalog()
        with pytest.raises(EncodingError, match=r"^raw_text payload is not valid UTF-8 text: "):
            catalog.ingest("raw_text", "CO₂ \udcff", metadata)
        assert len(catalog) == 0

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

    def test_doc_id_with_a_trailing_newline_rejected(self):
        with pytest.raises(InputError, match=r"'plant\\n' must match"):
            Catalog().ingest("raw_text", "x", {"doc_id": "plant\n"})

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
        if self.path in ("/doc.txt", "/a%20doc.txt"):
            body = "fetched over http\n".encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/to-ftp":
            self.send_response(302)
            self.send_header("Location", "ftp://127.0.0.1:1/doc.txt")
            self.send_header("Content-Length", "0")
            self.end_headers()
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

    def test_a_space_in_the_path_is_sent_quoted(self, text_server):
        assert Catalog().ingest("url_fetch", f"{text_server}/a doc.txt").body == "fetched over http\n"

    def test_a_url_that_is_not_http_is_refused_before_it_is_opened(self, tmp_path, capsys):
        """A ``file:`` URL naming a file that exists is not read, and the
        catalog is left as it was."""
        secret = tmp_path / "secret.txt"
        secret.write_text("not for the catalog", encoding="utf-8")
        catalog = tmp_path / "corpus.catalog"
        assert main(["ingest", "--source", "raw_text", "--catalog", str(catalog), "kept"]) == 0
        before = catalog.read_bytes()
        capsys.readouterr()
        for url in (secret.as_uri(), f"data:text/plain,{secret}", "ftp://127.0.0.1:1/doc.txt"):
            argv = ["ingest", "--source", "url_fetch", "--catalog", str(catalog), url]
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"[ingest] cannot fetch {url}: not an http or https URL with a host\n"
            )
            assert catalog.read_bytes() == before

    def test_a_redirect_to_another_scheme_is_not_followed(self, text_server):
        with pytest.raises(FetchError, match="unknown url type: ftp"):
            Catalog().ingest("url_fetch", f"{text_server}/to-ftp")


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
            # ingest would rewrite the catalog without it
            ([{**record, "industry": "steel"}], r"\[0\]: unknown keys: industry"),
        ):
            path.write_text(json.dumps(records), encoding="utf-8")
            with pytest.raises(FormatError, match=message):
                Catalog.load(path)
        path.write_text(json.dumps([{**record, "industry_tag": None}]), encoding="utf-8")
        assert Catalog.load(path).get("a").industry_tag is None

    @settings(max_examples=60, deadline=None)
    @given(
        docs=st.lists(
            st.tuples(
                _CATALOG_TEXT,
                _CATALOG_TEXT,
                st.sampled_from(SourceKind),
                _CATALOG_TEXT,
                st.none() | _CATALOG_TEXT,
            ),
            max_size=4,
        )
    )
    def test_save_load_round_trips_any_documents(self, tmp_path_factory, docs):
        catalog = Catalog()
        for i, (title, body, source, fetched_at, tag) in enumerate(docs):
            catalog.add(Document(f"d{i}", title, source, body, fetched_at, tag))
        first, second = (tmp_path_factory.mktemp("round") / "c.catalog" for _ in range(2))
        catalog.save(first)
        loaded = Catalog.load(first)
        assert loaded.documents == catalog.documents
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes()

    def test_save_writes_the_header_line_then_the_raw_bodies(self, tmp_path):
        catalog = Catalog()
        catalog.add(Document("a", "t\u00e9", SourceKind.LOCAL_FILE, "x\n\"\u00e9", "2026", "steel"))
        catalog.add(Document("b", "u", SourceKind.RAW_TEXT, "", "2027"))
        path = tmp_path / "c.catalog"
        catalog.save(path)
        records = [
            {"doc_id": "a", "title": "t\u00e9", "source": "local_file", "industry_tag": "steel",
             "fetched_at": "2026", "bytes": 5},
            {"doc_id": "b", "title": "u", "source": "raw_text", "industry_tag": None,
             "fetched_at": "2027", "bytes": 0},
        ]
        header = json.dumps({**_V2, "documents": records}, ensure_ascii=False)
        assert path.read_bytes() == f"{header}\nx\n\"\u00e9".encode()

    def test_save_refuses_a_lone_surrogate_and_leaves_no_file(self, tmp_path):
        catalog = Catalog()
        catalog.add(_doc("text \udcff"))
        path = tmp_path / "c.catalog"
        with pytest.raises(FormatError, match=r"cannot write catalog .*surrogate") as info:
            catalog.save(path)
        assert info.value.stage_name == "save"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "data, message",
        [
            (json.dumps({**_V2, "documents": []}).encode(), "the header line has no end"),
            (b"{not json\nabc", "header is not JSON"),
            (_v2_file([_V2_RECORD], format="carbonrag-index"), "header does not declare"),
            (_v2_file([_V2_RECORD], version=1), "header does not declare"),
            (_v2_file([_V2_RECORD], version=True), "header does not declare"),
            (_v2_file([_V2_RECORD], version="2"), "header does not declare"),
            (_v2_file([_V2_RECORD], version=2.0), "header does not declare"),
            (_v2_file([_V2_RECORD], extra=[]), "header: unknown keys: extra"),
            (_v2_file([{**_V2_RECORD, "body": "abc"}]), r"header: documents\[0\]: unknown keys: body"),
            (_v2_file([{**_V2_RECORD, "bytes": -1}]), r"documents\[0\]\.bytes must be >= 0, got -1"),
            (_v2_file([{**_V2_RECORD, "bytes": 3.0}]), r"documents\[0\]\.bytes must be an integer"),
            (_v2_file([{**_V2_RECORD, "bytes": True}]), r"documents\[0\]\.bytes must be an integer"),
            (_v2_file([_V2_RECORD], b"ab"), r"body of documents\[0\] needs 3 bytes, but only 2"),
            (_v2_file([_V2_RECORD], b"abcd"), "trailing bytes after the last body: 1"),
            (
                _v2_file([{**_V2_RECORD, "bytes": 1}, {**_V2_RECORD, "doc_id": "b", "bytes": 1}], b"\xc3\xa9"),
                r"body of documents\[0\] is not valid UTF-8",
            ),
            (_v2_file([_V2_RECORD], b"\xed\xa0\x80"), r"body of documents\[0\] is not valid UTF-8"),
            (_v2_file([_V2_RECORD], b"a\xffc"), r"body of documents\[0\] is not valid UTF-8"),
            (_v2_file([_V2_RECORD, _V2_RECORD], b"abcabc"), r"documents\[1\]: duplicate doc_id 'a'"),
        ],
    )
    def test_ingest_onto_a_bad_format_2_catalog_fails_to_load(self, tmp_path, capsys, data, message):
        path = tmp_path / "c.catalog"
        path.write_bytes(data)
        assert main(["ingest", "--source", "raw_text", "--catalog", str(path), "more"]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"\[load\] catalog {re.escape(str(path))}: .*{message}.*\n", err), err
        assert path.read_bytes() == data
        assert [p.name for p in tmp_path.iterdir()] == ["c.catalog"]

    def test_ingest_rewrites_a_format_1_catalog_as_format_2(self, tmp_path, capsys):
        path = tmp_path / "c.catalog"
        record = {"doc_id": "a", "title": "t", "source": "raw_text", "body": "b\u00e9", "fetched_at": "x"}
        path.write_text(json.dumps([record]), encoding="utf-8")
        before = Catalog.load(path).documents
        assert main(["ingest", "--source", "raw_text", "--catalog", str(path), "more"]) == 0
        assert path.read_bytes().startswith(b'{"format": "carbonrag-catalog", "version": 2, ')
        assert Catalog.load(path).documents[:1] == before

    def test_load_rejects_non_array(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"docs": []}), encoding="utf-8")
        with pytest.raises(FormatError):
            Catalog.load(path)
