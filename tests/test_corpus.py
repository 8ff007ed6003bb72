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
_V2_SAVED = {**_V2_RECORD, "industry_tag": None}  # every key that ``save`` writes
_V1_RECORD = {"doc_id": "a", "title": "t", "source": "raw_text", "body": "b", "fetched_at": "x"}
_NOT_V2 = r"not a format-2 catalog \(its first byte is not '\{'\)"


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
            (b"a\r\nb", b"a\nb"),
            (b"a\rb", b"a b"),  # a lone CR is a control char
            (b"a\r\r\nb", b"a \nb"),
            ("é\r\r\n".encode(), "é \n".encode()),
        ],
    )
    def test_crlf_becomes_lf(self, raw, text):
        assert normalize_text(raw) == text

    def test_control_chars_become_spaces(self):
        assert normalize_text(b"a\x00b\tc\x1fd") == b"a b c d"

    def test_newline_is_preserved(self):
        assert normalize_text(b"a\nb") == b"a\nb"

    def test_more_than_two_blank_lines_collapse_to_two(self):
        assert normalize_text(b"a\n\n\n\n\n\nb") == b"a\n\n\nb"
        assert normalize_text(b"a\n\n\nb") == b"a\n\n\nb"

    def test_idempotent_on_random_text(self):
        rng = np.random.default_rng(7)
        alphabet = string.ascii_letters + "\r\n\t\x00\x07 "
        for _ in range(50):
            raw = "".join(rng.choice(list(alphabet), size=200)).encode()
            once = normalize_text(raw)
            assert normalize_text(once) == once

    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.text(
            alphabet=st.sampled_from("ab\n\r\t\x00\x1f\x0bé \U0001f600")
            | st.characters(blacklist_categories=("Cs",))
        )
    )
    def test_equals_the_regex_version(self, raw):
        """The byte rules over the UTF-8 encoding of a text in any script
        give what the text rules give, and bytes that need no change are not
        copied. A lone surrogate cannot be encoded: ``ingest`` refuses it
        before normalizing (``test_a_lone_surrogate_is_an_encoding_error``)."""
        text = re.sub(r"[\x00-\x09\x0b-\x1f]", " ", raw.replace("\r\n", "\n"))
        expected = re.sub(r"\n{4,}", "\n\n\n", text).encode()
        data = raw.encode()
        assert normalize_text(data) == expected
        if expected == data:
            assert normalize_text(data) is data


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
    """Serves one text over HTTP/1.1 keep-alive and records each request's
    client address and path. ``/hop/<n>`` redirects to the relative
    ``<n - 1>`` until ``/hop/0``, which serves the text, with each status a
    redirect may have."""

    protocol_version = "HTTP/1.1"
    timeout = 5  # idle keep-alive connections end after the test

    def do_GET(self):
        self.server.requests.append((self.client_address, self.path))
        hop = re.fullmatch(r"/hop/([0-9]+)", self.path)
        if self.path in ("/doc.txt", "/a%20doc.txt", "/hop/0"):
            body = "fetched over http\n".encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif hop or self.path in ("/to-ftp", "/to-tab", "/no-location"):
            n = int(hop.group(1)) if hop else 0
            self.send_response((301, 302, 303, 307, 308)[n % 5])
            if hop:
                self.send_header("Location", str(n - 1))
            elif self.path == "/to-ftp":
                self.send_header("Location", "ftp://127.0.0.1:1/doc.txt")
            elif self.path == "/to-tab":
                self.send_header("Location", "/doc\t.txt")
            self.send_header("Content-Length", "0")
            self.end_headers()
        else:
            self.send_error(404)

    def log_message(self, *args):
        pass


@pytest.fixture()
def text_server(http_server):
    server = http_server(_TextHandler)
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    return server


class TestCatalogUrlFetch:
    def test_fetch_success(self, text_server):
        doc = Catalog().ingest("url_fetch", f"{text_server.url}/doc.txt")
        assert doc.body == "fetched over http\n"
        assert doc.source is SourceKind.URL_FETCH

    def test_http_error_status_is_a_fetch_error(self, text_server):
        catalog = Catalog()
        with pytest.raises(FetchError, match="404"):
            catalog.ingest("url_fetch", f"{text_server.url}/missing.txt")
        assert len(catalog) == 0

    def test_unreachable_host_is_a_fetch_error(self):
        with pytest.raises(FetchError):
            Catalog().ingest("url_fetch", "http://127.0.0.1:1/doc.txt")

    def test_a_space_in_the_path_is_sent_quoted(self, text_server):
        doc = Catalog().ingest("url_fetch", f"{text_server.url}/a doc.txt")
        assert doc.body == "fetched over http\n"

    def test_a_url_that_is_not_http_is_refused_before_it_is_opened(
        self, tmp_path, capsys, text_server, sleeps
    ):
        """A ``file:`` URL naming a file that exists is not read, and the
        catalog is left as it was. So is a URL with port 0, one with user
        info, which a request would not carry, one whose host holds a
        character that no request line can, and one with a tab, CR or LF or
        a leading space or control character, which urlsplit would drop:
        no request is sent and nothing is retried."""
        secret = tmp_path / "secret.txt"
        secret.write_text("not for the catalog", encoding="utf-8")
        catalog = tmp_path / "corpus.catalog"
        assert main(["ingest", "--source", "raw_text", "--catalog", str(catalog), "kept"]) == 0
        before = catalog.read_bytes()
        capsys.readouterr()
        not_http = "not an http or https URL with a host"
        port_0 = "an http URL with port 0, to which no request can be sent"
        user_info = "an http URL with user info, which no request carries"
        bad_host = "an http URL whose host holds a space or a control character"
        dropped = "a URL with a tab, CR or LF, or a leading space or control character"
        for url, reason in (
            (secret.as_uri(), not_http),
            (f"data:text/plain,{secret}", not_http),
            ("ftp://127.0.0.1:1/doc.txt", not_http),
            ("http://a..b/doc.txt", not_http),
            ("http://127.0.0.1:0/doc.txt", port_0),
            ("http://user:pw@127.0.0.1:1/doc.txt", user_info),
            ("http://@127.0.0.1:1/doc.txt", user_info),
            ("http://127.0.0.1 /doc.txt", bad_host),
            ("http://a\x7fb/doc.txt", bad_host),
            (f"{text_server.url}/doc\t.txt", dropped),
            (f"{text_server.url}/doc.txt\n", dropped),
            (f"{text_server.url}/doc.txt?\r", dropped),
            (f" {text_server.url}/doc.txt", dropped),
            (f"\x01{text_server.url}/doc.txt", dropped),
        ):
            argv = ["ingest", "--source", "url_fetch", "--catalog", str(catalog), url]
            assert main(argv) == 1
            assert capsys.readouterr().err == f"[ingest] cannot fetch {url!r}: {reason}\n"
            assert catalog.read_bytes() == before
        assert text_server.requests == []
        assert sleeps == []

    @pytest.mark.parametrize(
        "path, location, reason",
        [
            ("/to-ftp", "ftp://127.0.0.1:1/doc.txt", "not an http or https URL with a host"),
            (
                "/to-tab",
                "/doc\t.txt",
                "a URL with a tab, CR or LF, or a leading space or control character",
            ),
        ],
        ids=["ftp", "tab"],
    )
    def test_a_redirect_to_another_scheme_is_not_followed(
        self, text_server, path, location, reason
    ):
        """Nor is one whose ``Location`` holds a tab: it is refused as sent,
        not joined, which would drop the tab."""
        catalog = Catalog()
        url = f"{text_server.url}{path}"
        message = f"cannot fetch {url!r}: redirected to {location!r}, which is {reason}"
        with pytest.raises(FetchError, match=re.escape(message)):
            catalog.ingest("url_fetch", url)
        assert len(catalog) == 0
        assert [p for _, p in text_server.requests] == [path]

    def test_redirects_with_a_relative_location_are_followed_up_to_the_limit(self, text_server):
        """``/hop/5`` takes five redirects, one of each status; ``/hop/6``
        takes one too many, and its sixth ``Location`` is not requested."""
        url = f"{text_server.url}/hop/5"
        assert Catalog().ingest("url_fetch", url).body == "fetched over http\n"
        paths = [path for _, path in text_server.requests]
        assert paths == [f"/hop/{n}" for n in range(5, -1, -1)]
        catalog = Catalog()
        url = f"{text_server.url}/hop/6"
        message = f"cannot fetch {url!r}: more than 5 redirects"
        with pytest.raises(FetchError, match=re.escape(message)):
            catalog.ingest("url_fetch", url)
        assert len(catalog) == 0
        paths = [path for _, path in text_server.requests[6:]]
        assert paths == [f"/hop/{n}" for n in range(6, 0, -1)]

    def test_a_redirect_without_a_location_is_its_status(self, text_server):
        url = f"{text_server.url}/no-location"
        with pytest.raises(FetchError, match=re.escape(f"cannot fetch {url!r}: HTTP 301")):
            Catalog().ingest("url_fetch", url)

    def test_urls_on_one_server_share_a_kept_alive_connection(self, text_server):
        catalog = Catalog()
        for path in ("/doc.txt", "/a doc.txt"):
            catalog.ingest("url_fetch", f"{text_server.url}{path}")
        assert len(catalog) == 2
        assert len({address for address, _ in text_server.requests}) == 1


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

    def test_load_of_a_missing_file_is_a_load_error(self, tmp_path):
        path = tmp_path / "absent.catalog"
        with pytest.raises(FormatError, match=f"^cannot load catalog {re.escape(str(path))}: ") as err:
            Catalog.load(path)
        assert err.value.stage_name == "load"

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError):
            Catalog.load(path)

    def test_load_names_the_offending_record(self, tmp_path):
        path = tmp_path / "catalog.json"
        record = _V2_SAVED
        for records, message in (
            ([{"title": "missing ids", "bytes": 3}], r"\[0\] is missing 'doc_id'"),
            # save always writes the tag, as a string or null
            ([_V2_RECORD], r"\[0\] is missing 'industry_tag'"),
            ([{**record, "bytes": "3"}], r"\[0\]\.bytes must be an integer"),
            ([record, {**record, "doc_id": "b", "title": 5}], r"\[1\]\.title must be a string"),
            ([{**record, "fetched_at": None}], r"\[0\]\.fetched_at must be a string"),
            ([{**record, "industry_tag": 3}], r"\[0\]\.industry_tag must be a string or null"),
            ([{**record, "industry_tag": ["steel"]}], r"\[0\]\.industry_tag must be a string or"),
            ([{**record, "doc_id": 5}], r"\[0\]\.doc_id must be a string, got 5"),
            ([{**record, "source": "ftp"}], r"\[0\]\.source: 'ftp' is not a valid SourceKind"),
            ([record, record], r"\[1\]: duplicate doc_id 'a'"),
            ([{**record, "doc_id": "a:b"}], r"\[0\]: doc_id 'a:b' must match .*colon is reserved"),
            ([5], r"header: documents\[0\] must be an object, got 5"),
            (
                [record, {**record, "doc_id": "b"}, {**record, "doc_id": "c", "source": "ftp"}],
                r"\[2\]\.source: 'ftp' is not a valid SourceKind",
            ),
            # ingest would rewrite the catalog without it
            ([{**record, "industry": "steel"}], r"\[0\]: unknown keys: industry"),
        ):
            path.write_bytes(_v2_file(records, b"abc" * len(records)))
            with pytest.raises(FormatError, match=message):
                Catalog.load(path)
        path.write_bytes(_v2_file([record]))
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

    def test_a_large_catalog_round_trips_byte_for_byte(self, tmp_path):
        """300 documents of ASCII and non-ASCII bodies, null and string tags
        and every source load as saved, and save again to the same bytes."""
        sources = list(SourceKind)
        catalog = Catalog()
        for i in range(300):
            body = f"Document {i} uses {i * 7} kWh.\n" * (i % 5)
            if i % 3 == 0:
                body += "caf\u00e9 \u4e2d\U0001f600 \u2028\n"
            tag = None if i % 2 else f"tag-{i % 7}"
            title = f"title {i}" + ("" if i % 4 else " \u00e9")
            catalog.add(Document(f"doc-{i:04d}", title, sources[i % 3], body, "2026", tag))
        first, second = tmp_path / "first.catalog", tmp_path / "second.catalog"
        catalog.save(first)
        loaded = Catalog.load(first)
        assert loaded.documents == catalog.documents
        assert {d.source for d in loaded.documents} == set(SourceKind)
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
        header = json.dumps({**_V2, "documents": records}, ensure_ascii=False).encode()
        # Spaces pad the header line to a multiple of 8 bytes with its newline.
        padding = b" " * (-(len(header) + 1) % 8)
        assert (len(header) + len(padding) + 1) % 8 == 0
        assert path.read_bytes() == header + padding + "\nx\n\"\u00e9".encode()

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
            (_v2_file([_V2_SAVED], b"abcd"), "trailing bytes after the last body: 1"),
            (
                _v2_file([{**_V2_RECORD, "bytes": 1}, {**_V2_RECORD, "doc_id": "b", "bytes": 1}], b"\xc3\xa9"),
                r"body of documents\[0\] is not valid UTF-8",
            ),
            (_v2_file([_V2_RECORD], b"\xed\xa0\x80"), r"body of documents\[0\] is not valid UTF-8"),
            (_v2_file([_V2_RECORD], b"a\xffc"), r"body of documents\[0\] is not valid UTF-8"),
            (_v2_file([_V2_SAVED, _V2_SAVED], b"abcabc"), r"documents\[1\]: duplicate doc_id 'a'"),
            # a JSON list of records (format 1), whatever its line breaks
            (json.dumps([_V1_RECORD]).encode(), _NOT_V2),
            (json.dumps([_V1_RECORD], indent=2).encode(), _NOT_V2),
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

    def test_load_rejects_non_array(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"docs": []}), encoding="utf-8")
        with pytest.raises(FormatError):
            Catalog.load(path)
