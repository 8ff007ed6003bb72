"""Datasource ingestion, normalization, segmentation, and length classification.

Documents hold normalized plain text. Chunk boundaries are a pure function
of ``(body, chunk_size, overlap)``, so the catalog persists documents only
and chunks are recomputed on load.

A catalog file (format 2) is one line of JSON, the header
``{"format": "carbonrag-catalog", "version": 2, "documents": [...]}``, with
one record per document (``doc_id``, ``title``, ``source``,
``industry_tag``, ``fetched_at`` and ``bytes``, its body's UTF-8 length),
then a newline, then each body's UTF-8 bytes back to back in record order
and nothing after the last. The bodies are thus neither escaped on save nor
parsed on load. A format-1 catalog, a JSON list of records that hold their
``body``, is still read (its first non-blank byte is ``[``, not ``{``), and
the next save rewrites it as format 2.

Normalization rules (applied once, at ingest):
  1. CRLF becomes LF.
  2. Remaining C0 control characters other than LF become a single space,
     by one byte map over the UTF-8 encoding, whatever the script: in UTF-8
     the bytes 0x00-0x1F stand only for those characters.
  3. Runs of more than two blank lines collapse to two (four or more
     consecutive newlines become three).
"""

from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from ._files import write_file
from ._http import http_url, request_target
from ._json import Node, dump_json, parse_json
from .errors import ConfigError, EncodingError, FetchError, FormatError, InputError

DEFAULT_CHUNK_SIZE = 1000
DEFAULT_OVERLAP = 200
DEFAULT_LENGTH_THRESHOLD = 4000

# Offsets are recoverable from the id alone, so chunk texts can be resolved
# against a catalog without re-running segmentation.
_CHUNK_ID_RE = re.compile(r"(?P<doc>.+):(?P<start>[0-9]{8,})-(?P<end>[0-9]{8,})")
_DOC_ID_RE = re.compile(r"[A-Za-z0-9._-]+")
_C0_EXCEPT_LF_TABLE = bytes(0x20 if c < 0x20 and c != 0x0A else c for c in range(256))

_FORMAT = {"format": "carbonrag-catalog", "version": 2}
_FIELDS = ("doc_id", "title", "source", "industry_tag", "fetched_at")
# JSON's blanks, then the byte that tells the formats apart.
_FIRST_BYTE_RE = re.compile(rb"[ \t\n\r]*(.)", re.DOTALL)


class SourceKind(str, Enum):
    LOCAL_FILE = "local_file"
    RAW_TEXT = "raw_text"
    URL_FETCH = "url_fetch"


class LengthClass(Enum):
    LONG = "long"
    SHORT = "short"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class Document:
    doc_id: str
    title: str
    source: SourceKind
    body: str
    fetched_at: str  # ISO-8601
    industry_tag: str | None = None


@dataclass(frozen=True, slots=True)
class Chunk:
    chunk_id: str
    doc_id: str
    start_offset: int
    end_offset: int
    text: str


def normalize_text(raw: str) -> str:
    text = raw.replace("\r\n", "\n") if "\r" in raw else raw
    # A lone surrogate passes through, to be refused where the body is encoded.
    data = text.encode("utf-8", "surrogatepass")
    cleaned = data.translate(_C0_EXCEPT_LF_TABLE)
    if cleaned != data:  # a clean text stays the same object
        text = cleaned.decode("utf-8", "surrogatepass")
    if "\n\n\n\n" in text:
        text = re.sub(r"\n{4,}", "\n\n\n", text)
    return text


def chunk_id_for(doc_id: str, start: int, end: int) -> str:
    return f"{doc_id}:{start:08d}-{end:08d}"


def parse_chunk_id(chunk_id: str) -> tuple[str, int, int]:
    m = _CHUNK_ID_RE.fullmatch(chunk_id)
    if m is None:
        raise InputError(f"malformed chunk id {chunk_id!r}")
    return m.group("doc"), int(m.group("start")), int(m.group("end"))


def check_chunking(chunk_size: int, overlap: int) -> None:
    """Refuse chunk settings that ``segment`` cannot use: the overlap must
    be nonnegative and smaller than the chunk size."""
    if overlap < 0 or chunk_size <= overlap:
        raise ConfigError(
            f"chunk_size must exceed overlap >= 0, got chunk_size={chunk_size} overlap={overlap}"
        )


def segment(
    doc: Document,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    overlap: int = DEFAULT_OVERLAP,
) -> list[Chunk]:
    """Split a document body into chunks of ``chunk_size`` characters
    generated at stride ``chunk_size - overlap``.

    A trailing remainder shorter than the overlap is merged backward: its
    span is already covered by the previous chunk, so it is dropped.
    """
    check_chunking(chunk_size, overlap)
    body = doc.body
    n = len(body)
    starts = range(0, n, chunk_size - overlap)
    if len(starts) >= 2 and n - starts[-1] < overlap:
        starts = starts[:-1]
    doc_id = doc.doc_id
    chunks = []
    for start in starts:
        end = min(start + chunk_size, n)
        chunks.append(Chunk(chunk_id_for(doc_id, start, end), doc_id, start, end, body[start:end]))
    return chunks


def classify_datasource(
    docs: Iterable[Document], threshold: int = DEFAULT_LENGTH_THRESHOLD
) -> LengthClass:
    """Classify the combined datasource by total body length.

    A body of whitespace only holds no chunk, so it counts for nothing, and
    a datasource of no length at all is ``NONE``.
    """
    if threshold <= 0:
        raise ConfigError(f"length threshold must be positive, got {threshold}")
    total = sum(len(d.body) for d in docs if not d.body.isspace())
    if total == 0:
        return LengthClass.NONE
    return LengthClass.SHORT if total <= threshold else LengthClass.LONG


def _decode_utf8(data: bytes, origin: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{origin} is not valid UTF-8 text: {exc}") from None


def _encode_utf8(text: str, what: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate, as from a non-UTF-8 argv byte
        raise EncodingError(f"{what} is not valid UTF-8 text: {exc}") from None


def _fetch(url: str) -> bytes:
    """The body of the ``http`` or ``https`` URL ``url``, through the proxies
    the environment names. Any other URL is refused before anything is
    opened, and so is a redirect to one: no handler for ``file:``, ``ftp:``
    or ``data:`` URLs is installed.
    """
    parts = http_url(url)
    if parts is None:
        raise FetchError(f"cannot fetch {url}: not an http or https URL with a host")
    import http.client
    import urllib.error
    import urllib.request

    opener = urllib.request.OpenerDirector()
    for handler in (
        urllib.request.ProxyHandler(),
        urllib.request.UnknownHandler(),
        urllib.request.HTTPHandler(),
        urllib.request.HTTPSHandler(),
        urllib.request.HTTPDefaultErrorHandler(),
        urllib.request.HTTPRedirectHandler(),
        urllib.request.HTTPErrorProcessor(),
    ):
        opener.add_handler(handler)
    quoted = f"{parts.scheme}://{parts.netloc}{request_target(parts)}"
    try:
        with opener.open(quoted, timeout=30) as response:
            return response.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        raise FetchError(f"cannot fetch {url}: HTTP {exc.code}") from None
    except (OSError, ValueError, http.client.HTTPException) as exc:
        # URLError is an OSError; a malformed URL is a ValueError
        reason = getattr(exc, "reason", exc)
        raise FetchError(f"cannot fetch {url}: {reason}") from None


class Catalog:
    """Ordered collection of documents with unique ids.

    Mutation is single-writer (guarded by an internal lock); reads are safe
    to run concurrently with no writer.
    """

    def __init__(self):
        self._documents: dict[str, Document] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._documents)

    @property
    def documents(self) -> list[Document]:
        return list(self._documents.values())

    def get(self, doc_id: str) -> Document:
        try:
            return self._documents[doc_id]
        except KeyError:
            raise InputError(f"no document {doc_id!r} in catalog") from None

    def add(self, doc: Document) -> None:
        if not _DOC_ID_RE.fullmatch(doc.doc_id):
            raise InputError(
                f"doc_id {doc.doc_id!r} must match [A-Za-z0-9._-]+ (colon is reserved)"
            )
        with self._lock:
            if doc.doc_id in self._documents:
                raise InputError(f"duplicate doc_id {doc.doc_id!r}")
            self._documents[doc.doc_id] = doc

    def ingest(
        self,
        source: SourceKind | str,
        payload: str,
        metadata: Mapping[str, str] | None = None,
    ) -> Document:
        """Read a datasource, normalize it, and append it.

        ``payload`` is the text itself, a file path or a URL, by ``source``.
        A file or URL body must be UTF-8. Nothing is appended when fetching
        or decoding fails.
        """
        source = SourceKind(source)
        metadata = dict(metadata or {})
        if source is SourceKind.RAW_TEXT:
            body = payload
            default_title = "inline text"
        elif source is SourceKind.LOCAL_FILE:
            path = Path(payload)
            try:
                data = path.read_bytes()
            except OSError as exc:
                raise FetchError(f"cannot read {path}: {exc}") from None
            body = _decode_utf8(data, str(path))
            default_title = path.name
        else:  # SourceKind.URL_FETCH
            body = _decode_utf8(_fetch(payload), payload)
            default_title = payload

        body = normalize_text(body)
        what = f"{source.value} payload"
        # A default is made only for a key that is absent: the hash and the
        # clock cost something on every body. Encoding refuses a lone
        # surrogate, which only non-ASCII text can hold.
        if "doc_id" not in metadata:
            digest = hashlib.sha256(_encode_utf8(body, what)).hexdigest()[:8]
            metadata["doc_id"] = f"doc-{len(self._documents):04d}-{digest}"
        elif not body.isascii():
            _encode_utf8(body, what)
        if "fetched_at" not in metadata:
            metadata["fetched_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
        doc = Document(
            doc_id=metadata["doc_id"],
            title=metadata.get("title", default_title),
            source=source,
            body=body,
            fetched_at=metadata["fetched_at"],
            industry_tag=metadata.get("industry_tag"),
        )
        # The catalog could not be saved with a lone surrogate in a title
        # (say, a file name) either; only non-ASCII text can hold one.
        for name in ("title", "industry_tag", "fetched_at"):
            value = getattr(doc, name)
            if value is not None and not value.isascii():
                _encode_utf8(value, f"{source.value} {name}")
        self.add(doc)
        return doc

    def total_length(self) -> int:
        return sum(len(d.body) for d in self._documents.values())

    def chunk_all(
        self, chunk_size: int = DEFAULT_CHUNK_SIZE, overlap: int = DEFAULT_OVERLAP
    ) -> list[Chunk]:
        """Every document's chunks but those of whitespace only, which have
        nothing to embed or retrieve."""
        chunks: list[Chunk] = []
        for doc in self._documents.values():
            chunks.extend(c for c in segment(doc, chunk_size, overlap) if not c.text.isspace())
        return chunks

    def resolve_chunk(self, chunk_id: str) -> Chunk:
        """Rebuild a chunk from the offsets embedded in its id."""
        doc_id, start, end = parse_chunk_id(chunk_id)
        doc = self.get(doc_id)
        if end > len(doc.body) or start >= end:
            raise InputError(
                f"chunk {chunk_id!r} is out of bounds for document {doc_id!r}"
            )
        return Chunk(chunk_id, doc_id, start, end, doc.body[start:end])

    def save(self, path: str | Path) -> None:
        """Write the catalog in format 2 (see the module docstring). A string
        that UTF-8 cannot hold, a lone surrogate, ends in ``[save]`` and
        leaves no file."""
        docs = list(self._documents.values())

        def write(fh) -> None:
            bodies = [d.body.encode("utf-8") for d in docs]
            records = [
                {
                    "doc_id": d.doc_id,
                    "title": d.title,
                    "source": d.source.value,
                    "industry_tag": d.industry_tag,
                    "fetched_at": d.fetched_at,
                    "bytes": len(body),
                }
                for d, body in zip(docs, bodies)
            ]
            header = dump_json({**_FORMAT, "documents": records}, indent=None)
            fh.write(header.encode("utf-8") + b"\n")
            fh.writelines(bodies)

        write_file(path, "catalog", write, binary=True)

    @classmethod
    def load(cls, path: str | Path) -> "Catalog":
        """Read a catalog of format 2, or of format 1 (a JSON list of records)."""
        label = f"catalog {path}"
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise FormatError(f"cannot load {label}: {exc}") from None
        catalog = cls()
        first = _FIRST_BYTE_RE.match(data)
        if first is None or first[1] != b"{":
            for rec in parse_json(data, label, FormatError).elements((*_FIELDS, "body")):
                catalog._add_record(rec)
            return catalog

        end = data.find(b"\n", first.end())
        if end < 0:
            raise FormatError(f"{label}: the header line has no end")
        header = parse_json(data[:end], f"{label}: header", FormatError)
        records = header.declares(_FORMAT, ("documents",)).at("documents")
        view, start = memoryview(data), end + 1
        for rec in records.elements((*_FIELDS, "bytes")):
            size = rec.get("bytes", int)
            if size < 0:
                raise FormatError(f"{rec.where}.bytes must be >= 0, got {size}")
            end = start + size
            if end > len(data):
                raise FormatError(
                    f"{label}: the body of {rec.path} needs {size} bytes, "
                    f"but only {len(data) - start} are left"
                )
            try:
                body = str(view[start:end], "utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(
                    f"{label}: the body of {rec.path} is not valid UTF-8: {exc}"
                ) from None
            catalog._add_record(rec, body)
            start = end
        if start != len(data):
            raise FormatError(f"{label}: trailing bytes after the last body: {len(data) - start}")
        return catalog

    def _add_record(self, rec: Node, body: str | None = None) -> None:
        """Add the document of catalog record ``rec``, whose body is ``body``
        or, when that is None, the record's own ``body`` field."""
        doc = Document(
            doc_id=rec.get("doc_id", str),
            title=rec.get("title", str),
            source=rec.get("source", SourceKind),
            body=rec.get("body", str) if body is None else body,
            fetched_at=rec.get("fetched_at", str),
            industry_tag=rec.get("industry_tag", str, default=None, nullable=True),
        )
        try:
            self.add(doc)
        except InputError as exc:
            rec.fail(str(exc))
