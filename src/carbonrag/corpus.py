"""Datasource ingestion, normalization, segmentation, and length classification.

Documents hold normalized plain text. Chunk boundaries are a pure function
of ``(body, chunk_size, overlap)``, so the catalog persists documents only
and chunks are recomputed on load.

A catalog file (format 2) is a framed file (see ``_json``): one line of
JSON, the header
``{"format": "carbonrag-catalog", "version": 2, "documents": [...]}``, with
one record per document (``doc_id``, ``title``, ``source``,
``industry_tag``, ``fetched_at`` and ``bytes``, its body's UTF-8 length),
which may end in spaces, then a newline, then each body's UTF-8 bytes back
to back in record order and nothing after the last. The bodies are thus
neither escaped on save nor parsed on load. Only this form is read: a file
whose first byte is not ``{`` is refused as not a format-2 catalog.

Normalization rules (applied once, at ingest, to the body's UTF-8 bytes,
whatever the script: in UTF-8 the bytes 0x00-0x1F stand only for the C0
control characters; raw text is encoded, and so checked, first):
  1. CRLF becomes LF.
  2. Remaining C0 control characters other than LF become a single space.
  3. Runs of more than two blank lines collapse to two (four or more
     consecutive newlines become three).
"""

from __future__ import annotations

import hashlib
import operator
import re
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from ._http import fetch
from ._json import read_framed, write_framed
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
_FIELDS = ("doc_id", "title", "source", "industry_tag", "fetched_at", "bytes")
_FIELD_SET = frozenset(_FIELDS)
_RECORD = operator.itemgetter(*_FIELDS)
# The types of a record's fields as ``save`` writes them, tag null or not.
_PLAIN_TYPES = frozenset({(str, str, str, tag, str, int) for tag in (str, type(None))})


class SourceKind(str, Enum):
    LOCAL_FILE = "local_file"
    RAW_TEXT = "raw_text"
    URL_FETCH = "url_fetch"


_SOURCES = {kind.value: kind for kind in SourceKind}


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


def normalize_text(data: bytes) -> bytes:
    """UTF-8 ``data`` under the three rules; bytes that need no change come
    back as the same object."""
    # Searching for the one byte is much faster than for the pair.
    cleaned = data.replace(b"\r\n", b"\n") if b"\r" in data else data
    cleaned = cleaned.translate(_C0_EXCEPT_LF_TABLE)
    if b"\n\n\n\n" in cleaned:
        cleaned = re.sub(rb"\n{4,}", b"\n\n\n", cleaned)
    return data if cleaned == data else cleaned


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
    a datasource of no length at all is ``NONE``. The documents are read
    only up to the one that takes the total past ``threshold``: the rest
    cannot change a ``LONG``.
    """
    if threshold <= 0:
        raise ConfigError(f"length threshold must be positive, got {threshold}")
    total = 0
    for doc in docs:
        if not doc.body.isspace():
            total += len(doc.body)
            if total > threshold:
                return LengthClass.LONG
    return LengthClass.SHORT if total else LengthClass.NONE


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
        Raw text must encode as UTF-8 and a file or URL body must be UTF-8
        as read. Nothing is appended when fetching or either check fails.
        """
        source = SourceKind(source)
        metadata = dict(metadata or {})
        if source is SourceKind.RAW_TEXT:
            body, data = payload, _encode_utf8(payload, f"{source.value} payload")
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
            data = fetch(payload)
            body = _decode_utf8(data, payload)
            default_title = payload

        cleaned = normalize_text(data)
        if cleaned is not data:  # only ASCII bytes changed, so it is still UTF-8
            data, body = cleaned, cleaned.decode("utf-8")
        # A default is made only for a key that is absent: the hash and the
        # clock cost something on every body.
        if "doc_id" not in metadata:
            digest = hashlib.sha256(data).hexdigest()[:8]
            metadata["doc_id"] = f"doc-{len(self._documents):04d}-{digest}"
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

        def frame() -> tuple[dict, list[bytes]]:
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
            return {**_FORMAT, "documents": records}, bodies

        write_framed(path, "catalog", frame)

    @classmethod
    def load(cls, path: str | Path) -> "Catalog":
        """Read a catalog of format 2, the one form ``save`` writes.

        A record as ``save`` writes it passes plain type tests and is taken
        as it is; only one that fails them goes through the ``Node`` getters
        and ``add``, which name its fault in the order they always have."""
        header, payload = read_framed(path, "catalog", _FORMAT, ("documents",))
        label = f"catalog {path}"
        records = header.at("documents")
        rows = list(map(_plain_fields, records.expect(list)))
        # A record that is not an object or has a key save never writes is
        # named before any body is read.
        nodes = records.elements(_FIELDS) if None in rows else None
        catalog = cls()
        documents = catalog._documents  # no other thread can see it yet
        start = 0
        for i, fields in enumerate(rows):
            rec = None
            if fields is None or fields[0] in documents:  # add names a repeated id
                rec = (nodes or records.elements(_FIELDS))[i]
            size = fields[5] if rec is None else rec.get("bytes", int)
            if size < 0:
                raise FormatError(f"{rec.where}.bytes must be >= 0, got {size}")
            end = start + size
            if end > len(payload):
                raise FormatError(
                    f"{label}: the body of documents[{i}] needs {size} bytes, "
                    f"but only {len(payload) - start} are left"
                )
            try:
                body = str(payload[start:end], "utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(
                    f"{label}: the body of documents[{i}] is not valid UTF-8: {exc}"
                ) from None
            if rec is None:
                doc_id, title, source, industry_tag, fetched_at, _ = fields
                documents[doc_id] = Document(doc_id, title, source, body, fetched_at, industry_tag)
            else:
                doc = Document(
                    doc_id=rec.get("doc_id", str),
                    title=rec.get("title", str),
                    source=rec.get("source", SourceKind),
                    body=body,
                    fetched_at=rec.get("fetched_at", str),
                    industry_tag=rec.get("industry_tag", str, nullable=True),
                )
                try:
                    catalog.add(doc)
                except InputError as exc:
                    rec.fail(str(exc))
            start = end
        if start != len(payload):
            raise FormatError(f"{label}: trailing bytes after the last body: {len(payload) - start}")
        return catalog


def _plain_fields(rec) -> tuple | None:
    """The values of ``_FIELDS`` in ``rec``, the source as a ``SourceKind``,
    when ``rec`` is a record that the ``Node`` getters and ``add`` would
    take as it is, but for a doc id already in the catalog; else None."""
    if type(rec) is not dict or rec.keys() != _FIELD_SET:
        return None
    fields = _RECORD(rec)
    doc_id, title, source, industry_tag, fetched_at, size = fields
    if (
        tuple(map(type, fields)) in _PLAIN_TYPES
        and size >= 0
        and source in _SOURCES
        and _DOC_ID_RE.fullmatch(doc_id)
    ):
        return doc_id, title, _SOURCES[source], industry_tag, fetched_at, size
    return None
