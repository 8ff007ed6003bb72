"""Exact top-K cosine retrieval over stored chunk vectors.

An index is built once, from all of its rows, and never changes after.
The index is a linear scan: every query is scored against every entry, so
results are identical to brute force by construction. Ranking does not sort
every similarity: a partial selection (``np.partition``) finds the k-th
largest, and only the rows at or above it are stable-sorted. Entries are
kept in chunk-id order, so two entries whose similarities are bitwise equal
rank by ascending chunk id, and the result equals a full stable sort cut to
k. Mathematically equal cosines can still differ by an ulp of rounding, and
are then ordered by that rounding.

An index file (format 3) is a framed file (see ``_json``), as the catalog
is: one line of JSON, the header
``{"format": "carbonrag-index", "version": 3, "ids": [...], "encoder": {...}}``,
with the chunk ids in row order and the spec of the encoder that built the
index, which ``load`` rebuilds; spaces up to a multiple of 8 bytes; a
newline; then the rows, ``len(ids) * encoder.dims`` little-endian float64
values in row (chunk-id) order. ``load`` reads the rows into 64-byte
aligned memory and uses them there, without a copy. Saving one index twice
gives the same bytes. Any other file, such as the ``.npz`` archive of
format 2, is refused with a hint to rebuild it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._json import read_framed, write_framed
from .embedding import _squared_norms, encoder_from_json
from .errors import FormatError, InputError

_NORM_TOLERANCE = 1e-6
# Below this norm a query's squared components may underflow to zero.
_TINY_NORM = float(np.sqrt(np.finfo(np.float64).tiny))
_FORMAT = {"format": "carbonrag-index", "version": 3}
_REBUILD = "rebuild it with 'carbonrag index build'"


def _aligned(size: int) -> np.ndarray:
    """``size`` bytes of new memory that start at a multiple of 64, for
    the rows ``load`` reads, whatever their offset in the file. The matrix
    product of ``top_k`` over 3,100 rows of 64 dims ran about 6 % slower on
    rows that did not start at a multiple of 32 bytes, and 4.6 times slower
    on rows not at a multiple of 8."""
    raw = np.empty(size + 63, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + size]


@dataclass(frozen=True, eq=False)
class IndexEntry:
    chunk_id: str
    vector: np.ndarray


@dataclass(frozen=True, slots=True)
class RetrievalHit:
    chunk_id: str
    similarity: float
    rank: int


class VectorIndex:
    """Unit vectors by chunk id, answering exact top-K queries.

    The index is immutable: one ``(ids, matrix)`` pair with rows in chunk-id
    order, so any number of readers may share it. ``encoder`` made the rows
    and embeds the queries; an index built from bare rows has None there,
    and can be queried with vectors but not saved.
    """

    def __init__(self, ids: Sequence[str], matrix, *, encoder=None):
        """Index row ``i`` of ``matrix`` under ``ids[i]``.

        Rows are stored bit for bit as given; each must be finite and
        unit-norm, and ids must be distinct strings.
        A float64 array whose ids are already in order is kept as it is,
        without a copy, and marked read-only: pass one that nothing else
        writes to. Any other matrix is copied, rows in id order.
        """
        ids = list(ids)
        for chunk_id in ids:
            if not isinstance(chunk_id, str):
                raise InputError(f"chunk id {chunk_id!r} is not a string")
        try:
            matrix = np.asarray(matrix, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InputError(f"index rows are not a numeric matrix: {exc}") from None
        if matrix.ndim != 2 or matrix.shape[0] != len(ids) or matrix.shape[1] == 0:
            raise InputError(
                f"{len(ids)} chunk ids need a ({len(ids)}, dims) matrix, got shape {matrix.shape}"
            )
        if not all(map(operator.lt, ids, ids[1:])):  # out of id order, or repeated
            order = sorted(range(len(ids)), key=ids.__getitem__)
            ids = [ids[row] for row in order]
            duplicate = next((a for a, b in zip(ids, ids[1:]) if a == b), None)
            if duplicate is not None:
                raise InputError(f"duplicate chunk id {duplicate!r}")
            matrix = matrix[order]
        norms = np.sqrt(_squared_norms(matrix))
        # A NaN or infinite row makes its norm NaN or inf, which fails this test.
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _NORM_TOLERANCE))
        if bad.size:
            row = bad[0]
            raise InputError(f"entry {ids[row]!r} is not unit-norm (norm {norms[row]})")
        if encoder is not None and encoder.dims != matrix.shape[1]:
            raise InputError(f"encoder has {encoder.dims} dims, the rows {matrix.shape[1]}")
        matrix.flags.writeable = False
        self._ids = ids
        self._matrix = matrix
        self.encoder = encoder

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def dims(self) -> int:
        return self._matrix.shape[1]

    def top_k(self, query: np.ndarray, k: int) -> list[RetrievalHit]:
        """The ``min(k, size)`` most similar entries, similarity descending,
        bitwise-equal similarities by ascending chunk id.

        Every entry is scored; the k-th largest similarity is found by
        partial selection and only the entries at or above it are sorted.
        A query too small for its norm to be taken directly is first scaled
        by its largest component. A query with a NaN or infinite component,
        whose norm overflows, or that is all zeros is an ``InputError``.
        """
        if k <= 0:
            raise InputError(f"k must be positive, got {k}")
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1:
            raise InputError("query vector must be 1-D")
        if query.shape[0] != self.dims:
            raise InputError(f"query has {query.shape[0]} dims, index has {self.dims}")
        norm = float(np.linalg.norm(query))
        # NaN or inf in the query makes the norm NaN or inf.
        if not np.isfinite(norm):
            raise InputError(f"query vector is not finite or its norm overflows (norm {norm})")
        if norm < _TINY_NORM:
            # x·x underflows for such a query: scale its largest component to 1.
            scale = float(np.max(np.abs(query), initial=0.0))
            if scale == 0.0:
                raise InputError("query vector is all zeros")
            query = query / scale
            norm = float(np.linalg.norm(query))

        ids = self._ids
        if not ids:
            return []
        # Clip before ordering: clipping can make similarities equal.
        sims = np.clip(self._matrix @ (query / norm), -1.0, 1.0)
        n = len(ids)
        k = min(k, n)
        kth = np.partition(sims, n - k)[n - k]
        # Every row at or above the k-th largest, in row (chunk-id) order, so a
        # tie straddling the k boundary is kept whole; the stable sort then
        # orders equal similarities by id, as a full stable sort would.
        candidates = np.flatnonzero(sims >= kth)
        order = candidates[np.argsort(-sims[candidates], kind="stable")[:k]]
        return [
            RetrievalHit(chunk_id=ids[i], similarity=float(sims[i]), rank=rank)
            for rank, i in enumerate(order, start=1)
        ]

    def entries(self) -> Iterable[IndexEntry]:
        return [
            IndexEntry(chunk_id=chunk_id, vector=self._matrix[row])
            for row, chunk_id in enumerate(self._ids)
        ]

    def save(self, path: str | Path) -> None:
        """Write the index in format 3 (see the module docstring)."""
        if self.encoder is None:
            raise InputError("cannot save an index without the encoder that built it")
        meta = {**_FORMAT, "ids": self._ids, "encoder": self.encoder.spec}
        # A matrix kept as the caller gave it may be strided or big-endian.
        rows = np.ascontiguousarray(self._matrix, dtype="<f8")
        write_framed(path, "index", lambda: (meta, [rows]))

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        try:
            meta, payload = read_framed(path, "index", _FORMAT, ("ids", "encoder"), _aligned)
        except FormatError as exc:
            raise FormatError(f"{exc}; {_REBUILD}") from None
        ids = meta.get("ids", list)
        encoder = encoder_from_json(meta.at("encoder"))
        size = len(ids) * encoder.dims * 8
        if len(payload) != size:
            raise FormatError(
                f"index {path}: {len(ids)} rows of {encoder.dims} float64 values need "
                f"{size} bytes after the header, got {len(payload)}"
            )
        # A view of the bytes read, so save/load round-trips bit-exactly.
        matrix = np.frombuffer(payload, "<f8").reshape(len(ids), encoder.dims)
        try:
            return cls(ids, matrix, encoder=encoder)
        except InputError as exc:
            raise FormatError(f"index {path}: {exc}") from None


def build_index(chunks, encoder) -> VectorIndex:
    """Embed all chunk texts in one ``embed_batch`` call and index each row,
    as the encoder returned it, under its chunk id."""
    chunks = list(chunks)
    matrix = encoder.embed_batch([chunk.text for chunk in chunks])
    return VectorIndex([chunk.chunk_id for chunk in chunks], matrix, encoder=encoder)
