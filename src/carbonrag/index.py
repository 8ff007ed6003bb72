"""Exact top-K cosine retrieval over stored chunk vectors.

The index is a linear scan: every query is scored against every entry, so
results are identical to brute force by construction. Entries are kept in
chunk-id order and ranking uses a stable sort, which makes equal
similarities break ties by ascending chunk id deterministically.
"""

from __future__ import annotations

import bisect
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import FormatError, InputError

DEFAULT_K = 5
_NORM_TOLERANCE = 1e-6


@dataclass(frozen=True, eq=False)
class IndexEntry:
    chunk_id: str
    vector: np.ndarray


@dataclass(frozen=True)
class RetrievalHit:
    chunk_id: str
    similarity: float
    rank: int


class VectorIndex:
    """Store unit vectors by chunk id and answer exact top-K queries.

    The index holds one ``(ids, matrix)`` pair with rows in chunk-id order.
    Writers build a new pair and swap it in under a lock; readers take the
    pair once, so concurrent readers are safe and a query never observes a
    partially inserted entry.
    """

    def __init__(
        self, dims: int | None = None, *, rows: Mapping[str, np.ndarray] | None = None
    ):
        """An empty index, or one holding ``rows``: unit vectors of width
        ``dims`` by chunk id, stored bit for bit as given."""
        if dims is not None and dims <= 0:
            raise InputError(f"dims must be positive, got {dims}")
        self._dims = dims
        self._lock = threading.Lock()
        ids = sorted(rows or ())
        matrix = np.stack([rows[i] for i in ids]) if ids else np.empty((0, dims or 0))
        if ids and matrix.shape[1] != dims:
            raise InputError(f"rows have {matrix.shape[1]} dims, index has {dims}")
        self._rows = (ids, matrix)

    def __len__(self) -> int:
        return len(self._rows[0])

    def __contains__(self, chunk_id: str) -> bool:
        return chunk_id in self._rows[0]

    @property
    def dims(self) -> int | None:
        return self._dims

    def insert(self, entry: IndexEntry) -> None:
        """Insert or replace the vector stored under ``entry.chunk_id``."""
        chunk_id = entry.chunk_id
        with self._lock:
            row = _unit_row(chunk_id, entry.vector, self._dims)
            self._dims = row.shape[0]
            ids, matrix = self._rows
            pos = bisect.bisect_left(ids, chunk_id)
            end = pos + (ids[pos : pos + 1] == [chunk_id])  # replace an equal id
            matrix = matrix.reshape(-1, self._dims)  # an index made without dims starts 0 x 0
            self._rows = (
                [*ids[:pos], chunk_id, *ids[end:]],
                np.concatenate([matrix[:pos], row[np.newaxis], matrix[end:]]),
            )

    def top_k(self, query: np.ndarray, k: int = DEFAULT_K) -> list[RetrievalHit]:
        """The ``min(k, size)`` most similar entries, similarity descending,
        ties by ascending chunk id."""
        if k <= 0:
            raise InputError(f"k must be positive, got {k}")
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1:
            raise InputError("query vector must be 1-D")
        if self._dims is not None and query.shape[0] != self._dims:
            raise InputError(
                f"query has {query.shape[0]} dims, index has {self._dims}"
            )
        norm = float(np.linalg.norm(query))
        if norm == 0.0:
            raise InputError("query vector is all zeros")

        ids, matrix = self._rows
        if not ids:
            return []
        sims = np.clip(matrix @ (query / norm), -1.0, 1.0)
        # Stable sort over id-ordered rows: equal similarities keep id order.
        order = np.argsort(-sims, kind="stable")[: min(k, len(ids))]
        return [
            RetrievalHit(chunk_id=ids[i], similarity=float(sims[i]), rank=rank)
            for rank, i in enumerate(order, start=1)
        ]

    def entries(self) -> Iterable[IndexEntry]:
        ids, matrix = self._rows
        return [IndexEntry(chunk_id=i, vector=matrix[row]) for row, i in enumerate(ids)]

    def save(self, path: str | Path) -> None:
        ids, matrix = self._rows
        obj = {
            "dims": self._dims,
            "entries": [
                {"chunk_id": chunk_id, "vector": matrix[row].tolist()}
                for row, chunk_id in enumerate(ids)
            ],
        }
        Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        path = Path(path)
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"cannot load index {path}: {exc}") from None
        if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
            raise FormatError(f"index {path} is missing the entries array")
        dims = obj.get("dims")
        if dims is not None and (type(dims) is not int or dims <= 0):
            raise FormatError(f"index {path}: dims {dims!r} is not a positive integer")
        rows: dict[str, np.ndarray] = {}
        for i, rec in enumerate(obj["entries"]):
            try:
                chunk_id = rec["chunk_id"]
                vector = np.asarray(rec["vector"], dtype=np.float64)
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"index {path}, entry {i}: {exc}") from None
            if not isinstance(chunk_id, str):
                raise FormatError(
                    f"index {path}, entry {i}: chunk_id {chunk_id!r} is not a string"
                )
            if chunk_id in rows:
                raise FormatError(f"index {path}, entry {i}: duplicate chunk_id {chunk_id!r}")
            if vector.ndim != 1 or (dims is not None and vector.shape[0] != dims):
                raise FormatError(
                    f"index {path}, entry {chunk_id!r}: vector shape {vector.shape} != ({dims},)"
                )
            dims = vector.shape[0]  # without a "dims" key the first entry fixes the width
            norm = float(np.linalg.norm(vector))
            # A NaN or infinite entry makes the norm NaN or inf, which fails this test.
            if not abs(norm - 1.0) <= _NORM_TOLERANCE:
                raise FormatError(
                    f"index {path}, entry {chunk_id!r}: vector is not unit-norm (norm {norm})"
                )
            # Stored vectors are already unit-norm; they are kept without
            # re-normalization so save/load round-trips bit-exactly.
            rows[chunk_id] = vector
        return cls(dims=dims, rows=rows)


def _unit_row(chunk_id: str, vector, dims: int | None) -> np.ndarray:
    """Check the vector for ``chunk_id`` and scale it to unit norm."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.ndim != 1:
        raise InputError(f"vector for {chunk_id!r} must be 1-D")
    if not np.all(np.isfinite(vector)):
        raise InputError(f"vector for {chunk_id!r} has non-finite values")
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise InputError(f"vector for {chunk_id!r} is all zeros")
    if dims is not None and vector.shape[0] != dims:
        raise InputError(f"vector for {chunk_id!r} has {vector.shape[0]} dims, index has {dims}")
    return vector / norm


def build_index(chunks, encoder) -> VectorIndex:
    """Embed all chunk texts in one ``embed_batch`` call and index each row,
    as the encoder returned it, under its chunk id."""
    chunks = list(chunks)
    matrix = encoder.embed_batch([chunk.text for chunk in chunks])
    rows = {chunk.chunk_id: row for chunk, row in zip(chunks, matrix)}
    return VectorIndex(dims=encoder.dims, rows=rows)
