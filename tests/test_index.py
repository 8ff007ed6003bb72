"""Exact retrieval: oracle equivalence, tie-breaks, and persistence."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from carbonrag import (
    FormatError,
    InputError,
    LexicalEncoder,
    VectorIndex,
    build_index,
)


def _random_index(rng, n, dims):
    rows = rng.normal(size=(n, dims))
    unit_rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return VectorIndex([f"doc:{i:08d}" for i in range(n)], unit_rows)


def _brute_force(index, query, k):
    """Reference ranking: cosine descending, chunk id ascending on ties."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    scored = [
        (float(np.dot(entry.vector, q)), entry.chunk_id) for entry in index.entries()
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [chunk_id for _, chunk_id in scored[:k]]


class TestTopK:
    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(20)
        index = _random_index(rng, 200, 16)
        for _ in range(25):
            query = rng.normal(size=16)
            hits = index.top_k(query, k=7)
            assert [h.chunk_id for h in hits] == _brute_force(index, query, 7)

    def test_ranks_are_one_based_and_sequential(self):
        rng = np.random.default_rng(21)
        index = _random_index(rng, 30, 8)
        hits = index.top_k(rng.normal(size=8), k=5)
        assert [h.rank for h in hits] == [1, 2, 3, 4, 5]

    def test_similarities_are_non_increasing(self):
        rng = np.random.default_rng(22)
        index = _random_index(rng, 50, 8)
        hits = index.top_k(rng.normal(size=8), k=10)
        sims = [h.similarity for h in hits]
        assert sims == sorted(sims, reverse=True)

    def test_equal_similarities_break_ties_by_ascending_id(self):
        v = np.array([1.0, 0.0, 0.0, 0.0])
        index = VectorIndex(["b:0", "a:0", "c:0"], np.stack([v, v, v]))
        hits = index.top_k(v, k=3)
        assert [h.chunk_id for h in hits] == ["a:0", "b:0", "c:0"]
        assert all(h.similarity == 1.0 for h in hits)

    def test_k_larger_than_index_returns_everything(self):
        rng = np.random.default_rng(23)
        index = _random_index(rng, 6, 8)
        assert len(index.top_k(rng.normal(size=8), k=50)) == 6

    def test_empty_index_returns_no_hits(self):
        assert VectorIndex([], np.empty((0, 4))).top_k(np.ones(4), k=3) == []


class TestValidation:
    def test_query_errors(self):
        index = VectorIndex(["c:0"], np.full((1, 4), 0.5))
        with pytest.raises(InputError):
            index.top_k(np.ones(4), k=0)
        with pytest.raises(InputError):
            index.top_k(np.ones(3), k=1)
        with pytest.raises(InputError):
            index.top_k(np.zeros(4), k=1)
        with pytest.raises(InputError):
            index.top_k(np.ones((2, 2)), k=1)

    def test_constructor_errors(self):
        e0 = [1.0, 0.0, 0.0, 0.0]
        for ids, matrix, message in (
            (["c:0"], np.zeros((1, 4)), r"entry 'c:0' is not unit-norm \(norm 0.0\)"),
            (["c:0"], [[1.0, np.nan, 0.0, 0.0]], r"entry 'c:0' is not unit-norm \(norm nan\)"),
            (["c:0", "c:1"], [e0, [1.0, 0.0, 0.0, 0.0, 0.0]], "not a numeric matrix"),
            (["c:0"], np.ones((1, 2, 2)), r"shape \(1, 2, 2\)"),
            (["c:0", "c:1"], [e0], r"2 chunk ids need a \(2, dims\) matrix"),
            (["c:1", "c:0", "c:1"], [e0, e0, e0], "duplicate chunk id 'c:1'"),
            (["c:0", 7], [e0, e0], "chunk id 7 is not a string"),
            (["c:0", "c:1"], [e0, [0.6, 0.0, 0.0, 0.0]], r"entry 'c:1' is not unit-norm"),
        ):
            with pytest.raises(InputError, match=message):
                VectorIndex(ids, matrix)

    def test_rows_are_sorted_by_id_and_read_only(self):
        rows = np.eye(3)
        index = VectorIndex(["c:2", "c:0", "c:1"], rows)
        assert [e.chunk_id for e in index.entries()] == ["c:0", "c:1", "c:2"]
        np.testing.assert_array_equal(
            np.stack([e.vector for e in index.entries()]), rows[[1, 2, 0]]
        )
        assert index.dims == 3
        rows[0, 0] = 0.0  # the caller's matrix is not the index's
        assert index.top_k(np.array([1.0, 0.0, 0.0]), k=1)[0].chunk_id == "c:2"
        with pytest.raises(ValueError):
            next(iter(index.entries())).vector[0] = 2.0


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(25)
        index = _random_index(rng, 40, 8)
        path = tmp_path / "index.json"
        index.save(path)
        loaded = VectorIndex.load(path)
        assert len(loaded) == len(index)
        for before, after in zip(index.entries(), loaded.entries()):
            assert before.chunk_id == after.chunk_id
            np.testing.assert_array_equal(before.vector, after.vector)

    def test_round_trip_preserves_rankings(self, tmp_path):
        rng = np.random.default_rng(26)
        index = _random_index(rng, 60, 12)
        path = tmp_path / "index.json"
        index.save(path)
        loaded = VectorIndex.load(path)
        for _ in range(10):
            query = rng.normal(size=12)
            assert index.top_k(query, k=8) == loaded.top_k(query, k=8)

    def test_load_rejects_duplicate_ids(self, tmp_path):
        path = tmp_path / "index.json"
        entry = {"chunk_id": "c:0", "vector": [1.0, 0.0]}
        path.write_text(json.dumps({"dims": 2, "entries": [entry, entry]}), encoding="utf-8")
        with pytest.raises(FormatError, match="duplicate"):
            VectorIndex.load(path)

    def test_load_rejects_non_unit_vectors(self, tmp_path):
        path = tmp_path / "index.json"
        for vector, norm in (
            ([3.0, 4.0], "5.0"),
            ([float("nan"), 0.0], "nan"),
            ([float("inf"), 0.0], "inf"),
        ):
            obj = {"dims": 2, "entries": [{"chunk_id": "c:0", "vector": vector}]}
            path.write_text(json.dumps(obj), encoding="utf-8")
            with pytest.raises(FormatError, match=rf"entry 'c:0'.*unit-norm \(norm {norm}\)"):
                VectorIndex.load(path)

    def test_load_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "index.json"
        entry = {"chunk_id": "c:0", "vector": [1.0, 0.0]}
        for obj, message in (
            ({"dims": 3, "entries": [entry]}, "entry 'c:0'"),
            ({"dims": "4", "entries": []}, "dims '4'"),
            ({"dims": "2", "entries": [entry]}, "dims '2'"),
            ({"dims": 0, "entries": []}, "dims 0"),
            ({"dims": 2, "entries": [{**entry, "chunk_id": ["c", 0]}]}, r"chunk id \['c', 0\]"),
            ({"dims": 2, "entries": [{**entry, "chunk_id": 7}]}, "chunk id 7"),
        ):
            path.write_text(json.dumps(obj), encoding="utf-8")
            with pytest.raises(FormatError, match=message):
                VectorIndex.load(path)

    def test_load_without_dims_rejects_mixed_widths(self, tmp_path):
        # A file without "dims" is rejected before any entry is read, so
        # entries of differing widths cannot slip in through it.
        path = tmp_path / "index.json"
        entries = [
            {"chunk_id": "c:0", "vector": [1.0, 0.0]},
            {"chunk_id": "c:1", "vector": [1.0, 0.0, 0.0]},
        ]
        for obj in ({"entries": entries}, {"entries": entries[:1]}):
            path.write_text(json.dumps(obj), encoding="utf-8")
            with pytest.raises(FormatError, match="dims None"):
                VectorIndex.load(path)

    def test_load_rejects_missing_entries(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text(json.dumps({"dims": 3}), encoding="utf-8")
        with pytest.raises(FormatError, match="entries"):
            VectorIndex.load(path)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text("[not json", encoding="utf-8")
        with pytest.raises(FormatError):
            VectorIndex.load(path)


class TestBuildIndex:
    def test_embeds_every_chunk_under_its_id(self):
        encoder = LexicalEncoder(dims=16)
        chunks = [
            SimpleNamespace(chunk_id="d:00000000-00000005", text="anode carbon"),
            SimpleNamespace(chunk_id="d:00000005-00000010", text="potline power"),
        ]
        index = build_index(chunks, encoder)
        assert len(index) == 2
        for chunk, entry in zip(chunks, index.entries()):
            assert entry.chunk_id == chunk.chunk_id
            np.testing.assert_array_equal(entry.vector, encoder.embed(chunk.text))
        (hit, _) = index.top_k(encoder.embed("anode carbon"), k=2)
        assert hit.chunk_id == "d:00000000-00000005"
        assert hit.similarity == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_chunk_id_is_rejected(self):
        chunks = [
            SimpleNamespace(chunk_id="d:00000000-00000005", text="anode carbon"),
            SimpleNamespace(chunk_id="d:00000000-00000005", text="potline power"),
        ]
        with pytest.raises(InputError, match="duplicate chunk id 'd:00000000-00000005'"):
            build_index(chunks, LexicalEncoder(dims=16))
