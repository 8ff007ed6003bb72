"""Exact retrieval: oracle equivalence, tie-breaks, and persistence."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from carbonrag import (
    FormatError,
    IndexEntry,
    InputError,
    LexicalEncoder,
    VectorIndex,
    build_index,
)


def _random_index(rng, n, dims):
    index = VectorIndex(dims=dims)
    for i in range(n):
        index.insert(IndexEntry(chunk_id=f"doc:{i:08d}", vector=rng.normal(size=dims)))
    return index


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
        index = VectorIndex(dims=4)
        v = np.array([1.0, 0.0, 0.0, 0.0])
        for chunk_id in ("b:0", "a:0", "c:0"):
            index.insert(IndexEntry(chunk_id=chunk_id, vector=v))
        hits = index.top_k(v, k=3)
        assert [h.chunk_id for h in hits] == ["a:0", "b:0", "c:0"]
        assert all(h.similarity == 1.0 for h in hits)

    def test_k_larger_than_index_returns_everything(self):
        rng = np.random.default_rng(23)
        index = _random_index(rng, 6, 8)
        assert len(index.top_k(rng.normal(size=8), k=50)) == 6

    def test_empty_index_returns_no_hits(self):
        assert VectorIndex(dims=4).top_k(np.ones(4), k=3) == []

    def test_insert_normalizes_so_scale_does_not_matter(self):
        a = VectorIndex(dims=3)
        b = VectorIndex(dims=3)
        rng = np.random.default_rng(24)
        for i in range(10):
            v = rng.normal(size=3)
            a.insert(IndexEntry(chunk_id=f"c:{i}", vector=v))
            b.insert(IndexEntry(chunk_id=f"c:{i}", vector=1000.0 * v))
        query = rng.normal(size=3)
        for ha, hb in zip(a.top_k(query, k=10), b.top_k(query, k=10)):
            assert ha.chunk_id == hb.chunk_id
            np.testing.assert_allclose(ha.similarity, hb.similarity, atol=1e-12)

    def test_reinserting_an_id_replaces_the_vector(self):
        index = VectorIndex(dims=2)
        index.insert(IndexEntry(chunk_id="c:0", vector=np.array([1.0, 0.0])))
        index.insert(IndexEntry(chunk_id="c:0", vector=np.array([0.0, 1.0])))
        assert len(index) == 1
        (hit,) = index.top_k(np.array([0.0, 1.0]), k=1)
        assert hit.similarity == 1.0


class TestValidation:
    def test_query_errors(self):
        index = VectorIndex(dims=4)
        index.insert(IndexEntry(chunk_id="c:0", vector=np.ones(4)))
        with pytest.raises(InputError):
            index.top_k(np.ones(4), k=0)
        with pytest.raises(InputError):
            index.top_k(np.ones(3), k=1)
        with pytest.raises(InputError):
            index.top_k(np.zeros(4), k=1)
        with pytest.raises(InputError):
            index.top_k(np.ones((2, 2)), k=1)

    def test_insert_errors(self):
        index = VectorIndex(dims=4)
        with pytest.raises(InputError):
            index.insert(IndexEntry(chunk_id="c:0", vector=np.zeros(4)))
        with pytest.raises(InputError):
            index.insert(IndexEntry(chunk_id="c:0", vector=np.array([1.0, np.nan, 0.0, 0.0])))
        with pytest.raises(InputError):
            index.insert(IndexEntry(chunk_id="c:0", vector=np.ones(5)))
        with pytest.raises(InputError):
            index.insert(IndexEntry(chunk_id="c:0", vector=np.ones((2, 2))))

    def test_dims_are_locked_by_first_insert(self):
        index = VectorIndex()
        index.insert(IndexEntry(chunk_id="c:0", vector=np.ones(6)))
        assert index.dims == 6
        with pytest.raises(InputError):
            index.insert(IndexEntry(chunk_id="c:1", vector=np.ones(4)))


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
            ({"dims": 2, "entries": [{**entry, "chunk_id": ["c", 0]}]}, "entry 0: chunk_id"),
            ({"dims": 2, "entries": [{**entry, "chunk_id": 7}]}, "entry 0: chunk_id"),
        ):
            path.write_text(json.dumps(obj), encoding="utf-8")
            with pytest.raises(FormatError, match=message):
                VectorIndex.load(path)

    def test_load_without_dims_rejects_mixed_widths(self, tmp_path):
        path = tmp_path / "index.json"
        entries = [
            {"chunk_id": "c:0", "vector": [1.0, 0.0]},
            {"chunk_id": "c:1", "vector": [1.0, 0.0, 0.0]},
        ]
        path.write_text(json.dumps({"entries": entries}), encoding="utf-8")
        with pytest.raises(FormatError, match="entry 'c:1'"):
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
