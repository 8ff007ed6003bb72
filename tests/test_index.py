"""Exact retrieval: oracle equivalence, tie-breaks, and persistence."""

import json
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

from carbonrag import CarbonRagError, LexicalEncoder, RunConfig, Strategy, VectorIndex, build_index
from carbonrag.embedding import DualTowerEncoder, RemoteEncoder
from carbonrag.errors import FormatError, InputError
from carbonrag.evaluation import answer_query


# The encoder spec a hand-written manifest records; its rows are not this encoder's.
_SPEC = LexicalEncoder(dims=2).spec


def _random_index(rng, n, dims):
    """Random unit rows, saved with a lexical encoder of their width."""
    rows = rng.normal(size=(n, dims))
    unit_rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    ids = [f"doc:{i:08d}" for i in range(n)]
    return VectorIndex(ids, unit_rows, encoder=LexicalEncoder(dims=dims))


def _brute_force(index, query, k):
    """Reference ranking: cosine descending, chunk id ascending on ties."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    scored = [
        (float(np.dot(entry.vector, q)), entry.chunk_id) for entry in index.entries()
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [chunk_id for _, chunk_id in scored[:k]]


def _full_sort(index, query, k):
    """Reference ranking by a full stable sort of every clipped similarity:
    (chunk id, rank, similarity bytes) per hit."""
    entries = list(index.entries())
    rows = np.stack([e.vector for e in entries])
    q = np.asarray(query, dtype=np.float64)
    sims = np.clip(rows @ (q / np.linalg.norm(q)), -1.0, 1.0)
    order = np.argsort(-sims, kind="stable")[:k]
    return [
        (entries[i].chunk_id, rank, sims[i].tobytes()) for rank, i in enumerate(order, start=1)
    ]


def _tie_heavy_indexes(rng):
    """Indexes whose similarities hold many exact ties, with ids given out
    of row order: duplicated rows, and rows normalised from small integers."""
    distinct = rng.normal(size=(5, 6))
    distinct /= np.linalg.norm(distinct, axis=1, keepdims=True)
    duplicated = distinct[rng.integers(0, 5, size=40)]
    small = rng.integers(-2, 3, size=(80, 6)).astype(np.float64)
    small = small[np.any(small != 0, axis=1)]
    small /= np.linalg.norm(small, axis=1, keepdims=True)
    for rows in (duplicated, small):
        ids = [f"c:{i:03d}" for i in rng.permutation(len(rows))]
        yield VectorIndex(ids, rows), rows


class TestTopK:
    def test_equals_a_full_stable_sort_under_ties(self):
        rng = np.random.default_rng(24)
        split_ties = 0
        for index, rows in _tie_heavy_indexes(rng):
            n = len(index)
            queries = [rows[0], rows[3], rng.integers(-2, 3, size=6) + 0.5, rng.normal(size=6)]
            for query in queries:
                ranking = _full_sort(index, query, n)
                sims = [sim for _, _, sim in ranking]
                # each k whose boundary falls inside a run of equal similarities
                inside = [k for k in range(1, n) if sims[k - 1] == sims[k]]
                split_ties += len(inside)
                for k in {1, n - 1, n, n + 3, *inside}:
                    hits = index.top_k(query, k=k)
                    got = [(h.chunk_id, h.rank, np.float64(h.similarity).tobytes()) for h in hits]
                    assert got == ranking[:k], k
        assert split_ties > 0

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

    def test_similarities_past_one_are_clipped_to_exactly_one(self):
        # Rows of norm 1 + 5e-7 pass the unit-norm test, and their raw
        # similarities with the query fall just outside [-1, 1].
        v = np.array([0.6, 0.8, 0.0, 0.0])
        long = v * (1 + 5e-7)
        rows = np.stack([long, -long, np.array([0.0, 0.0, 1.0, 0.0]), long, -long])
        index = VectorIndex(["c:2", "c:3", "c:4", "c:0", "c:1"], rows)
        raw = rows @ v
        assert raw.max() > 1.0 and raw.min() < -1.0
        hits = index.top_k(v, k=5)
        assert [(h.chunk_id, h.similarity) for h in hits] == [
            ("c:0", 1.0),
            ("c:2", 1.0),
            ("c:4", 0.0),
            ("c:1", -1.0),
            ("c:3", -1.0),
        ]
        for k in range(1, 6):
            got = [
                (h.chunk_id, h.rank, np.float64(h.similarity).tobytes())
                for h in index.top_k(v, k=k)
            ]
            assert got == _full_sort(index, v, k)

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

    def test_tiny_query_ranks_like_its_rescaled_direction(self):
        # The squares of 1e-200 underflow, so the plain norm would read 0.
        index = VectorIndex(["a", "b", "c"], np.eye(3))
        assert index.top_k([1e-200, 1e-200, 0.0], 2) == index.top_k([1.0, 1.0, 0.0], 2)
        assert index.top_k([5e-324, 0.0, 0.0], 1) == index.top_k([1.0, 0.0, 0.0], 1)

    @pytest.mark.parametrize(
        "query",
        [
            pytest.param([np.nan, 0.0, 1.0], id="nan"),
            pytest.param([np.inf, 0.0, 1.0], id="inf"),
            pytest.param([0.0, -np.inf, 1.0], id="-inf"),
            pytest.param(
                [1e200, 1e200, 0.0],
                id="norm overflow",
                marks=pytest.mark.filterwarnings("ignore:overflow encountered"),
            ),
        ],
    )
    def test_non_finite_query_is_refused(self, query):
        index = VectorIndex(["a", "b", "c"], np.eye(3))
        with pytest.raises(InputError, match="not finite"):
            index.top_k(query, k=2)
        with pytest.raises(CarbonRagError, match="not finite") as err:
            answer_query(
                "q",
                Strategy.RAG_LONG,
                catalog=None,
                index=index,
                query_vector=np.array(query),
                backend=None,
                config=RunConfig(),
            )
        assert err.value.stage == "retrieve"

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
        with pytest.raises(InputError, match="encoder has 64 dims, the rows 4"):
            VectorIndex(["c:0"], [e0], encoder=RemoteEncoder("http://localhost:9/embed"))

    def test_unit_norm_tolerance(self):
        """A row is unit-norm within 1e-6: 1 +- 0.9e-6 passes and 1 +- 1.1e-6 fails."""
        rows = np.random.default_rng(5).normal(size=(4, 8))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        ids = [f"c:{i}" for i in range(4)]
        VectorIndex(ids, rows * np.array([[1 + 0.9e-6], [1 - 0.9e-6], [1.0], [1.0]]))
        for row, scale in ((1, 1 + 1.1e-6), (3, 1 - 1.1e-6)):
            scaled = rows.copy()
            scaled[row] *= scale
            with pytest.raises(InputError, match=rf"entry 'c:{row}' is not unit-norm"):
                VectorIndex(ids, scaled)

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

    def test_rows_already_in_id_order_are_kept_and_frozen(self):
        rows = np.eye(3)
        index = VectorIndex(["c:0", "c:1", "c:2"], rows)
        assert np.shares_memory(next(iter(index.entries())).vector, rows)
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0
        assert index.top_k(np.array([1.0, 0.0, 0.0]), k=1)[0].chunk_id == "c:0"


def _header(ids, **fields):
    return json.dumps(
        {"format": "carbonrag-index", "version": 3, "ids": ids, "encoder": _SPEC, **fields}
    )


def _write_index(path, ids, matrix, header=None):
    """A format-3 index written by hand: ``header`` (by default one that
    declares ``ids``), a newline, then the bytes of ``matrix`` as given.
    The header is not padded, so the rows may start at any offset."""
    header = _header(ids) if header is None else header
    raw = header.encode("utf-8", "surrogatepass") + b"\n" + np.asarray(matrix).tobytes()
    path.write_bytes(raw)


def _assert_same_rows(loaded, index):
    assert [e.chunk_id for e in loaded.entries()] == [e.chunk_id for e in index.entries()]
    for before, after in zip(index.entries(), loaded.entries()):
        assert after.vector.tobytes() == before.vector.tobytes()


_REBUILD = "; rebuild it with 'carbonrag index build'$"


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(25)
        index = _random_index(rng, 40, 8)
        path = tmp_path / "corpus.index"
        index.save(path)
        loaded = VectorIndex.load(path)
        assert len(loaded) == len(index)
        for before, after in zip(index.entries(), loaded.entries()):
            assert before.chunk_id == after.chunk_id
            np.testing.assert_array_equal(before.vector, after.vector)

    def test_round_trip_preserves_rankings(self, tmp_path):
        rng = np.random.default_rng(26)
        index = _random_index(rng, 60, 12)
        path = tmp_path / "corpus.index"
        index.save(path)
        loaded = VectorIndex.load(path)
        for _ in range(10):
            query = rng.normal(size=12)
            assert index.top_k(query, k=8) == loaded.top_k(query, k=8)

    def test_zero_rows_and_a_strided_matrix_round_trip(self, tmp_path):
        """A matrix the constructor kept as given, such as every other row
        of one, is written as its rows, not as the buffer it views."""
        strided = np.eye(4)[::2]
        assert not strided.flags.c_contiguous
        for index in (
            VectorIndex([], np.empty((0, 4)), encoder=LexicalEncoder(dims=4)),
            VectorIndex(["c:0", "c:1"], strided, encoder=LexicalEncoder(dims=4)),
        ):
            path = tmp_path / f"{len(index)}.index"
            index.save(path)
            loaded = VectorIndex.load(path)
            assert (len(loaded), loaded.dims) == (len(index), 4)
            _assert_same_rows(loaded, index)
            loaded.save(tmp_path / "again.index")
            assert (tmp_path / "again.index").read_bytes() == path.read_bytes()

    def test_save_writes_the_padded_header_line_then_the_raw_rows(self, tmp_path):
        """The header line ends in spaces up to a multiple of 8 bytes with its
        newline, so the little-endian rows after it start 8-byte aligned."""
        for n in range(1, 10):
            ids = [f"c:{i:0{n}d}" for i in range(n)]
            index = VectorIndex(ids, np.eye(n, 9), encoder=LexicalEncoder(dims=9))
            path = tmp_path / "corpus.index"
            index.save(path)
            spec = LexicalEncoder(dims=9).spec
            header = json.dumps({"format": "carbonrag-index", "version": 3, "ids": ids, "encoder": spec}).encode()
            padding = b" " * (-(len(header) + 1) % 8)
            assert path.read_bytes() == header + padding + b"\n" + np.eye(n, 9).astype("<f8").tobytes()
            assert (len(header) + len(padding) + 1) % 8 == 0

    def test_a_loaded_matrix_is_aligned_and_nothing_can_write_to_it(self, tmp_path):
        """The rows are a read-only view of the bytes read, which start at a
        multiple of 64 in memory, also when a hand-made header leaves them at
        an odd offset in the file."""
        path = tmp_path / "corpus.index"
        _random_index(np.random.default_rng(29), 5, 2).save(path)
        rows = np.array([[0.6, 0.8], [1.0, 0.0]])
        header = _header(["c:0", "c:1"])
        pad = next(pad for pad in range(8) if (len(header) + pad + 1) % 8)  # unaligned rows
        _write_index(tmp_path / "odd.index", ["c:0", "c:1"], rows, header + " " * pad)
        for file in (path, tmp_path / "odd.index"):
            loaded = VectorIndex.load(file)
            assert next(iter(loaded.entries())).vector.ctypes.data % 64 == 0
            for entry in loaded.entries():
                vector = entry.vector
                assert vector.flags.aligned and not vector.flags.writeable
                # Nothing that shares its memory can be made writable again.
                with pytest.raises(ValueError):
                    vector.flags.writeable = True
        loaded = VectorIndex.load(tmp_path / "odd.index")
        assert [e.vector.tolist() for e in loaded.entries()] == rows.tolist()

    def test_save_writes_exactly_the_given_path(self, tmp_path):
        index = _random_index(np.random.default_rng(27), 3, 4)
        for name in ("index.json", "index"):
            index.save(str(tmp_path / name))
            index.save(tmp_path / name)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index", "index.json"]

    def test_two_saves_are_byte_identical(self, tmp_path, monkeypatch):
        index = build_index(
            [SimpleNamespace(chunk_id=f"d:{i:08d}", text=f"anode {i} potline") for i in range(5)],
            LexicalEncoder(dims=16),
        )
        index.save(tmp_path / "a")
        # A save a day later: no clock reading may reach the file.
        later = time.time() + 86_400
        localtime = time.localtime
        monkeypatch.setattr(time, "time", lambda: later)
        monkeypatch.setattr(
            time, "localtime", lambda secs=None: localtime(later if secs is None else secs)
        )
        index.save(tmp_path / "b")
        VectorIndex.load(tmp_path / "b").save(tmp_path / "c")
        first = (tmp_path / "a").read_bytes()
        assert (tmp_path / "b").read_bytes() == first
        assert (tmp_path / "c").read_bytes() == first

    def test_non_ascii_ids_round_trip_exactly(self, tmp_path):
        ids = ["électricité:0", "电池:00000000-00000010", "c\x00", "c:0\x00\x00", "\U0001f600", "CO₂"]
        index = VectorIndex(ids, np.eye(len(ids)), encoder=LexicalEncoder(dims=len(ids)))
        index.save(tmp_path / "corpus.index")
        loaded = VectorIndex.load(tmp_path / "corpus.index")
        assert [e.chunk_id for e in loaded.entries()] == sorted(ids)
        for i, chunk_id in enumerate(ids):
            assert loaded.top_k(np.eye(len(ids))[i], k=1)[0].chunk_id == chunk_id

    def test_encoder_spec_round_trips(self, tmp_path):
        """A loaded index embeds as the encoder that built it, bit for bit."""
        chunks = [SimpleNamespace(chunk_id="d:00000000-00000005", text="anode carbon")]
        tower = DualTowerEncoder(matrix=np.random.default_rng(3).normal(size=(8, 32)))
        for encoder in (LexicalEncoder(dims=16), tower):
            index = build_index(chunks, encoder)
            assert index.encoder is encoder
            index.save(tmp_path / "corpus.index")
            loaded = VectorIndex.load(tmp_path / "corpus.index").encoder
            assert type(loaded) is type(encoder) and loaded.spec == encoder.spec
            texts = ["anode carbon", "potline power use"]
            np.testing.assert_array_equal(loaded.embed_batch(texts), encoder.embed_batch(texts))
        header = json.loads((tmp_path / "corpus.index").read_bytes().split(b"\n", 1)[0])
        assert header["encoder"] == {"kind": "toy_dual_tower", "dims": 8, "matrix": tower.matrix.tolist()}

    def test_what_the_header_cannot_hold_is_a_save_error(self, tmp_path):
        """A lone surrogate in a chunk id or an encoder endpoint is not text:
        saving fails as [save] and leaves no file, not even a temporary one."""
        e0 = [1.0] + [0.0] * 63
        for ids, encoder in (
            (["c:0", "x\ud800"], LexicalEncoder()),
            (["c:0"], RemoteEncoder("http://127.0.0.1:9/\udcff")),
        ):
            index = VectorIndex(ids, [e0] * len(ids), encoder=encoder)
            path = tmp_path / "corpus.index"
            with pytest.raises(FormatError, match="surrogates not allowed") as err:
                index.save(path)
            assert err.value.stage == "save"
            assert str(err.value).startswith(f"cannot write index {path}: ")
            assert list(tmp_path.iterdir()) == []

    def test_an_index_without_its_encoder_is_not_saved(self, tmp_path):
        """``query`` embeds with the index's encoder: an index without one is not saved."""
        bare = VectorIndex(["c:0"], [[1.0, 0.0]])
        assert bare.top_k(np.array([1.0, 0.0]), k=1)[0].chunk_id == "c:0"
        with pytest.raises(InputError, match="cannot save an index without the encoder"):
            bare.save(tmp_path / "corpus.index")
        assert not (tmp_path / "corpus.index").exists()

    def test_load_rejects_duplicate_ids(self, tmp_path):
        path = tmp_path / "corpus.index"
        _write_index(path, ["c:0", "c:0"], [[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(FormatError, match="duplicate chunk id 'c:0'"):
            VectorIndex.load(path)

    def test_load_rejects_non_unit_vectors(self, tmp_path):
        path = tmp_path / "corpus.index"
        for vector, norm in (
            ([3.0, 4.0], "5.0"),
            ([float("nan"), 0.0], "nan"),
            ([float("inf"), 0.0], "inf"),
        ):
            _write_index(path, ["c:0"], [vector])
            with pytest.raises(FormatError, match=rf"entry 'c:0'.*unit-norm \(norm {norm}\)"):
                VectorIndex.load(path)

    def test_load_rejects_wrong_shape(self, tmp_path):
        # The shape is the header's: len(ids) rows of encoder.dims values.
        path = tmp_path / "corpus.index"
        e0 = [1.0, 0.0]
        for ids, matrix, message in (
            (["c:0"], [e0, e0], "1 rows of 2 float64 values need 16 bytes after the header, got 32$"),
            (["c:0", "c:1"], [e0], "2 rows of 2 float64 values need 32 bytes after the header, got 16$"),
            ([], [e0], "0 rows of 2 float64 values need 0 bytes after the header, got 16$"),
            (["c:0"], np.empty((1, 0)), "need 16 bytes after the header, got 0$"),
            (["c:0"], np.array([[1.0, 0.0]], dtype=np.float32), "need 16 bytes after the header, got 8$"),
            (["c:0"], np.frombuffer(np.eye(1, 2).tobytes()[:15], np.uint8), "need 16 bytes after the header, got 15$"),
            # Any 16 bytes are two float64 values: the integers 1 and 0 read
            # as 5e-324 and 0, whose norm underflows.
            (["c:0"], np.array([[1, 0]], dtype=np.int64), r"entry 'c:0' is not unit-norm \(norm 0.0\)"),
            ([["c", 0]], [e0], r"chunk id \['c', 0\]"),
            ([7], [e0], "chunk id 7"),
            (["c:0", None], [e0, e0], "chunk id None"),
        ):
            _write_index(path, ids, matrix)
            with pytest.raises(FormatError, match=message):
                VectorIndex.load(path)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "corpus.index"
        for header, message in (
            ("{not json", "header is not JSON"),
            ('{"a": ' + "[" * 100_000, "header is not JSON"),
            ('{"ids": [], "ids": []}', "header is not JSON: duplicate key 'ids'"),
            ('{"\ud800": 1}', "header is not JSON: .*codec can't decode"),  # not UTF-8
            (json.dumps({"format": "carbonrag-index", "version": 2, "ids": []}), "header does not declare"),
            (json.dumps({"format": "carbonrag-index", "version": True, "ids": []}), "header does not declare"),
            (json.dumps({"ids": []}), "header does not declare"),
            # A declaration is exact in value and JSON type, as the catalog's is.
            (_header(["c:0"], format="carbonrag-catalog"), "header does not declare"),
            (_header(["c:0"], version=2), "header does not declare"),
            (_header(["c:0"], version=True), "header does not declare"),
            (_header(["c:0"], version="3"), "header does not declare"),
            (_header(["c:0"], version=3.0), "header does not declare"),
            (_header(["c:0"], extra=1), "header: unknown keys: extra"),
        ):
            _write_index(path, ["c:0"], [[1.0, 0.0]], header)
            with pytest.raises(FormatError, match=f"index {re.escape(str(path))}: {message}.*{_REBUILD}"):
                VectorIndex.load(path)
        for header, message in (
            (_header("c:0"), "header: ids must be a list, got 'c:0'"),
            (_header({"c:0": 0}), "header: ids must be a list, got {"),
            (_header(None), "header: ids must be a list, got None"),
            (_header(["c:0"], encoder="lexical"), "header: encoder must be an object, got"),
            (_header(["c:0"], encoder=None), "header: encoder must be an object, got None"),
            (json.dumps({"format": "carbonrag-index", "version": 3, "ids": []}), "header is missing 'encoder'"),
            (_header(["c\udc00"]), r"header holds a lone surrogate '\\udc00'"),
            # The encoder record is read as an encoder file is, and gives the rows their width.
            (_header(["c:0"], encoder={"kind": "mystery"}), "header: encoder: unknown kind 'mystery'"),
            (_header(["c:0"], encoder={**_SPEC, "dims": "2"}), "header: encoder.dims must be an integer"),
            (_header(["c:0"], encoder={**_SPEC, "seed": 0}), "header: encoder: unknown keys: seed"),
            (_header(["c:0"], encoder={**_SPEC, "dims": 3}), "1 rows of 3 float64 values need 24 bytes after the header, got 16"),
        ):
            _write_index(path, ["c:0"], [[1.0, 0.0]], header)
            with pytest.raises(FormatError, match=f"index {re.escape(str(path))}: {message}"):
                VectorIndex.load(path)

    def test_json_index_is_refused_with_a_rebuild_hint(self, tmp_path):
        """A JSON index from before version 2, on one line or on many, is
        refused as not format 3, and so are an empty file, a format-2
        ``.npz`` archive and a ``.npy`` array."""
        path = tmp_path / "corpus.index"
        old = {"dims": 2, "entries": [{"chunk_id": "c:0", "vector": [1.0, 0.0]}]}
        v2 = {"format": "carbonrag-index", "version": 2, "ids": ["c:0"], "encoder": _SPEC}
        first_byte = r"not a format-3 index \(its first byte is not '\{'\)"
        with open(tmp_path / "v2.index", "wb") as fh:
            np.savez(fh, matrix=np.eye(1, 2), manifest=np.frombuffer(json.dumps(v2).encode(), np.uint8))
        np.save(tmp_path / "rows.npy", np.eye(2))
        for data, message in (
            (b"", first_byte),
            ((tmp_path / "v2.index").read_bytes(), first_byte),
            ((tmp_path / "rows.npy").read_bytes(), first_byte),
            (b"[not json", first_byte),
            (json.dumps(old).encode(), "the header line has no end"),
            (json.dumps(old).encode() + b"\n", "header does not declare"),
            (json.dumps(old, indent=2).encode(), "header is not JSON"),
        ):
            path.write_bytes(data)
            with pytest.raises(FormatError, match=f"index {re.escape(str(path))}: {message}.*{_REBUILD}") as err:
                VectorIndex.load(path)
            assert err.value.stage_name == "load"

    def test_damaged_files_are_format_errors(self, tmp_path):
        path = tmp_path / "corpus.index"
        _random_index(np.random.default_rng(28), 20, 8).save(path)
        whole = path.read_bytes()
        header_end = whole.index(b"\n")
        for cut, message in (
            (4, "the header line has no end"),
            (header_end - 1, "the header line has no end"),
            (header_end + 1, "need 1280 bytes after the header, got 0"),
            (len(whole) // 2, "need 1280 bytes after the header, got"),
            (len(whole) - 10, "need 1280 bytes after the header, got 1270"),
        ):
            path.write_bytes(whole[:cut])
            with pytest.raises(FormatError, match=message):
                VectorIndex.load(path)
        for absent in (tmp_path / "absent.index", tmp_path):
            with pytest.raises(FormatError, match=f"cannot load index {re.escape(str(absent))}: "):
                VectorIndex.load(absent)


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
