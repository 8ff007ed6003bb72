"""Hashing, cosine, encoders, and the contrastive trainer."""

import http.server
import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonrag import LexicalEncoder, RemoteEncoder, build_index, embedding, encoder_from_spec
from carbonrag._json import parse_json, write_json
from carbonrag.embedding import (
    _BLOCK_CHARS,
    _BLOCK_TEXTS,
    _KERNEL_MAX_TOKEN,
    _KERNEL_MIN_CHARS,
    _TOKEN_RE,
    _ZERO_ROW_WARNING,
    DEFAULT_FEATURE_DIMS,
    DualTowerEncoder,
    TrainingPair,
    _fnv1a64,
    _loss_and_grad,
    _pair_cosine_grad,
    _tower_features,
    _unit_rows,
    cosine_similarity,
    encoder_from_json,
    hashed_counts,
    load_encoder,
    tokenize,
    train_dual_tower,
)
from carbonrag.errors import ConfigError, FormatError, InputError, TransportError


# Characters where a translate table could part from ``[^\W_]+`` of the
# lowercased text: the underscore, digits, NUL, the \x1c-\x1f separators
# (whitespace to ``str.split``), DEL, and two letters whose lowercase is
# ASCII or longer: the Kelvin sign and the dotted capital I.
_TRICKY = "_09aZ \x00\x1c\x1d\x1e\x1f\x7f\u212a\u0130"
# Every whitespace char of str.strip, ASCII and Unicode, then chars that only
# look like it (zero-width spaces, the Mongolian vowel separator, the BOM) and
# a letter.
_BLANKS = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
    "\u180e\u200b\u2060\ufeffa"
)
_TOKENIZER_TEXTS = (
    st.text(alphabet=st.characters(max_codepoint=127) | st.sampled_from(_TRICKY))
    | st.text(alphabet=st.characters() | st.sampled_from(_TRICKY))
)


class TestTokenHashing:
    def test_fnv1a64_matches_published_vectors(self):
        """Frozen reference values for the standard 64-bit FNV-1a function."""
        assert _fnv1a64(b"") == 0xCBF29CE484222325
        assert _fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert _fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_tokenize_lowercases_and_splits(self):
        assert tokenize("CO2-eq per kWh_3") == [b"co2", b"eq", b"per", b"kwh", b"3"]

    def test_tokenize_empty(self):
        assert tokenize("  ... !!") == []

    @settings(max_examples=300, deadline=None)
    @given(text=_TOKENIZER_TEXTS)
    def test_tokenize_is_the_regex_on_any_text(self, text):
        """The ASCII translate and the regex path give the regex's tokens."""
        assert tokenize(text) == [w.encode("utf-8") for w in _TOKEN_RE.findall(text.lower())]

    def test_counts_are_deterministic_and_sum_to_token_count(self):
        counts = hashed_counts(["one two two three"], 16)[0]
        assert counts.sum() == 4.0
        np.testing.assert_array_equal(counts, hashed_counts(["one two two three"], 16)[0])

    def test_counts_respect_dims(self):
        assert hashed_counts(["alpha beta"], 7)[0].shape == (7,)


class TestCosineSimilarity:
    def test_identical_vectors_score_one(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == 1.0

    def test_opposite_vectors_score_minus_one(self):
        v = np.array([1.0, 0.0])
        assert cosine_similarity(v, -v) == -1.0

    def test_orthogonal_vectors_score_zero(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = rng.normal(size=(2, 32))
            assert abs(cosine_similarity(a, b) - cosine_similarity(b, a)) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(InputError):
            cosine_similarity(np.zeros(4), np.ones(4))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            cosine_similarity(np.ones(3), np.ones(4))


class TestLexicalEncoder:
    def test_embeddings_are_unit_norm(self):
        enc = LexicalEncoder()
        v = enc.embed("electricity for the potlines")
        assert v.shape == (enc.dims,)
        np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-12)

    def test_same_text_same_vector(self):
        enc = LexicalEncoder()
        np.testing.assert_array_equal(enc.embed("anode carbon"), enc.embed("anode carbon"))

    def test_empty_text_rejected(self):
        with pytest.raises(InputError):
            LexicalEncoder().embed("   ")

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(alphabet=_BLANKS), st.text()))
    def test_a_text_is_refused_exactly_when_strip_leaves_nothing(self, text):
        """``isspace`` knows the same whitespace as ``strip``, without its copy."""
        try:
            embedding._require_text(text)
        except InputError:
            assert not text.strip()
        else:
            assert text.strip()

    def test_tokenless_text_falls_back_to_basis_vector(self, caplog):
        with caplog.at_level("WARNING"):
            v = LexicalEncoder(dims=8).embed("!!! ???")
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_array_equal(v, expected)
        assert any("zero vector" in m or "e_0" in m for m in caplog.messages)


class TestDualTowerEncoder:
    def _encoder(self, dims=8, feature_dims=32, seed=5):
        rng = np.random.default_rng(seed)
        return DualTowerEncoder(matrix=rng.normal(size=(dims, feature_dims)))

    def test_matrix_is_read_only(self):
        enc = self._encoder()
        with pytest.raises(ValueError):
            enc.matrix[0, 0] = 1.0

    def test_embeddings_are_unit_norm(self):
        enc = self._encoder()
        for text in ("bath ratio", "current efficiency", "rail freight distance"):
            np.testing.assert_allclose(np.linalg.norm(enc.embed(text)), 1.0, atol=1e-12)

    def test_non_2d_matrix_rejected(self):
        with pytest.raises(ConfigError):
            DualTowerEncoder(matrix=np.ones(3))

    def test_non_finite_matrix_rejected(self, tmp_path):
        for bad in (np.nan, np.inf):
            matrix = np.ones((2, 3))
            matrix[1, 2] = bad
            with pytest.raises(ConfigError, match="non-finite"):
                DualTowerEncoder(matrix=matrix)
            path = tmp_path / "tower.json"
            obj = {"kind": "toy_dual_tower", "dims": 2, "matrix": matrix.tolist()}
            path.write_text(json.dumps(obj), encoding="utf-8")
            with pytest.raises(FormatError, match="non-finite"):
                load_encoder(path)


_BATCH = ["bath ratio", "anode carbon consumption", "!!!", "rail freight distance"]

_LOCAL_ENCODERS = pytest.mark.parametrize(
    "encoder",
    [
        LexicalEncoder(dims=16),
        DualTowerEncoder(matrix=np.random.default_rng(5).normal(size=(8, 32))),
    ],
    ids=["lexical", "dual_tower"],
)


@_LOCAL_ENCODERS
def test_embed_is_bit_identical_to_its_batch_row(encoder):
    matrix = encoder.embed_batch(_BATCH)
    assert matrix.shape == (len(_BATCH), encoder.dims)
    for i, text in enumerate(_BATCH):
        np.testing.assert_array_equal(encoder.embed(text), matrix[i])
        np.testing.assert_array_equal(encoder.embed_batch(_BATCH[i:])[0], matrix[i])
    assert encoder.embed_batch([]).shape == (0, encoder.dims)


_WORDS = ["bath", "ratio", "CO₂", "émission", "电池", "kWh_3", "!!!", "anode"]
# A list of up to 8 texts, repeated up to 60 times: long batches reach the
# block kernel of ``hashed_counts``, short ones do not.
_TEXTS = st.tuples(
    st.lists(
        st.lists(st.sampled_from(_WORDS) | st.text(max_size=6), min_size=1, max_size=12)
        .map(" ".join)
        .filter(str.strip),
        max_size=8,
    ),
    st.integers(1, 60),
).map(lambda p: p[0] * p[1])


@_LOCAL_ENCODERS
@settings(max_examples=60, deadline=None)
@given(texts=_TEXTS)
def test_every_batch_row_is_bit_identical_to_embed(encoder, texts):
    """Rows are counted in blocks or text by text, yet each equals its own embed."""
    matrix = encoder.embed_batch(texts)
    assert matrix.shape == (len(texts), encoder.dims)
    alone = {text: encoder.embed(text).tobytes() for text in set(texts)}
    for text, row in zip(texts, matrix):
        assert alone[text] == row.tobytes()


def _oracle_counts(text, dims):
    """Hash every regex token occurrence on its own: the loop `hashed_counts` replaced."""
    counts = np.zeros(dims, dtype=np.float64)
    for token in _TOKEN_RE.findall(text.lower()):
        counts[_fnv1a64(token.encode("utf-8")) % dims] += 1.0
    return counts


def _oracle_unit(vector):
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        return np.eye(len(vector))[0]
    return vector / norm


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 300),
    # Each row's scale exponent; None makes the row all zeros. Below 1e-162
    # the squares underflow to a zero norm; above 1e150 they could overflow.
    exponents=st.lists(st.none() | st.integers(-170, 150), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_unit_rows_divides_each_row_by_its_own_norm(width, exponents, seed):
    """Bit for bit ``row / np.linalg.norm(row)``; a zero row is e_0, with one warning."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((len(exponents), width))
    for row, exponent in zip(rows, exponents):
        if exponent is not None:
            row[:] = rng.normal(size=width) * 10.0**exponent
    texts = [f"text {i}" for i in range(len(rows))]
    with mock.patch.object(embedding.logger, "warning") as warning:
        unit = _unit_rows(rows.copy(), texts)
    norms = [np.linalg.norm(row) for row in rows]
    zeros = [i for i, norm in enumerate(norms) if norm == 0.0]
    assert warning.call_args_list == [mock.call(_ZERO_ROW_WARNING, texts[i]) for i in zeros]
    assert unit.shape == rows.shape
    for i, (row, norm) in enumerate(zip(rows, norms)):
        expected = np.eye(width)[0] if i in zeros else row / norm
        assert unit[i].tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    texts=_TEXTS,
    dims=st.integers(1, 80),
    feature_dims=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_tower_rows_are_each_texts_own_projection(texts, dims, feature_dims, seed):
    """A batch row is ``matrix @ f``, normalised, for its own text's features ``f``."""
    matrix = np.random.default_rng(seed).normal(size=(dims, feature_dims))
    rows = DualTowerEncoder(matrix=matrix).embed_batch(texts)
    assert rows.shape == (len(texts), dims)
    for text, row in zip(texts, rows):
        projection = matrix @ _tower_features([text], feature_dims)[0]
        assert row.tobytes() == _oracle_unit(projection).tobytes()


class TestHashedCountsOracle:
    # Multi-byte UTF-8 tokens, tokens repeated within and across rows, a
    # tokenless row, and an ASCII row with control characters and underscores.
    _UNICODE_BATCH = [
        "CO₂ émission 电池",
        "电池 émission émission co₂",
        "!!!",
        "CO₂ co₂ bath",
        "Bath\x00RATIO\x1cco2\x1f_kWh_3\x7fbath\tx",
    ]

    @pytest.fixture()
    def batches(self, aluminum_catalog):
        chunks = [c.text for c in aluminum_catalog.chunk_all(1000, 200)]
        return [chunks, self._UNICODE_BATCH]

    @pytest.mark.parametrize("dims", [64, 7, 256])
    def test_counts_match_the_oracle(self, batches, dims):
        for texts in batches:
            expected = np.stack([_oracle_counts(t, dims) for t in texts])
            np.testing.assert_array_equal(hashed_counts(texts, dims), expected)
            for text, row in zip(texts, expected):
                np.testing.assert_array_equal(hashed_counts([text], dims)[0], row)
        assert hashed_counts([], dims).shape == (0, dims)

    def test_lexical_rows_match_the_oracle(self, batches):
        enc = LexicalEncoder(dims=64)
        for texts in batches:
            expected = np.stack([_oracle_unit(_oracle_counts(t, 64)) for t in texts])
            assert enc.embed_batch(texts).tobytes() == expected.tobytes()
        np.testing.assert_array_equal(enc.embed("!!!"), np.eye(64)[0])

    def test_dual_tower_rows_match_the_oracle(self, batches):
        matrix = np.random.default_rng(11).normal(size=(16, 96))
        enc = DualTowerEncoder(matrix=matrix)
        for texts in batches:
            rows = []
            for text in texts:
                counts = _oracle_counts(text, 96)
                norm = float(np.linalg.norm(counts))
                features = counts / norm if norm > 0.0 else counts
                rows.append(_oracle_unit(matrix @ features))
            assert enc.embed_batch(texts).tobytes() == np.stack(rows).tobytes()


def _assert_counts_are_the_oracle(texts, dims):
    expected = np.zeros((len(texts), dims))
    for row, text in zip(expected, texts):
        row[:] = _oracle_counts(text, dims)
    assert hashed_counts(texts, dims).tobytes() == expected.tobytes()


_KERNEL_PIECES = st.one_of(
    # ASCII, with separators, control bytes and tokenless texts
    st.text(alphabet=st.sampled_from("aZ09 _-.\x00\x1f\n"), max_size=40),
    # mostly non-ASCII
    st.text(alphabet=st.sampled_from("aK9 é电\u212a\u0130"), max_size=20),
    # one token on either side of the numpy hashing cap
    st.text(alphabet="ab19", min_size=_KERNEL_MAX_TOKEN - 2, max_size=3 * _KERNEL_MAX_TOKEN),
)


class TestBlockKernel:
    """``hashed_counts`` on batches that take its block kernel, or just miss it."""

    @settings(max_examples=60, deadline=None)
    @given(
        pieces=st.lists(_KERNEL_PIECES, min_size=1, max_size=12),
        n=st.integers(1, 2 * _BLOCK_TEXTS + 10),
        dims=st.sampled_from([1, 7, 64, 4096]),
    )
    def test_counts_are_the_oracle_on_any_batch(self, pieces, n, dims):
        """Up to two block boundaries; ASCII and non-ASCII texts interleaved;
        batches on both sides of the small-batch cut."""
        _assert_counts_are_the_oracle([pieces[i % len(pieces)] for i in range(n)], dims)

    @pytest.mark.parametrize(
        "texts, blocks",
        [
            (["ab1 " * (_KERNEL_MIN_CHARS // 4 - 1) + "ab", "é"], []),
            (["ab1 " * (_KERNEL_MIN_CHARS // 4 - 1) + "ab", "é "], [2]),
            (["émission 电池 " * 40] * 10, [10]),
            (["x" * (_KERNEL_MIN_CHARS // 8) + " !"] * (_BLOCK_TEXTS + 1), [_BLOCK_TEXTS, 1]),
            (["é"] + ["a b " * (_BLOCK_CHARS // 8)] * 3 + ["..."], [3, 2]),
        ],
        ids=[
            "below the cut",
            "at the cut",
            "non-ASCII only",
            "past the text bound",
            "past the char bound",
        ],
    )
    def test_block_boundaries(self, monkeypatch, texts, blocks):
        """The cut counts every char; non-ASCII texts join the blocks."""
        sizes = []
        kernel = embedding._block_counts

        def spy(block, dims):
            sizes.append(len(block))
            return kernel(block, dims)

        monkeypatch.setattr(embedding, "_block_counts", spy)
        _assert_counts_are_the_oracle(texts, 64)
        assert sizes == blocks

    def test_a_one_megabyte_token_is_the_oracle(self):
        letters = np.random.default_rng(1).integers(ord("a"), ord("z") + 1, 1 << 20, dtype=np.uint8)
        _assert_counts_are_the_oracle([letters.tobytes().decode("ascii"), "rail"], 64)

    def test_zero_rows_inside_a_large_batch_become_e0(self, caplog):
        texts = ["anode carbon consumption per tonne"] * 300
        zero_at = (0, 7, 150, 299)
        for i in zero_at:
            texts[i] = "!!!" + "-" * i
        enc = LexicalEncoder(dims=16)
        with caplog.at_level("WARNING", logger="carbonrag.embedding"):
            matrix = enc.embed_batch(texts)
        expected = np.stack([_oracle_unit(_oracle_counts(t, 16)) for t in texts])
        assert matrix.tobytes() == expected.tobytes()
        assert [i for i, row in enumerate(matrix) if row.tobytes() == np.eye(16)[0].tobytes()] == list(zero_at)
        assert caplog.messages == [
            f"embedding of {texts[i][:40]!r} is a zero vector; using basis e_0" for i in zero_at
        ]


class TestPairGradient:
    def test_matches_finite_differences(self):
        """Analytic cosine gradient vs central differences on small matrices."""
        rng = np.random.default_rng(17)
        for _ in range(5):
            W = rng.normal(size=(4, 6))
            fa = rng.normal(size=6)
            fb = rng.normal(size=6)
            s, grad = _pair_cosine_grad(W, fa, fb)
            eps = 1e-6
            numeric = np.zeros_like(W)
            for i in range(W.shape[0]):
                for j in range(W.shape[1]):
                    up = W.copy()
                    up[i, j] += eps
                    down = W.copy()
                    down[i, j] -= eps
                    s_up, _ = _pair_cosine_grad(up, fa, fb)
                    s_down, _ = _pair_cosine_grad(down, fa, fb)
                    numeric[i, j] = (s_up - s_down) / (2 * eps)
            np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_degenerate_projection_contributes_nothing(self):
        s, grad = _pair_cosine_grad(np.zeros((3, 4)), np.ones(4), np.ones(4))
        assert s == 0.0
        np.testing.assert_array_equal(grad, np.zeros((3, 4)))


_PAIRS = [
    TrainingPair("electricity for aluminum electrolysis", "potline power demand electricity", True),
    TrainingPair("anode carbon consumption", "prebaked anode carbon usage", True),
    TrainingPair("alumina feed purity", "smelter grade alumina quality", True),
    TrainingPair("electricity for aluminum electrolysis", "rail freight wagon cycle", False),
    TrainingPair("anode carbon consumption", "casthouse furnace temperature", False),
    TrainingPair("alumina feed purity", "fluoride bath chemistry", False),
]


class TestTrainer:
    def test_zero_epochs_returns_the_initialization(self):
        result = train_dual_tower(_PAIRS, dims=8, epochs=0, seed=9)
        features = DEFAULT_FEATURE_DIMS
        expected = np.random.default_rng(9).normal(
            0.0, 1.0 / np.sqrt(features), size=(8, features)
        )
        np.testing.assert_array_equal(result.encoder.matrix, expected)
        assert len(result.losses) == 1
        assert result.initial_loss == result.final_loss

    def test_loss_decreases_on_a_separable_set(self):
        result = train_dual_tower(_PAIRS, dims=16, epochs=40, seed=0)
        assert result.final_loss <= result.initial_loss

    def test_training_is_deterministic(self):
        a = train_dual_tower(_PAIRS, dims=8, epochs=10, seed=3)
        b = train_dual_tower(_PAIRS, dims=8, epochs=10, seed=3)
        np.testing.assert_array_equal(a.encoder.matrix, b.encoder.matrix)
        assert a.losses == b.losses

    def test_unrelated_pair_below_margin_is_free(self):
        """The hinge charges nothing once an unrelated cosine is under margin."""
        W = np.eye(2)
        feats = [(np.array([1.0, 0.0]), np.array([0.0, 1.0]), False)]
        assert _loss_and_grad(W, feats, margin=0.2)[0] == 0.0

    def test_related_pair_loss_is_one_minus_cosine(self):
        W = np.eye(2)
        feats = [(np.array([1.0, 0.0]), np.array([1.0, 0.0]), True)]
        assert _loss_and_grad(W, feats, margin=0.2)[0] == pytest.approx(0.0, abs=1e-12)

    def test_requires_both_pair_polarities(self):
        with pytest.raises(ConfigError):
            train_dual_tower([p for p in _PAIRS if p.related])
        with pytest.raises(ConfigError):
            train_dual_tower([p for p in _PAIRS if not p.related])

    def test_requires_nonempty_texts(self):
        bad = [_PAIRS[0], _PAIRS[3], TrainingPair("", "x", True)]
        with pytest.raises(InputError):
            train_dual_tower(bad)

    def test_requires_pairs(self):
        with pytest.raises(ConfigError):
            train_dual_tower([])


class TestEncoderPersistence:
    def test_dual_tower_round_trip_is_bit_exact(self, tmp_path):
        result = train_dual_tower(_PAIRS, dims=8, epochs=5, seed=1)
        path = tmp_path / "tower.json"
        write_json(path, "encoder", result.encoder.spec)
        loaded = load_encoder(path)
        np.testing.assert_array_equal(loaded.matrix, result.encoder.matrix)
        text = "electricity intensity"
        np.testing.assert_array_equal(loaded.embed(text), result.encoder.embed(text))

    def test_tower_file_with_a_training_seed_still_loads(self, tmp_path):
        """Tower files from earlier versions hold ``seed`` and ``hash_seed: 0``."""
        path = tmp_path / "tower.json"
        write_json(path, "encoder", DualTowerEncoder(matrix=np.eye(2, 3)).spec)
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(obj) == ["dims", "kind", "matrix"]
        path.write_text(json.dumps({**obj, "seed": 7, "hash_seed": 0}), encoding="utf-8")
        assert load_encoder(path).spec == DualTowerEncoder(matrix=np.eye(2, 3)).spec

    def test_load_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "enc.json"
        remote = {"kind": "remote", "endpoint": "http://a/e", "dims": 64}
        tower = {"kind": "toy_dual_tower", "dims": 1, "matrix": [[1.0, 0.0]]}
        for obj, message in (
            ({"kind": "mystery", "dims": 4}, "unknown kind 'mystery'"),
            # a spec string says all of this: lexical:64
            ({"kind": "lexical_baseline", "dims": 64, "seed": 0}, "unknown kind 'lexical_baseline'"),
            ([], "must be an object"),
            ({**remote, "dims": 64.9}, "dims must be an integer, got 64.9"),
            ({**remote, "dims": True}, "dims must be an integer, got True"),
            ({**remote, "dims": "64"}, "dims must be an integer, got '64'"),
            ({**remote, "dims": 0}, "dims must be positive"),
            ({**remote, "endpoint": 5}, "endpoint must be a string, got 5"),
            # credentials come only from the environment
            ({**remote, "api_key": "secret"}, "enc.json: unknown keys: api_key$"),
            ({**remote, "dims": -1}, "dims must be positive"),
            ({**tower, "hash_seed": 1.5}, "hash_seed must be an integer, got 1.5"),
            # ignoring it would silently change every vector
            ({**tower, "hash_seed": 3}, r"enc.json: hash_seed must be 0, got 3$"),
            ({**tower, "matrix": [[1.0, True]]}, r"matrix\[0\]\[1\] must be a number, got True"),
            ({**tower, "matrix": [[]]}, "non-empty"),
            ({**tower, "dims": 2, "matrix": [[1.0], []]}, "matrix: "),
        ):
            path.write_text(json.dumps(obj), encoding="utf-8")
            with pytest.raises(FormatError, match=message):
                load_encoder(path)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "enc.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(FormatError):
            load_encoder(path)

    def test_spec_lexical(self):
        enc = encoder_from_spec("lexical")
        assert isinstance(enc, LexicalEncoder)
        assert enc.dims == 64

    def test_spec_lexical_with_dims(self):
        assert encoder_from_spec("lexical:16").dims == 16

    def test_spec_remote(self):
        enc = encoder_from_spec("remote:http://localhost:9/embed")
        assert isinstance(enc, RemoteEncoder)

    def test_spec_saved_file(self, tmp_path):
        path = tmp_path / "enc.json"
        remote = {"kind": "remote", "endpoint": "http://localhost:9/embed", "dims": 16}
        path.write_text(json.dumps(remote), encoding="utf-8")
        assert encoder_from_spec(str(path)) == RemoteEncoder("http://localhost:9/embed", dims=16)
        write_json(path, "encoder", DualTowerEncoder(matrix=np.eye(8, 32)).spec)
        assert encoder_from_spec(str(path)).dims == 8


class TestEncoderProvenance:
    def test_spec_is_a_json_object_read_without_a_call(self, tmp_path):
        """Each kind's spec rebuilds an equal encoder, with bit-identical rows."""
        tower = train_dual_tower(_PAIRS, dims=8, epochs=2, seed=1).encoder
        path = tmp_path / "enc.json"
        path.write_text(
            json.dumps({"kind": "remote", "endpoint": "http://localhost:9/embed", "dims": 8}),
            encoding="utf-8",
        )
        for enc, spec, described in (
            (LexicalEncoder(dims=32), {"kind": "lexical_baseline", "dims": 32}, "lexical:32"),
            (
                RemoteEncoder("http://localhost:9/embed", dims=8),
                {"kind": "remote", "dims": 8, "endpoint": "http://localhost:9/embed"},
                str(path),
            ),
            (
                tower,
                {"kind": "toy_dual_tower", "dims": 8, "matrix": tower.matrix.tolist()},
                str(tmp_path / "tower.json"),
            ),
        ):
            # Not a method: a proxy that times every method call must see a value.
            assert enc.spec == spec and not callable(enc.spec)
            rebuilt = encoder_from_json(parse_json(json.dumps(enc.spec), "spec", FormatError))
            assert type(rebuilt) is type(enc) and rebuilt.spec == spec
            if isinstance(enc, RemoteEncoder):
                assert rebuilt == enc  # nothing listens on port 9: rebuilding sends no request
            else:
                np.testing.assert_array_equal(rebuilt.embed_batch(_BATCH), enc.embed_batch(_BATCH))
            if enc is tower:
                write_json(described, "encoder", enc.spec)
            assert encoder_from_spec(described).spec == spec

    def test_spec_tells_apart_encoders_of_one_width(self):
        matrix = np.eye(8, 32)
        nudged = matrix.copy()
        nudged[0, 0] = np.nextafter(1.0, 2.0)
        specs = [
            LexicalEncoder(dims=8).spec,
            DualTowerEncoder(matrix=matrix).spec,
            DualTowerEncoder(matrix=nudged).spec,
            RemoteEncoder("http://a/embed", dims=8).spec,
            RemoteEncoder("http://b/embed", dims=8).spec,
        ]
        assert all(a != b for i, a in enumerate(specs) for b in specs[i + 1 :])


class _EmbedHandler(http.server.BaseHTTPRequestHandler):
    flaky_failures = 0

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests.append(
            {"path": self.path, "body": body, "auth": self.headers.get("Authorization")}
        )
        texts = body.get("input", [])
        if self.path == "/embed":
            self._send(200, {"embeddings": [[2.0, 0.0, 0.0, 0.0] for _ in texts]})
        elif self.path == "/varied":
            self._send(200, {"embeddings": [[len(t), 1.0, 3.0, ord(t[0])] for t in texts]})
        elif self.path == "/nan":
            self._send(200, {"embeddings": [[float("nan"), 1.0, 0.0, 0.0] for _ in texts]})
        elif self.path == "/words":
            self._send(200, {"embeddings": [["a", "b", "c", "d"] for _ in texts]})
        elif self.path == "/array":
            self._send(200, [[1.0, 0.0, 0.0, 0.0] for _ in texts])
        elif self.path == "/bools":
            self._send(200, {"embeddings": [[True, False, False, False] for _ in texts]})
        elif self.path == "/huge":
            self._send(200, {"embeddings": [[10**400, 0, 0, 0] for _ in texts]})
        elif self.path == "/short":
            self._send(200, {"embeddings": []})
        elif self.path == "/notjson":
            self._send_raw(200, b"<html>oops</html>")
        elif self.path == "/flaky":
            if _EmbedHandler.flaky_failures > 0:
                _EmbedHandler.flaky_failures -= 1
                self._send(500, {"error": "transient"})
            else:
                self._send(200, {"embeddings": [[0.0, 1.0, 0.0, 0.0] for _ in texts]})
        elif self.path == "/reject":
            self._send(403, {"error": "denied"})
        else:
            self.send_error(404)

    def _send(self, status, obj):
        self._send_raw(status, json.dumps(obj).encode("utf-8"))

    def _send_raw(self, status, data):
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def embed_server(http_server):
    return http_server(_EmbedHandler)


def _url(server, path):
    return f"http://127.0.0.1:{server.server_address[1]}{path}"


class TestRemoteEncoder:
    def test_posts_input_array_and_normalizes_the_reply(self, embed_server):
        enc = RemoteEncoder(_url(embed_server, "/embed"), dims=4)
        v = enc.embed("potline power")
        np.testing.assert_allclose(v, [1.0, 0.0, 0.0, 0.0])
        request = embed_server.requests[-1]
        assert request["body"] == {"input": ["potline power"]}

    def test_batch_order_is_preserved(self, embed_server):
        enc = RemoteEncoder(_url(embed_server, "/embed"), dims=4)
        vectors = enc.embed_batch(["a", "b", "c"])
        assert len(vectors) == 3
        assert embed_server.requests[-1]["body"] == {"input": ["a", "b", "c"]}

    def test_embed_is_bit_identical_to_its_batch_row(self, embed_server):
        enc = RemoteEncoder(_url(embed_server, "/varied"), dims=4)
        matrix = enc.embed_batch(_BATCH)
        assert matrix.shape == (len(_BATCH), 4)
        for i, text in enumerate(_BATCH):
            np.testing.assert_array_equal(enc.embed(text), matrix[i])
            np.testing.assert_array_equal(enc.embed_batch(_BATCH[i:])[0], matrix[i])

    @pytest.mark.parametrize("kind", ["lexical", "dual_tower", "remote"])
    def test_a_joined_batch_is_the_two_batches_stacked(self, kind, embed_server):
        """``run_benchmark`` embeds chunks and questions in one call and splits
        the rows, so every encoder must compute a row from its own text only."""
        tower = np.random.default_rng(5).normal(size=(8, 32))
        encoder = {
            "lexical": lambda: LexicalEncoder(dims=16),
            "dual_tower": lambda: DualTowerEncoder(matrix=tower),
            "remote": lambda: RemoteEncoder(_url(embed_server, "/varied"), dims=4),
        }[kind]()
        a, b = _BATCH, ["rail bath", "!!!", "Anode carbon", "émission CO₂ bath"]
        joined = encoder.embed_batch(a + b)
        stacked = np.vstack([encoder.embed_batch(a), encoder.embed_batch(b)])
        assert joined.shape == stacked.shape == (len(a) + len(b), encoder.dims)
        assert joined.tobytes() == stacked.tobytes()

    def test_build_index_sends_one_request(self, embed_server):
        enc = RemoteEncoder(_url(embed_server, "/varied"), dims=4)
        chunks = [SimpleNamespace(chunk_id=f"d:{i:08d}", text=t) for i, t in enumerate(_BATCH)]
        index = build_index(chunks, enc)
        assert len(index) == len(_BATCH)
        assert [r["body"] for r in embed_server.requests] == [{"input": _BATCH}]
        assert len(build_index([], enc)) == 0
        with pytest.raises(InputError):
            enc.embed_batch(["potline", "  "])
        assert len(embed_server.requests) == 1

    def test_malformed_reply_is_a_format_error(self, embed_server):
        for path, message in (
            ("/nan", "non-finite"),
            ("/words", r"embeddings\[0\]\[0\] must be a number, got 'a'"),
            ("/array", "reply must be an object"),
            ("/bools", r"embeddings\[0\]\[0\] must be a number, got True"),
            ("/huge", r"embeddings\[0\]\[0\] must be a number, got 1000"),
            ("/short", "expected 2 embeddings of width 4, got 0"),
        ):
            enc = RemoteEncoder(_url(embed_server, path), dims=4)
            with pytest.raises(FormatError, match=message):
                enc.embed_batch(["x", "y"])

    def test_bearer_token_from_environment(self, embed_server, monkeypatch):
        monkeypatch.setenv("EMBEDDING_API_KEY", "sk-test")
        RemoteEncoder(_url(embed_server, "/embed"), dims=4).embed("x")
        assert embed_server.requests[-1]["auth"] == "Bearer sk-test"

    def test_no_token_header_without_environment(self, embed_server, monkeypatch):
        monkeypatch.delenv("EMBEDDING_API_KEY", raising=False)
        RemoteEncoder(_url(embed_server, "/embed"), dims=4).embed("x")
        assert embed_server.requests[-1]["auth"] is None

    def test_count_mismatch_is_a_format_error(self, embed_server):
        enc = RemoteEncoder(_url(embed_server, "/short"), dims=4)
        with pytest.raises(FormatError):
            enc.embed("x")

    def test_non_json_reply_is_a_format_error(self, embed_server):
        enc = RemoteEncoder(_url(embed_server, "/notjson"), dims=4)
        with pytest.raises(FormatError):
            enc.embed("x")

    def test_server_errors_are_retried(self, embed_server, fast_retries):
        _EmbedHandler.flaky_failures = 2
        enc = RemoteEncoder(_url(embed_server, "/flaky"), dims=4)
        v = enc.embed("x")
        np.testing.assert_allclose(v, [0.0, 1.0, 0.0, 0.0])
        assert len(embed_server.requests) == 3

    def test_client_error_fails_immediately(self, embed_server):
        enc = RemoteEncoder(_url(embed_server, "/reject"), dims=4)
        with pytest.raises(TransportError):
            enc.embed("x")
        assert len(embed_server.requests) == 1

    def test_unreachable_endpoint_exhausts_attempts(self, fast_retries):
        fast_retries(2)
        enc = RemoteEncoder("http://127.0.0.1:1/embed", dims=4)
        with pytest.raises(TransportError) as err:
            enc.embed("x")
        assert err.value.attempts == 2
