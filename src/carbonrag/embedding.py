r"""Text encoders over one shared vector space, plus cosine similarity.

Every encoder implements ``embed_batch``: one unit-norm float64 row per
text, each row computed from its own text only. The lexical baseline and
the trained dual-tower encoder are fully deterministic across runs and
platforms; the remote encoder wraps an HTTP endpoint. Every encoder hands
its raw rows (counts, tower projections or the endpoint's reply) to
``_unit_rows``, the one step that makes a row unit-norm.

Token features are hashed bag-of-words. A token is the UTF-8 bytes of a
``[^\W_]+`` run (letters and digits) of the lowercased text; ASCII text
finds them by one byte translate table, other text by the regex. Each
token goes to a bucket by the standard, unseeded FNV-1a 64-bit hash. The
bucket of a power-of-two bucket count ``2**k`` is the hash's low ``k``
bits, and XOR and multiplication commute with taking a value mod
``2**k``: such a count is hashed in those bits only, on small Python ints
or the narrowest numpy dtype that holds them, and gets the same buckets.
``hashed_counts`` counts a whole batch, by one of two paths chosen by the
batch's size alone. A batch of fewer than ``_KERNEL_MIN_CHARS`` chars,
such as one question, is hashed token by token in Python. A larger batch,
whatever its script, is hashed and counted by numpy a block of texts at a
time; an all-ASCII block is tokenised by one translate of its joined
texts. No cache outlives a call, and either path gives each row the same
counts, bit for bit, from its own text only.

An encoder's ``spec``, the JSON record ``encoder_from_json`` rebuilds it
from, is what an encoder file and an index hold.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from ._http import check_endpoint, post_json
from ._json import Node, read_json
from .errors import ConfigError, FormatError, InputError

logger = logging.getLogger(__name__)

DEFAULT_DIMS = 64
DEFAULT_FEATURE_DIMS = 256
DEFAULT_MARGIN = 0.2
LEARNING_RATE = 0.1

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# On ASCII, ``[^\W_]`` is exactly [A-Za-z0-9]: the table lowercases A-Z,
# keeps a-z and 0-9, and turns every other byte into a space to split on.
_ASCII_TOKEN_TABLE = bytes(
    ord(chr(c).lower()) if c < 128 and chr(c).isalnum() else 0x20 for c in range(256)
)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def _fnv1a64(data: bytes, mask: int = _U64) -> int:
    """FNV-1a 64 of ``data`` in the bits of ``mask``, which is ``2**k - 1``.

    XOR and multiplication commute with taking a value mod ``2**k``, so the
    hash is computed in those bits alone, on small ints when ``k`` is small.
    """
    h = _FNV_OFFSET & mask
    prime = _FNV_PRIME & mask
    for byte in data:
        h = ((h ^ byte) * prime) & mask
    return h


def _hash_mask(dims: int) -> int:
    """The low bits of FNV-1a that decide ``h % dims``: all of them unless
    ``dims`` is a power of two."""
    return dims - 1 if dims & (dims - 1) == 0 else _U64


def _token_bytes(text: str) -> bytes:
    """The tokens of ``text`` joined by spaces (ASCII text keeps runs of them)."""
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_TOKEN_TABLE)
    return " ".join(_TOKEN_RE.findall(text.lower())).encode("utf-8")


def tokenize(text: str) -> list[bytes]:
    """The UTF-8 bytes of each ``[^\\W_]+`` run of ``text.lower()``, in order."""
    return _token_bytes(text).split()


# A batch with fewer chars than this is counted text by text: for one short
# question the block kernel's fixed numpy cost exceeds the whole job.
_KERNEL_MIN_CHARS = 4096
# A block closes at this many texts or chars, so its arrays stay in cache
# and a batch of huge texts never joins into one huge buffer.
_BLOCK_TEXTS = 128
_BLOCK_CHARS = 1 << 17
# Tokens up to this many bytes are hashed by numpy, one byte position per
# pass; longer ones one at a time by ``_fnv1a64``, so a block makes at most
# this many passes whatever its input.
_KERNEL_MAX_TOKEN = 64
# A block's cell index, ``row * dims + bucket``, must fit ``np.intp``.
_MAX_LEXICAL_DIMS = int(np.iinfo(np.intp).max) // _BLOCK_TEXTS


def _tokens_by_length(
    data: np.ndarray, text_ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start offsets, lengths and text rows of the runs of non-space bytes
    in ``data``, where text ``i`` ends before offset ``text_ends[i]``, stably
    sorted by length (lengths past 255 count as 255)."""
    in_token = np.zeros(len(data) + 2, dtype=bool)
    in_token[1:-1] = data != 0x20
    edges = np.flatnonzero(in_token[1:] != in_token[:-1])
    starts, lengths = edges[0::2], edges[1::2] - edges[0::2]
    # Each text's tokens are one run of the starts while they are in order.
    per_text = np.diff(np.searchsorted(starts, text_ends), prepend=0)
    rows = np.repeat(np.arange(len(text_ends)), per_text)
    # A uint8 key sorts by radix.
    order = np.argsort(np.minimum(lengths, 255).astype(np.uint8), kind="stable")
    return starts[order], lengths[order], rows[order]


def _block_counts(texts: Sequence[str], dims: int) -> np.ndarray:
    """Hashed token counts of a block of texts, computed by numpy.

    Equal to counting each text's tokens on its own: the texts' tokens are
    joined with spaces, so no token crosses two texts. An ASCII block is
    tokenised by one translate of the joined texts. FNV-1a runs in the
    narrowest unsigned dtype that holds ``_hash_mask(dims)``, so a
    power-of-two ``dims`` up to ``2**32`` is hashed in its low bits only.
    """
    joined = " ".join(texts)
    if joined.isascii():
        data = joined.encode("ascii").translate(_ASCII_TOKEN_TABLE)
        text_ends = np.cumsum([len(t) + 1 for t in texts])
    else:
        block = [_token_bytes(t) for t in texts]
        data = b" ".join(block)
        text_ends = np.cumsum([len(b) + 1 for b in block])
    data = np.frombuffer(data, np.uint8)
    starts, lengths, rows = _tokens_by_length(data, text_ends)
    n_short = int(np.count_nonzero(lengths <= _KERNEL_MAX_TOKEN))
    passes = int(lengths[n_short - 1]) if n_short else 0
    mask = _hash_mask(dims)
    dtype = np.min_scalar_type(mask)
    # numpy 1.24 casts by value: every operand is an array or a ``dtype`` scalar.
    h = np.full(len(starts), _FNV_OFFSET & mask, dtype=dtype)
    prime = dtype.type(_FNV_PRIME & mask)
    # The short tokens longer than j bytes are a suffix of the short ones,
    # so pass j updates one slice.
    for j, a in enumerate(np.searchsorted(lengths[:n_short], np.arange(passes), side="right")):
        h[a:n_short] ^= data[j:][starts[a:n_short]]
        h[a:n_short] *= prime
    for i in range(n_short, len(starts)):
        h[i] = _fnv1a64(data[starts[i] : starts[i] + lengths[i]].tobytes(), mask)
    if mask == _U64:
        h %= np.uint64(dims)
    else:  # a power of two: the bucket is the low bits, and ``&`` is no division
        h &= dtype.type(mask)
    cells = rows * dims + h.astype(np.intp)
    return np.bincount(cells, minlength=len(texts) * dims).reshape(len(texts), dims)


def hashed_counts(texts: Sequence[str], dims: int) -> np.ndarray:
    """Hashed token counts, one float64 row per text, shape ``(len(texts), dims)``.

    A batch of fewer than ``_KERNEL_MIN_CHARS`` chars is counted text by
    text; a larger one by ``_block_counts``, a contiguous block of texts at
    a time. Either way each row equals the count of its own text's tokens.
    """
    counts = np.zeros((len(texts), dims), dtype=np.float64)
    if sum(map(len, texts)) < _KERNEL_MIN_CHARS:
        mask = _hash_mask(dims)
        for row, text in zip(counts, texts):
            row[:] = np.bincount([_fnv1a64(t, mask) % dims for t in tokenize(text)], minlength=dims)
        return counts
    block, chars = [], 0
    for i, text in enumerate(texts):
        block.append(text)
        chars += len(text)
        if len(block) == _BLOCK_TEXTS or chars >= _BLOCK_CHARS or i == len(texts) - 1:
            counts[i + 1 - len(block) : i + 1] = _block_counts(block, dims)
            block, chars = [], 0
    return counts


_ZERO_ROW_WARNING = "embedding of %r is a zero vector; using basis e_0"


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's dot with itself, from the kernel ``np.linalg.norm(row)`` runs."""
    return np.matmul(rows[:, None, :], rows[:, :, None]).reshape(len(rows))


def _unit_rows(rows: np.ndarray, texts: Sequence[str]) -> np.ndarray:
    """Scale each row of the float64 ``(n, dims)`` array ``rows`` to unit norm, in place.

    One stacked ``matmul`` gives each row's squared norm, so a row is
    ``row / np.linalg.norm(row)`` bit for bit. A row of norm 0 (all zeros,
    or so small that its squares underflow) becomes the basis vector e_0, so
    downstream cosines stay finite.
    """
    norms = np.sqrt(_squared_norms(rows))
    for i in np.flatnonzero(norms == 0.0):
        logger.warning(_ZERO_ROW_WARNING, texts[i][:40])
        rows[i] = 0.0
        rows[i, 0] = norms[i] = 1.0
    rows /= norms[:, None]
    return rows


def _require_text(text: str) -> str:
    if not text or text.isspace():  # the whitespace of strip(), without its copy
        raise InputError("cannot embed empty text")
    return text


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors, clamped into [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise InputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise InputError("cosine similarity is undefined for a zero vector")
    return float(min(1.0, max(-1.0, float(np.dot(a, b)) / (norm_a * norm_b))))


class Encoder(Protocol):
    """Encoders subclass this to inherit ``embed`` from ``embed_batch``.

    ``spec`` is the JSON object that ``encoder_from_json`` rebuilds the
    encoder from; an index stores it, and embeds its queries with the
    encoder it rebuilds.
    """

    kind: str
    dims: int
    spec: dict

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """One unit-norm row per text, shape ``(len(texts), dims)``."""
        ...

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]


@dataclass(frozen=True)
class LexicalEncoder(Encoder):
    """Deterministic hashed bag-of-words baseline."""

    dims: int = DEFAULT_DIMS

    kind = "lexical_baseline"

    def __post_init__(self):
        if self.dims <= 0:
            raise ConfigError(f"dims must be positive, got {self.dims}")
        if self.dims > _MAX_LEXICAL_DIMS:
            raise ConfigError(f"dims must be at most {_MAX_LEXICAL_DIMS}, got {self.dims}")

    @property
    def spec(self) -> dict:
        return {"kind": self.kind, "dims": self.dims}

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        return _unit_rows(hashed_counts([_require_text(t) for t in texts], self.dims), texts)


@dataclass(frozen=True, eq=False)
class DualTowerEncoder(Encoder):
    """Shared linear map over hashed token features.

    Both towers are the same matrix (Siamese weight sharing), so queries
    and passages are embedded alike.
    """

    matrix: np.ndarray  # (dims, feature_dims)

    kind = "toy_dual_tower"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or 0 in m.shape:
            raise ConfigError(f"tower matrix must be 2-D and non-empty, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ConfigError("tower matrix has non-finite values")
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dims(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def feature_dims(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def spec(self) -> dict:
        return {"kind": self.kind, "dims": self.dims, "matrix": self.matrix.tolist()}

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        # A tokenless text projects to zero. The stacked matmul is ``matrix @ f`` bit for bit.
        features = _tower_features([_require_text(t) for t in texts], self.feature_dims)
        projections = np.matmul(self.matrix, features[:, :, None])
        return _unit_rows(projections.reshape(len(texts), self.dims), texts)


def _tower_features(texts: Sequence[str], feature_dims: int) -> np.ndarray:
    """Hashed token counts scaled to unit norm, one row per text.

    A tokenless text keeps its all-zero row. These bits feed every tower's
    projection, so the scaling stays ``norm(axis=1)``, not ``_unit_rows``.
    """
    counts = hashed_counts(texts, feature_dims)
    norms = np.linalg.norm(counts, axis=1)
    nonzero = norms > 0.0
    counts[nonzero] /= norms[nonzero, None]
    return counts


@dataclass(frozen=True)
class TrainingPair:
    text_a: str
    text_b: str
    related: bool


@dataclass(frozen=True)
class TrainingResult:
    encoder: DualTowerEncoder
    losses: tuple[float, ...]  # losses[0] is evaluated before any update

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def _pair_cosine_grad(W: np.ndarray, fa: np.ndarray, fb: np.ndarray):
    u = W @ fa
    v = W @ fb
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu < 1e-12 or nv < 1e-12:
        return 0.0, np.zeros_like(W)
    s = float(np.dot(u, v)) / (nu * nv)
    ds_du = v / (nu * nv) - (s / (nu * nu)) * u
    ds_dv = u / (nu * nv) - (s / (nv * nv)) * v
    return s, np.outer(ds_du, fa) + np.outer(ds_dv, fb)


def _loss_and_grad(W: np.ndarray, feats, margin: float) -> tuple[float, np.ndarray]:
    """The training objective at ``W`` and its gradient, in one pass over the pairs."""
    total = 0.0
    grad = np.zeros_like(W)
    for fa, fb, related in feats:
        s, ds_dW = _pair_cosine_grad(W, fa, fb)
        total += (1.0 - s) if related else max(0.0, s - margin)
        if related:
            grad -= ds_dW
        elif s > margin:
            grad += ds_dW
    return total, grad


def train_dual_tower(
    pairs: Sequence[TrainingPair],
    *,
    dims: int = DEFAULT_DIMS,
    epochs: int = 50,
    margin: float = DEFAULT_MARGIN,
    seed: int = 0,
) -> TrainingResult:
    """Fit the shared tower by full-batch gradient descent.

    The tower maps ``DEFAULT_FEATURE_DIMS`` hashed features to ``dims``;
    ``seed`` draws its initial weights.

    The objective pulls related pairs toward cosine 1 and pushes unrelated
    pairs below the margin:
    ``sum_related (1 - s) + sum_unrelated max(0, s - margin)``.
    """
    if not pairs:
        raise ConfigError("training requires at least one pair")
    for p in pairs:
        if not p.text_a.strip() or not p.text_b.strip():
            raise InputError("training pair texts must be non-empty")
    n_related = sum(1 for p in pairs if p.related)
    if n_related == 0 or n_related == len(pairs):
        raise ConfigError(
            "training requires at least one related and one unrelated pair"
        )
    if dims <= 0:
        raise ConfigError(f"dims must be positive, got {dims}")
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")

    rng = np.random.default_rng(seed)
    W = rng.normal(
        0.0, 1.0 / np.sqrt(DEFAULT_FEATURE_DIMS), size=(dims, DEFAULT_FEATURE_DIMS)
    )

    feats_a = _tower_features([p.text_a for p in pairs], DEFAULT_FEATURE_DIMS)
    feats_b = _tower_features([p.text_b for p in pairs], DEFAULT_FEATURE_DIMS)
    feats = [(fa, fb, p.related) for fa, fb, p in zip(feats_a, feats_b, pairs)]

    losses = []
    for _ in range(epochs):
        loss, grad = _loss_and_grad(W, feats, margin)
        losses.append(loss)
        W = W - LEARNING_RATE * grad
    losses.append(_loss_and_grad(W, feats, margin)[0])

    return TrainingResult(encoder=DualTowerEncoder(matrix=W), losses=tuple(losses))


@dataclass
class RemoteEncoder(Encoder):
    """Client for a remote embedding endpoint.

    Wire contract: ``POST {"input": [texts]}`` returns
    ``{"embeddings": [[...], ...]}``. Vectors are re-normalized locally so
    the unit-norm contract never depends on the server. A reply with a
    value or a squared row norm past the float64 range has no unit row: it
    is refused, naming the endpoint and the row.
    """

    endpoint: str
    dims: int = DEFAULT_DIMS

    kind = "remote"
    name = "embedding endpoint"
    timeout = 30.0  # seconds per socket operation, not per attempt
    api_key_env = "EMBEDDING_API_KEY"

    def __post_init__(self):
        if self.dims <= 0:
            raise ConfigError(f"dims must be positive, got {self.dims}")
        check_endpoint(self)

    @property
    def spec(self) -> dict:
        return {"kind": self.kind, "dims": self.dims, "endpoint": self.endpoint}

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """All ``texts`` in one request; an empty batch sends none."""
        for t in texts:
            _require_text(t)
        if not texts:
            return np.zeros((0, self.dims))
        # A bad reply ends in the stage a failed request does, in every command.
        reply = post_json(self, {"input": list(texts)}, stage="embedding")
        vectors = reply.get("embeddings", list[list[float]])  # finite numbers only
        if len(vectors) != len(texts) or any(len(v) != self.dims for v in vectors):
            reply.fail(f"expected {len(texts)} embeddings of width {self.dims}, got {len(vectors)}")
        rows = np.asarray(vectors, dtype=np.float64)
        with np.errstate(over="ignore"):
            overflowed = np.flatnonzero(np.isinf(_squared_norms(rows)))
        if len(overflowed):
            reply.fail(f"embeddings[{overflowed[0]}] has a squared norm past the float64 range")
        return _unit_rows(rows, texts)


def load_encoder(path: str | Path):
    """A ``toy_dual_tower`` or ``remote`` encoder file."""
    root = read_json(path, "encoder", FormatError)
    if root.get("kind", str) == LexicalEncoder.kind:
        root.fail(f"unknown kind {LexicalEncoder.kind!r}: say 'lexical:<dims>' instead")
    return encoder_from_json(root)


def encoder_from_json(node: Node):
    """The encoder whose ``spec`` is the JSON object ``node``."""
    kind = node.get("kind", str)
    try:
        if kind == LexicalEncoder.kind:
            return LexicalEncoder(dims=node.only_keys(("kind", "dims")).get("dims", int))
        if kind == RemoteEncoder.kind:
            node.only_keys(("kind", "dims", "endpoint"))
            return RemoteEncoder(endpoint=node.get("endpoint", str), dims=node.get("dims", int))
        if kind == DualTowerEncoder.kind:
            dims = node.only_keys(("kind", "dims", "matrix")).get("dims", int)
            try:
                matrix = np.asarray(node.get("matrix", list[list[float]]), dtype=np.float64)
            except ValueError as exc:  # rows of different lengths
                node.at("matrix").fail(str(exc))
            if matrix.ndim != 2 or matrix.shape[0] != dims:
                node.fail(f"matrix shape {matrix.shape} does not match dims {dims}")
            return DualTowerEncoder(matrix=matrix)
    except ConfigError as exc:
        node.fail(str(exc))
    node.fail(f"unknown kind {kind!r}")


def encoder_from_spec(spec: str):
    """Build an encoder from a CLI-style spec string.

    Accepted forms: ``lexical``, ``lexical:<dims>``, ``remote:<url>``, or the
    path of an encoder file (a trained tower, or a remote encoder of another
    width).
    """
    if spec == "lexical":
        return LexicalEncoder()
    if spec.startswith("lexical:"):
        try:
            return LexicalEncoder(dims=int(spec.split(":", 1)[1]))
        except ValueError:
            raise ConfigError(f"bad lexical encoder spec {spec!r}") from None
    if spec.startswith("remote:"):
        return RemoteEncoder(endpoint=spec.split(":", 1)[1])
    if Path(spec).is_file():
        return load_encoder(spec)
    raise ConfigError(
        f"unknown encoder spec {spec!r} (expected 'lexical', 'lexical:<dims>', "
        f"'remote:<url>', or a saved encoder file)"
    )
