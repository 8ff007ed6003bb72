r"""Text encoders over one shared vector space, plus cosine similarity.

Every encoder implements ``embed_batch``: one unit-norm float64 row per
text, each row computed from its own text only. The lexical baseline and
the trained dual-tower encoder are fully deterministic across runs and
platforms; the remote encoder wraps an HTTP endpoint and re-normalizes
whatever it returns.

Token features are hashed bag-of-words. A token is the UTF-8 bytes of a
``[^\W_]+`` run (letters and digits) of the lowercased text; ASCII text
takes a fast path, one byte translate table and a split, that gives the
same tokens. Each token goes to an FNV-1a 64-bit bucket with a fixed seed.
``hashed_counts`` counts a whole batch: each distinct token is hashed once
per call, through a token -> bucket dict that lives only for that call, so
no cache outlives it and each row still depends on its own text only.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from ._files import write_file
from ._http import post_json
from ._json import parse_json, read_json
from .errors import ConfigError, FormatError, InputError

logger = logging.getLogger(__name__)

DEFAULT_DIMS = 64
DEFAULT_FEATURE_DIMS = 256
DEFAULT_HASH_SEED = 0
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


def _fnv1a64(data: bytes, seed: int = 0) -> int:
    h = (_FNV_OFFSET ^ seed) & _U64
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


def tokenize(text: str) -> list[bytes]:
    """The UTF-8 bytes of each ``[^\\W_]+`` run of ``text.lower()``, in order."""
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_TOKEN_TABLE).split()
    return [token.encode("utf-8") for token in _TOKEN_RE.findall(text.lower())]


class _Buckets(dict):
    """Token -> bucket dict that hashes a token the first time it is looked up."""

    def __init__(self, dims: int, seed: int):
        super().__init__()
        self.dims = dims
        self.seed = seed

    def __missing__(self, token: bytes) -> int:
        bucket = self[token] = _fnv1a64(token, self.seed) % self.dims
        return bucket


def hashed_counts(texts: Sequence[str], dims: int, seed: int = DEFAULT_HASH_SEED) -> np.ndarray:
    """Hashed token counts, one float64 row per text, shape ``(len(texts), dims)``.

    Rows are filled one text at a time, so only one text's tokens are held
    at once; the token -> bucket dict is shared by the rows of this call.
    """
    counts = np.zeros((len(texts), dims), dtype=np.float64)
    buckets = _Buckets(dims, seed)
    for row, text in zip(counts, texts):
        row[:] = np.bincount(list(map(buckets.__getitem__, tokenize(text))), minlength=dims)
    return counts


def _unit_rows(vectors: Sequence[np.ndarray], texts: Sequence[str], dims: int) -> np.ndarray:
    """Stack ``vectors`` as rows, each scaled to unit norm on its own.

    An all-zero vector cannot be normalized; it becomes the basis vector
    e_0 so downstream cosines stay finite.
    """
    rows = np.zeros((len(vectors), dims), dtype=np.float64)
    for row, vector, text in zip(rows, vectors, texts):
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            logger.warning("embedding of %r is a zero vector; using basis e_0", text[:40])
            row[0] = 1.0
        else:
            row[:] = vector / norm
    return rows


def _require_text(text: str) -> str:
    if not text or not text.strip():
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

    ``spec`` is a JSON object naming everything that decides the vectors;
    an index records it, so it can refuse a query embedded another way.
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
    seed: int = DEFAULT_HASH_SEED

    kind = "lexical_baseline"

    def __post_init__(self):
        if self.dims <= 0:
            raise ConfigError(f"dims must be positive, got {self.dims}")

    @property
    def spec(self) -> dict:
        return {"kind": self.kind, "dims": self.dims, "seed": self.seed}

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        counts = hashed_counts([_require_text(t) for t in texts], self.dims, self.seed)
        return _unit_rows(counts, texts, self.dims)


@dataclass(frozen=True, eq=False)
class DualTowerEncoder(Encoder):
    """Shared linear map over hashed token features.

    Both towers are the same matrix (Siamese weight sharing), so queries
    and passages are embedded alike.
    """

    matrix: np.ndarray  # (dims, feature_dims)
    hash_seed: int = DEFAULT_HASH_SEED

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
        return {
            "kind": self.kind,
            "dims": self.dims,
            "hash_seed": self.hash_seed,
            "matrix_sha256": hashlib.sha256(self.matrix.tobytes()).hexdigest(),
        }

    def features(self, texts: Sequence[str]) -> np.ndarray:
        """Hashed token counts scaled to unit norm, one row per text.

        A tokenless text keeps its all-zero row.
        """
        counts = hashed_counts(texts, self.feature_dims, self.hash_seed)
        norms = np.linalg.norm(counts, axis=1)
        nonzero = norms > 0.0
        counts[nonzero] /= norms[nonzero, None]
        return counts

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        # A tokenless text has zero features, so its projection is zero too.
        features = self.features([_require_text(t) for t in texts])
        projections = [self.matrix @ f for f in features]
        return _unit_rows(projections, texts, self.dims)


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


def _dataset_loss(W: np.ndarray, feats, margin: float) -> float:
    total = 0.0
    for fa, fb, related in feats:
        s, _ = _pair_cosine_grad(W, fa, fb)
        total += (1.0 - s) if related else max(0.0, s - margin)
    return total


def train_dual_tower(
    pairs: Sequence[TrainingPair],
    *,
    dims: int = DEFAULT_DIMS,
    epochs: int = 50,
    margin: float = DEFAULT_MARGIN,
    seed: int = 0,
) -> TrainingResult:
    """Fit the shared tower by full-batch gradient descent.

    The tower maps ``DEFAULT_FEATURE_DIMS`` hashed features (hash seed
    ``DEFAULT_HASH_SEED``) to ``dims``; ``seed`` draws its initial weights.

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

    probe = DualTowerEncoder(matrix=W)
    feats_a = probe.features([p.text_a for p in pairs])
    feats_b = probe.features([p.text_b for p in pairs])
    feats = [(fa, fb, p.related) for fa, fb, p in zip(feats_a, feats_b, pairs)]

    losses = [_dataset_loss(W, feats, margin)]
    for _ in range(epochs):
        grad = np.zeros_like(W)
        for fa, fb, related in feats:
            s, ds_dW = _pair_cosine_grad(W, fa, fb)
            if related:
                grad -= ds_dW
            elif s > margin:
                grad += ds_dW
        W = W - LEARNING_RATE * grad
        losses.append(_dataset_loss(W, feats, margin))

    return TrainingResult(encoder=DualTowerEncoder(matrix=W), losses=tuple(losses))


@dataclass
class RemoteEncoder(Encoder):
    """Client for a remote embedding endpoint.

    Wire contract: ``POST {"input": [texts]}`` returns
    ``{"embeddings": [[...], ...]}``. Vectors are re-normalized locally so
    the unit-norm contract never depends on the server.
    """

    endpoint: str
    dims: int = DEFAULT_DIMS

    kind = "remote"
    timeout = 30.0  # seconds per attempt
    api_key_env = "EMBEDDING_API_KEY"

    def __post_init__(self):
        if self.dims <= 0:
            raise ConfigError(f"dims must be positive, got {self.dims}")

    @property
    def spec(self) -> dict:
        return {"kind": self.kind, "dims": self.dims, "endpoint": self.endpoint}

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """All ``texts`` in one request; an empty batch sends none."""
        for t in texts:
            _require_text(t)
        if not texts:
            return _unit_rows([], texts, self.dims)
        response = post_json(
            self,
            {"input": list(texts)},
            name="embedding endpoint",
            gave_up="unreachable",
            stage="embedding",
        )
        reply = parse_json(response.content, "embedding endpoint reply", FormatError)
        vectors = reply.get("embeddings", list[list[float]])
        if len(vectors) != len(texts) or any(len(v) != self.dims for v in vectors):
            reply.fail(f"expected {len(texts)} embeddings of width {self.dims}, got {len(vectors)}")
        return _unit_rows(np.asarray(vectors, dtype=np.float64), texts, self.dims)


def save_encoder(encoder, path: str | Path) -> None:
    """Persist an encoder spec as JSON."""
    if isinstance(encoder, (LexicalEncoder, RemoteEncoder)):
        obj = encoder.spec
    elif isinstance(encoder, DualTowerEncoder):
        obj = {
            "kind": encoder.kind,
            "dims": encoder.dims,
            "hash_seed": encoder.hash_seed,
            "matrix": encoder.matrix.tolist(),
        }
    else:
        raise InputError(f"cannot persist encoder of type {type(encoder).__name__}")
    text = json.dumps(obj, indent=2) + "\n"
    write_file(path, "encoder", lambda fh: fh.write(text))


def load_encoder(path: str | Path):
    root = read_json(path, "encoder", FormatError)
    kind = root.get("kind", str)
    try:
        if kind == "lexical_baseline":
            return LexicalEncoder(dims=root.get("dims", int), seed=root.get("seed", int))
        if kind == "toy_dual_tower":
            dims = root.get("dims", int)
            try:
                matrix = np.asarray(root.get("matrix", list[list[float]]), dtype=np.float64)
            except ValueError as exc:  # rows of different lengths
                root.at("matrix").fail(str(exc))
            if matrix.ndim != 2 or matrix.shape[0] != dims:
                root.fail(f"matrix shape {matrix.shape} does not match dims {dims}")
            return DualTowerEncoder(
                matrix=matrix, hash_seed=root.get("hash_seed", int, default=DEFAULT_HASH_SEED)
            )
        if kind == "remote":
            return RemoteEncoder(endpoint=root.get("endpoint", str), dims=root.get("dims", int))
    except ConfigError as exc:
        root.fail(str(exc))
    root.fail(f"unknown kind {kind!r}")


def encoder_from_spec(spec: str):
    """Build an encoder from a CLI-style spec string.

    Accepted forms: ``lexical``, ``lexical:<dims>``, ``remote:<url>``, or a
    path to a saved encoder JSON file.
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
