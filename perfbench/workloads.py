"""The three benchmark workloads: ``build``, ``query`` and ``eval_remote``.

Each workload generates its inputs from the seed when it is constructed
(untimed), then offers ``setup`` (timed as ``setup_s``, repeated), ``op``
(one timed operation) and ``check`` (untimed correctness check of one
operation's output). ``op`` and ``setup`` open spans on the tracer they are
given; with tracing on they hand the package ``Traced`` proxies instead of
the raw encoder and backend.

Why these workloads:

- ``build`` is the write path (``ingest`` + ``index build``) and is where
  embedding does most of the work.
- ``query`` is the warm read path of ``carbonrag query --interactive``;
  embedding a question is cheap there and ``top_k`` and parsing dominate.
- ``eval_remote`` is the whole scoring loop against a loopback stub with
  fixed model latency; it is the only workload where transport, retries and
  generation latency matter, and the lexical hashing path does no work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from carbonrag import (
    Catalog,
    RemoteChatBackend,
    RemoteEncoder,
    RunConfig,
    ScriptedMockBackend,
    Strategy,
    VectorIndex,
    build_index,
    build_prompt,
    classify_datasource,
    encoder_from_spec,
    fragments_from_hits,
    parse_extraction,
    run_benchmark,
    select_strategy,
)

from inputs import Corpus, make_corpus, write_benchmark, write_mock_script, write_raw_files
from stub import CHAT_PATH, EMBED_PATH, StubServer
from tracing import Traced

ENCODER_SPEC = "lexical"
ORACLE_QUESTIONS = 8  # questions per build operation checked against the oracle
SAMPLED_CHUNKS = 16  # chunk vectors per build operation re-embedded and compared
SIM_TOLERANCE = 1e-12  # insert re-normalizes unit vectors, which moves the last bits


def _oracle_top_k(ids: list[str], matrix: np.ndarray, query: np.ndarray, k: int):
    """Brute force: score every row, full sort by (similarity desc, id asc)."""
    sims = matrix @ (query / np.linalg.norm(query))
    order = sorted(range(len(ids)), key=lambda r: (-sims[r], ids[r]))[:k]
    return [(ids[r], float(sims[r])) for r in order]


class BuildWorkload:
    """Catalog load -> ``chunk_all`` -> ``build_index`` -> index and catalog save."""

    default_sites = 100
    not_measured = {
        "index.load_s": "the write path loads no index (the check does, untraced)",
        "index.top_k_s": "the write path runs no query (the check does, untraced)",
    }

    def __init__(self, corpus: Corpus, work_dir: Path):
        self.corpus = corpus
        self.files = write_raw_files(corpus, work_dir / "raw")
        self.catalog_path = work_dir / "catalog.json"
        self.index_path = work_dir / "index.json"
        self.config = RunConfig()

    def setup(self, tracer) -> None:
        """Ingest the raw files into a catalog and save it, as ``carbonrag ingest`` does."""
        self.encoder = encoder_from_spec(ENCODER_SPEC)
        self.traced_encoder = Traced(self.encoder, "embedding", tracer)
        with tracer.span("corpus.ingest"):
            catalog = Catalog()
            for path, doc_id, title in self.files:
                catalog.ingest("local_file", str(path), {"doc_id": doc_id, "title": title})
        with tracer.span("corpus.catalog_save"):
            catalog.save(self.catalog_path)

    def query_id(self, i: int) -> None:
        return None

    def op(self, i: int, tracer):
        encoder = self.traced_encoder if tracer.enabled else self.encoder
        with tracer.span("corpus.catalog_load"):
            catalog = Catalog.load(self.catalog_path)
        with tracer.span("corpus.segment"):
            chunks = catalog.chunk_all(self.config.chunk_size, self.config.overlap)
        with tracer.span("index.insert"):
            index = build_index(chunks, encoder)
        with tracer.span("index.save"):
            index.save(self.index_path)
        with tracer.span("corpus.catalog_save"):
            catalog.save(self.catalog_path)
        return catalog, chunks, index

    def check(self, i: int, out):
        catalog, chunks, index = out
        errors = []
        saved = VectorIndex.load(self.index_path).entries()
        ids = [e.chunk_id for e in saved]
        matrix = np.stack([e.vector for e in saved])
        built = index.entries()
        if [e.chunk_id for e in built] != ids or not np.array_equal(
            np.stack([e.vector for e in built]), matrix
        ):
            errors.append("save -> load did not give bit-identical vectors")
        if sorted(ids) != sorted(c.chunk_id for c in chunks):
            errors.append(f"index holds {len(ids)} entries for {len(chunks)} chunks")
            return len(chunks), errors, {}
        rng = random.Random(f"{self.corpus.seed}:{i}")
        row_of = {cid: r for r, cid in enumerate(ids)}
        for chunk in rng.sample(chunks, min(SAMPLED_CHUNKS, len(chunks))):
            fresh = self.encoder.embed(chunk.text)
            if np.max(np.abs(fresh - matrix[row_of[chunk.chunk_id]])) > SIM_TOLERANCE:
                errors.append(f"stored vector of {chunk.chunk_id} differs from a fresh embedding")
        questions = rng.sample(self.corpus.questions, min(ORACLE_QUESTIONS, len(self.corpus.questions)))
        for q in questions:
            qv = self.encoder.embed(q.text)
            got = [(h.chunk_id, h.similarity) for h in index.top_k(qv, self.config.k)]
            want = _oracle_top_k(ids, matrix, qv, self.config.k)
            if [g[0] for g in got] != [w[0] for w in want] or any(
                abs(g[1] - w[1]) > SIM_TOLERANCE for g, w in zip(got, want)
            ):
                errors.append(f"top_k for {q.query_id} differs from the brute-force oracle")
        counts = {
            "corpus.chunks": len(chunks),
            "corpus.chars": catalog.total_length(),
            "index.save_bytes": self.index_path.stat().st_size,
        }
        return len(chunks), errors, counts

    def close(self) -> None:
        pass


class QueryWorkload:
    """One question through route -> embed -> ``top_k`` -> resolve -> prompt
    -> mock generate -> parse, as ``carbonrag query --interactive`` runs it."""

    default_sites = 100
    not_measured = {
        "embedding.http_requests": "the lexical encoder makes no HTTP requests",
        "embedding.connections": "the lexical encoder makes no HTTP requests",
        "generation.http_requests": "the scripted mock makes no HTTP requests",
        "generation.connections": "the scripted mock makes no HTTP requests",
        "generation.attempts_per_call": "the scripted mock makes no HTTP requests",
    }

    def __init__(self, corpus: Corpus, work_dir: Path):
        self.corpus = corpus
        self.config = RunConfig()
        self.catalog_path = work_dir / "catalog.json"
        self.index_path = work_dir / "index.json"
        self.script_path = work_dir / "mock.json"
        catalog = Catalog()
        for doc_id, title, body in corpus.documents:
            catalog.ingest("raw_text", body, {"doc_id": doc_id, "title": title})
        catalog.save(self.catalog_path)
        chunks = catalog.chunk_all(self.config.chunk_size, self.config.overlap)
        build_index(chunks, encoder_from_spec(ENCODER_SPEC)).save(self.index_path)
        write_mock_script(corpus, self.script_path)
        self.order = list(corpus.questions)
        random.Random(corpus.seed).shuffle(self.order)

    def setup(self, tracer) -> None:
        """Load catalog, index and mock script: what every one-shot query pays."""
        with tracer.span("corpus.catalog_load"):
            self.catalog = Catalog.load(self.catalog_path)
        with tracer.span("index.load"):
            self.index = VectorIndex.load(self.index_path)
        self.backend = ScriptedMockBackend.from_file(self.script_path)
        self.encoder = encoder_from_spec(ENCODER_SPEC)
        self.traced_encoder = Traced(self.encoder, "embedding", tracer)
        self.traced_backend = Traced(self.backend, "generation", tracer)

    def query_id(self, i: int) -> str:
        return self.order[i % len(self.order)].query_id

    def op(self, i: int, tracer):
        q = self.order[i % len(self.order)]
        encoder = self.traced_encoder if tracer.enabled else self.encoder
        backend = self.traced_backend if tracer.enabled else self.backend
        with tracer.span("fusion.route"):
            strategy = select_strategy(
                classify_datasource(self.catalog.documents, self.config.length_threshold)
            )
        if strategy is not Strategy.RAG_LONG:
            raise RuntimeError(f"expected the rag_long strategy, got {strategy.value}")
        query_vector = encoder.embed(q.text)
        with tracer.span("index.top_k"):
            hits = self.index.top_k(query_vector, self.config.k)
        with tracer.span("corpus.resolve"):
            fragments = fragments_from_hits(hits, lambda cid: self.catalog.resolve_chunk(cid).text)
        with tracer.span("fusion.prompt"):
            prompt = build_prompt(q.text, strategy, fragments, budget=self.config.prompt_budget)
        raw = backend.generate(prompt)
        with tracer.span("generation.parse_bare" if q.bare else "generation.parse_fenced"):
            facts, warnings = parse_extraction(raw)
        return q, hits, prompt, facts, warnings

    def check(self, i: int, out):
        q, hits, prompt, facts, warnings = out
        errors = []
        got = [(f.fact_key, f.value.as_json_value(), f.unit) for f in facts]
        want = [(f["key"], float(f["value"]), f["unit"]) for f in q.facts]
        if got != want:
            errors.append(f"{q.query_id}: parsed {got}, script says {want}")
        if warnings:
            errors.append(f"{q.query_id}: parse warnings {[w.code for w in warnings]}")
        if len(hits) != min(self.config.k, len(self.index)):
            errors.append(f"{q.query_id}: {len(hits)} hits")
        counts = {
            "corpus.chunks": len(self.index),
            "corpus.chars": self.catalog.total_length(),
            "fusion.prompt_chars": len(prompt.rendered),
            "fusion.fragments_kept_ratio": len(prompt.fragments) / len(hits) if hits else 0.0,
            "generation.parse_warnings": len(warnings),
        }
        return 1, errors, counts

    def close(self) -> None:
        pass


class EvalRemoteWorkload:
    """The whole ``run_benchmark`` scoring loop with the remote encoder and
    chat backend pointed at a loopback stub with fixed latency."""

    default_sites = 4
    embed_delay_s = 0.005
    chat_delay_s = 0.05
    dims = 64
    not_measured = {
        name: "runs inside run_benchmark, which takes no proxy for it; counted in evaluation.self_s"
        for name in (
            "corpus.ingest_s",
            "corpus.segment_s",
            "corpus.resolve_s",
            "index.insert_s",
            "index.top_k_s",
            "fusion.route_s",
            "fusion.prompt_s",
            "fusion.fragments_kept_ratio",
            "generation.parse_s",
            "generation.parse_fenced_s",
            "generation.parse_bare_s",
            "generation.parse_warnings",
        )
    }

    def __init__(self, corpus: Corpus, work_dir: Path):
        self.corpus = corpus
        self.config = RunConfig(benchmark_path=str(write_benchmark(corpus, work_dir / "bench")))
        self.answers = {q.text: q.answer for q in corpus.questions}
        self.chars = sum(len(body) for _, _, body in corpus.documents)
        self.vectors: dict[str, bytes] = {}
        self.stub = None
        self.first_report = None

    def setup(self, tracer) -> None:
        """Start the stub and the remote clients."""
        self.stub = StubServer(
            self.answers,
            self.vectors,
            dims=self.dims,
            embed_delay_s=self.embed_delay_s,
            chat_delay_s=self.chat_delay_s,
        )
        self.encoder = RemoteEncoder(endpoint=self.stub.url + EMBED_PATH, dims=self.dims)
        self.backend = RemoteChatBackend(self.stub.url + CHAT_PATH, model="stub")
        self.traced_encoder = Traced(self.encoder, "embedding", tracer)
        self.traced_backend = Traced(self.backend, "generation", tracer)
        self.counters = self.stub.counters()

    def query_id(self, i: int) -> None:
        return None

    def op(self, i: int, tracer):
        encoder = self.traced_encoder if tracer.enabled else self.encoder
        backend = self.traced_backend if tracer.enabled else self.backend
        with tracer.span("evaluation.self"):
            return run_benchmark(self.config, encoder=encoder, backend=backend)

    def check(self, i: int, report):
        errors = []
        before, self.counters = self.counters, self.stub.counters()
        if report.irr_pct != 100.0 or report.id_pct != 0.0 or report.ad.ad_pct != 0.0:
            errors.append(
                f"expected IRR 100, ID 0, AD 0; got {report.irr_pct}, {report.id_pct}, {report.ad.ad_pct}"
            )
        obj = report.to_json_obj()
        obj.pop("generated_at")
        text = json.dumps(obj, sort_keys=True)
        if self.first_report is None:
            self.first_report = text
        elif text != self.first_report:
            errors.append("report differs from the first operation's")

        def delta(kind: str, key: str) -> int:
            return self.counters[kind].get(key, 0) - before[kind].get(key, 0)

        bad = {k: n for k, n in self.counters["statuses"].items() if not k.endswith(" 200")}
        if bad:
            errors.append(f"stub answered with errors: {bad}")
        counts = {
            "corpus.chunks": report.metadata.get("chunk_count", 0),
            "corpus.chars": self.chars,
            "embedding.http_requests": delta("requests", EMBED_PATH),
            "embedding.connections": delta("connections", EMBED_PATH),
            "generation.http_requests": delta("requests", CHAT_PATH),
            "generation.connections": delta("connections", CHAT_PATH),
            "accounting.items": len(report.footprint.per_item),
        }
        return len(self.corpus.questions), errors, counts

    def stub_record(self) -> dict:
        return {
            "embed_delay_s": self.embed_delay_s,
            "chat_delay_s": self.chat_delay_s,
            "counters": self.stub.counters() if self.stub else {},
        }

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None


WORKLOADS = {
    "build": BuildWorkload,
    "query": QueryWorkload,
    "eval_remote": EvalRemoteWorkload,
}


def make_workload(name: str, seed: int, work_dir: Path, sites: int | None = None):
    cls = WORKLOADS[name]
    return cls(make_corpus(seed, sites or cls.default_sites), work_dir)
