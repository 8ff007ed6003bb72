"""Retrieval and accounting metrics, plus the end-to-end benchmark runner.

Three scores summarize a run against expert ground truth:

- IRR, the share of truth facts the pipeline retrieved at all;
- ID, the mean absolute percentage error of retrieved values, where a range
  is charged its worst boundary error;
- AD, the footprint deviation, reported as signed deviations at both total
  boundaries plus the absolute magnitude.

``run_benchmark`` drives the whole pipeline over a benchmark file and emits
a report whose machine form keeps full float precision; rounding to two
decimals happens only in the human summary.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
import logging
from collections import Counter
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._files import check_writable, write_file
from ._json import read_json
from .accounting import (
    EmissionFactorDb,
    FootprintResult,
    InventoryItem,
    ItemContribution,
    LifecycleStage,
    Scope,
    compute_footprint,
    convert_unit,
)
from .config import RunConfig
from .corpus import Catalog, SourceKind, classify_datasource
from .errors import AccountingError, BenchmarkError, CarbonRagError, FormatError
from .fusion import (
    TEMPLATE_VERSION,
    Prompt,
    Strategy,
    build_prompt,
    fragments_from_documents,
    fragments_from_hits,
    select_strategy,
)
from .generation import ExtractedFact, ParseWarning, RawAnswer, parse_extraction
from .index import RetrievalHit, VectorIndex
from .quantity import Quantity

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GroundTruthRecord:
    fact_key: str
    true_value: float
    unit: str


@dataclass(frozen=True)
class AccountingDeviation:
    """Signed footprint deviation at both total boundaries, plus magnitude."""

    at_lower_pct: float
    at_upper_pct: float
    ad_pct: float

    def to_json_obj(self) -> dict:
        return {
            "at_lower_pct": self.at_lower_pct,
            "at_upper_pct": self.at_upper_pct,
            "ad_pct": self.ad_pct,
        }


@dataclass(frozen=True)
class PerFactRecord:
    fact_key: str
    retrieved: bool
    deviation_pct: float | None
    true_value: float
    true_unit: str
    extracted_value: float | dict | None = None
    extracted_unit: str | None = None

    def to_json_obj(self) -> dict:
        return {
            "fact_key": self.fact_key,
            "retrieved": self.retrieved,
            "deviation_pct": self.deviation_pct,
            "true_value": self.true_value,
            "true_unit": self.true_unit,
            "extracted_value": self.extracted_value,
            "extracted_unit": self.extracted_unit,
        }


def compute_irr(retrieved_keys: Iterable[str], truth_keys: Iterable[str]) -> float:
    """Share of truth facts retrieved, in percent.

    Keys outside the truth set are ignored; they cannot raise the score.
    """
    truth = set(truth_keys)
    if not truth:
        raise BenchmarkError("truth key set is empty; retrieval rate is undefined")
    hit = set(retrieved_keys) & truth
    return 100.0 * len(hit) / len(truth)


def fact_deviation(fact: ExtractedFact, truth: GroundTruthRecord) -> float:
    """Absolute percentage error of one fact against its truth.

    Ranges are charged the worse of their two boundary errors, so an
    interval that brackets the truth still pays for its width.
    """
    if truth.true_value == 0:
        raise BenchmarkError(
            f"truth for {truth.fact_key!r} is zero; percentage deviation is undefined"
        )
    converted = convert_unit(fact.value, fact.unit, truth.unit)
    assert isinstance(converted, Quantity)
    t = truth.true_value
    return max(
        100.0 * abs(converted.lower - t) / abs(t),
        100.0 * abs(converted.upper - t) / abs(t),
    )


def compute_id(
    facts: Sequence[ExtractedFact], truths: Sequence[GroundTruthRecord]
) -> float | None:
    """Mean deviation over retrieved facts that match a truth key.

    Returns None when nothing matched: an undefined score is reported as
    absent, never as a flattering zero. Zero-valued truths are skipped with
    a warning since a percentage against zero has no meaning.
    """
    truth_map = {t.fact_key: t for t in truths}
    deviations = []
    for fact in facts:
        truth = truth_map.get(fact.fact_key)
        if truth is None:
            continue
        if truth.true_value == 0:
            logger.warning(
                "excluding %r from the deviation mean: truth value is zero",
                fact.fact_key,
            )
            continue
        deviations.append(fact_deviation(fact, truth))
    if not deviations:
        return None
    return sum(deviations) / len(deviations)


def compute_ad(
    computed: FootprintResult | Quantity | float, true_footprint: float
) -> AccountingDeviation:
    """Signed footprint deviation at each total boundary, plus the magnitude."""
    if true_footprint == 0:
        raise BenchmarkError("true footprint is zero; percentage deviation is undefined")
    if isinstance(computed, FootprintResult):
        total = computed.total
    elif isinstance(computed, Quantity):
        total = computed
    else:
        total = Quantity.point(float(computed))
    at_lower = 100.0 * (total.lower - true_footprint) / true_footprint
    at_upper = 100.0 * (total.upper - true_footprint) / true_footprint
    return AccountingDeviation(
        at_lower_pct=at_lower,
        at_upper_pct=at_upper,
        ad_pct=max(abs(at_lower), abs(at_upper)),
    )


@dataclass(frozen=True)
class BenchmarkQuery:
    query_id: str
    query_text: str
    fact_keys: tuple[str, ...]


@dataclass(frozen=True)
class Benchmark:
    """Parsed benchmark file with paths resolved against its directory."""

    industry: str
    datasources: tuple[Mapping, ...]
    queries: tuple[BenchmarkQuery, ...]
    truths: tuple[GroundTruthRecord, ...]
    true_footprint: float
    factor_db_path: Path
    functional_unit: str = "unit"
    scope: Scope = Scope.CRADLE_TO_GATE
    inventory_keys: tuple[str, ...] | None = None
    lifecycle_stages: Mapping[str, LifecycleStage] = field(default_factory=dict)
    base_dir: Path = Path(".")


# The keys each object of a benchmark file may hold.
_BENCHMARK_KEYS = (
    "industry", "datasources", "queries", "truths", "true_footprint", "factor_db",
    "functional_unit", "scope", "inventory_keys", "lifecycle_stages",
)
_QUERY_KEYS = ("query_id", "query_text", "fact_keys")
_TRUTH_KEYS = ("fact_key", "true_value", "unit")
_DATASOURCE_METADATA = ("doc_id", "title", "industry_tag", "fetched_at")


def load_benchmark(path: str | Path) -> Benchmark:
    path = Path(path)
    root = read_json(path, "benchmark", BenchmarkError).only_keys(_BENCHMARK_KEYS)
    industry = root.get("industry", str)
    queries = []
    for q in root.at("queries").elements():
        q.only_keys(_QUERY_KEYS)
        text = q.get("query_text", str)
        if not text.strip():  # refused before any encoder or backend call is paid for
            raise BenchmarkError(f"{q.at('query_text').where} must not be blank")
        queries.append(
            BenchmarkQuery(q.get("query_id", str), text, tuple(q.get("fact_keys", list[str])))
        )
    truths = []
    for t in root.at("truths").elements():
        t.only_keys(_TRUTH_KEYS)
        truths.append(
            GroundTruthRecord(t.get("fact_key", str), t.get("true_value", float), t.get("unit", str))
        )
    for field_name, name, keys in (
        ("queries", "query_id", [q.query_id for q in queries]),
        ("truths", "truth fact_key", [t.fact_key for t in truths]),
    ):
        if not keys:
            root.fail(f"{field_name!r} must not be empty")
        repeated = [key for key, count in Counter(keys).items() if count > 1]
        if repeated:
            root.fail(f"duplicate {name} {repeated[0]!r}")
    datasources = root.at("datasources", default=[]).elements()
    for ds in datasources:
        ds.only_keys(("source", "payload", *_DATASOURCE_METADATA))
        ds.expect(dict[str, str])
        ds.get("source", SourceKind)
        ds.at("payload")
    true_footprint = root.get("true_footprint", float)
    if true_footprint == 0:  # refused before any question is paid for, as AD would divide by it
        raise BenchmarkError(f"{root.at('true_footprint').where} must not be zero")
    inventory_keys = root.get("inventory_keys", list[str], default=None, nullable=True)
    stages = root.at("lifecycle_stages", default={})
    return Benchmark(
        industry=industry,
        datasources=tuple(ds.value for ds in datasources),
        queries=tuple(queries),
        truths=tuple(truths),
        true_footprint=true_footprint,
        factor_db_path=path.parent / root.get("factor_db", str),
        functional_unit=root.get("functional_unit", str, default="unit"),
        scope=root.get("scope", Scope, default=Scope.CRADLE_TO_GATE),
        inventory_keys=None if inventory_keys is None else tuple(inventory_keys),
        lifecycle_stages={a: stages.get(a, LifecycleStage) for a in stages.expect(dict)},
        base_dir=path.parent,
    )


@dataclass(frozen=True)
class MetricsReport:
    industry: str
    irr_pct: float
    id_pct: float | None
    ad: AccountingDeviation
    retrieved_count: int
    truth_count: int
    per_fact: tuple[PerFactRecord, ...]
    footprint: FootprintResult
    true_footprint: float
    warnings: tuple[str, ...]
    metadata: Mapping
    generated_at: str

    def to_json_obj(self) -> dict:
        return {
            "industry": self.industry,
            "irr_pct": self.irr_pct,
            "id_pct": self.id_pct,
            "ad": self.ad.to_json_obj(),
            "retrieved_count": self.retrieved_count,
            "truth_count": self.truth_count,
            "per_fact": [r.to_json_obj() for r in self.per_fact],
            "footprint": self.footprint.to_json_obj(),
            "true_footprint": self.true_footprint,
            "warnings": list(self.warnings),
            "metadata": dict(self.metadata),
            "generated_at": self.generated_at,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def load(cls, path: str | Path) -> "MetricsReport":
        """Read a report, checking the JSON type of every field; a failure
        names the file and the field's JSON path."""
        root = read_json(path, "report", FormatError)
        fp, ad = root.at("footprint"), root.at("ad")
        footprint = FootprintResult(
            total=fp.get("total_kgco2e", Quantity.from_json_value),
            per_item=tuple(
                ItemContribution(
                    activity=c.get("activity", str),
                    contribution=c.get("contribution_kgco2e", Quantity.from_json_value),
                    lifecycle_stage=c.get("lifecycle_stage", LifecycleStage),
                )
                for c in fp.at("per_item").elements()
            ),
            functional_unit=fp.get("functional_unit", str),
            scope=fp.get("scope", Scope),
        )
        per_fact = tuple(
            PerFactRecord(
                fact_key=r.get("fact_key", str),
                retrieved=r.get("retrieved", bool),
                deviation_pct=r.get("deviation_pct", float, nullable=True),
                true_value=r.get("true_value", float),
                true_unit=r.get("true_unit", str),
                extracted_value=r.get("extracted_value", default=None),
                extracted_unit=r.get("extracted_unit", str, default=None, nullable=True),
            )
            for r in root.at("per_fact").elements()
        )
        return cls(
            industry=root.get("industry", str),
            irr_pct=root.get("irr_pct", float),
            id_pct=root.get("id_pct", float, nullable=True),
            ad=AccountingDeviation(
                at_lower_pct=ad.get("at_lower_pct", float),
                at_upper_pct=ad.get("at_upper_pct", float),
                ad_pct=ad.get("ad_pct", float),
            ),
            retrieved_count=root.get("retrieved_count", int),
            truth_count=root.get("truth_count", int),
            per_fact=per_fact,
            footprint=footprint,
            true_footprint=root.get("true_footprint", float),
            warnings=tuple(root.get("warnings", list[str], default=[])),
            metadata=root.get("metadata", dict, default={}),
            generated_at=root.get("generated_at", str, default=""),
        )

    def write_json(self, path: str | Path) -> None:
        text = self.to_json_text()
        write_file(path, "report", lambda fh: fh.write(text))

    def write_per_fact_csv(self, path: str | Path) -> None:
        def write(fh):
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "fact_key",
                    "retrieved",
                    "deviation_pct",
                    "true_value",
                    "true_unit",
                    "extracted_value",
                    "extracted_unit",
                ]
            )
            for r in self.per_fact:
                writer.writerow(
                    [
                        r.fact_key,
                        str(r.retrieved).lower(),
                        "" if r.deviation_pct is None else repr(r.deviation_pct),
                        repr(r.true_value),
                        r.true_unit,
                        "" if r.extracted_value is None else json.dumps(r.extracted_value),
                        r.extracted_unit or "",
                    ]
                )
        write_file(path, "per-fact CSV", write)

    def summary_text(self) -> str:
        """Human summary; percentages rounded to two decimals here only."""
        lines = [
            f"Industry: {self.industry}",
            f"IRR: {self.irr_pct:.2f}% ({self.retrieved_count}/{self.truth_count} truth facts retrieved)",
        ]
        if self.id_pct is None:
            lines.append("ID: n/a (no retrieved fact matched ground truth)")
        else:
            lines.append(f"ID: {self.id_pct:.2f}% over matched facts")
        lines.append(
            f"AD: {self.ad.ad_pct:.2f}% "
            f"(at lower {self.ad.at_lower_pct:+.2f}%, at upper {self.ad.at_upper_pct:+.2f}%)"
        )
        lines.append(
            f"Computed footprint: {self.footprint.total} kgCO2e per "
            f"{self.footprint.functional_unit} (true: {self.true_footprint})"
        )
        if self.warnings:
            lines.append(f"Warnings: {len(self.warnings)}")
            lines.extend(f"  - {w}" for w in self.warnings)
        return "\n".join(lines)


@contextmanager
def _stage(name: str):
    """Tag an untagged pipeline error with one of ``answer_query``'s steps."""
    try:
        yield
    except CarbonRagError as exc:
        if exc.stage is None:
            exc.stage = name
        raise


@dataclass(frozen=True)
class QueryResult:
    """Everything one question produced on its way through the pipeline."""

    hits: tuple[RetrievalHit, ...]
    prompt: Prompt
    raw: RawAnswer
    facts: tuple[ExtractedFact, ...]
    warnings: tuple[ParseWarning, ...]


def answer_query(
    question: str,
    strategy: Strategy,
    *,
    catalog: Catalog,
    index: VectorIndex | None,
    query_vector: np.ndarray | None,
    backend,
    config: RunConfig,
    query_key: str | None = None,
    expected_keys: Sequence[str] | None = None,
) -> QueryResult:
    """Retrieve, fuse, generate and parse for one already-routed question.

    ``index`` and ``query_vector`` (the question's row of an
    ``embed_batch`` call by the index's encoder) are needed only for the
    ``rag_long`` strategy. Failures carry the stage they came from:
    retrieve, prompt, generate or parse. Safe to call from several threads
    at once.
    """
    hits, fragments = [], []
    if strategy is Strategy.RAG_LONG:
        with _stage("retrieve"):
            hits = index.top_k(query_vector, config.k)
            fragments = fragments_from_hits(hits, lambda cid: catalog.resolve_chunk(cid).text)
    elif strategy is Strategy.SHORT_DIRECT:
        fragments = fragments_from_documents(catalog.documents)

    with _stage("prompt"):
        prompt = build_prompt(
            question, strategy, fragments, budget=config.prompt_budget, query_key=query_key
        )

    with _stage("generate"):
        raw = backend.generate(prompt)

    with _stage("parse"):
        facts, warnings = parse_extraction(raw, expected_keys=expected_keys)
    return QueryResult(tuple(hits), prompt, raw, tuple(facts), tuple(warnings))


def run_benchmark(config: RunConfig, *, encoder=None, backend=None) -> MetricsReport:
    """Run the full pipeline over a benchmark file and score it.

    For the ``rag_long`` strategy the chunks and then the questions are
    embedded in one ``embed_batch`` call, whose first rows become the index
    and whose last rows are the question vectors; with a remote encoder
    that is one request. Questions are then answered up to the backend's
    ``max_in_flight`` at a time and their results merged in file order, so
    the first extraction of a key wins and the report is the same as one
    from answering them one by one.
    Any failure aborts the run. A set-up failure keeps the stage it was
    raised with, the same one the command that owns that step reports; a
    question's failure is tagged by ``answer_query``. When several
    questions fail, the first in file order is reported, and questions not
    yet started are cancelled. An unwritable ``report_out`` fails before
    any question is asked.
    """
    if config.report_out is not None:
        check_writable(config.report_out, "report")
    bench = load_benchmark(config.require("benchmark_path"))
    factors = EmissionFactorDb.from_csv(bench.factor_db_path)
    if encoder is None:
        encoder = config.build_encoder()
    if backend is None:
        backend = config.build_backend()

    warnings: list[str] = []

    catalog = Catalog()
    for ds in bench.datasources:
        source, payload = ds["source"], ds["payload"]
        if source == "local_file":
            payload = str(bench.base_dir / payload)
        metadata = {k: v for k, v in ds.items() if k in _DATASOURCE_METADATA}
        catalog.ingest(source, payload, metadata)
    docs = catalog.documents
    strategy = select_strategy(classify_datasource(docs, config.length_threshold))
    chunks = catalog.chunk_all(config.chunk_size, config.overlap)

    index = None
    vectors = [None] * len(bench.queries)
    if strategy is Strategy.RAG_LONG:
        # One request for the chunks and the questions: an encoder computes
        # each row from its own text only, so the rows equal two calls'.
        texts = [c.text for c in chunks] + [q.query_text for q in bench.queries]
        rows = encoder.embed_batch(texts)
        index = VectorIndex(
            [c.chunk_id for c in chunks], rows[: len(chunks)], encoder_spec=encoder.spec
        )
        vectors = rows[len(chunks) :]

    def answer(query: BenchmarkQuery, vector) -> QueryResult:
        return answer_query(
            query.query_text,
            strategy,
            catalog=catalog,
            index=index,
            query_vector=vector,
            backend=backend,
            config=config,
            query_key=query.query_id,
            expected_keys=query.fact_keys,
        )

    # Questions start in file order, so when one fails every question before
    # it has started; those still queued are cancelled at once, and reading
    # the results in file order raises the first failure among the rest.
    pool = ThreadPoolExecutor(max_workers=backend.max_in_flight)
    try:
        futures = [pool.submit(answer, q, v) for q, v in zip(bench.queries, vectors)]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    results = [f.result() for f in futures]

    facts_by_key: dict[str, ExtractedFact] = {}
    for query, result in zip(bench.queries, results):
        warnings.extend(f"{query.query_id}: {note}" for note in result.prompt.notes)
        warnings.extend(f"{query.query_id}: {w.code}: {w.message}" for w in result.warnings)
        for fact in result.facts:
            if fact.fact_key in facts_by_key:
                warnings.append(
                    f"{query.query_id}: fact {fact.fact_key!r} already extracted "
                    "by an earlier query; keeping the first"
                )
                continue
            facts_by_key[fact.fact_key] = fact

    truth_map = {t.fact_key: t for t in bench.truths}

    if bench.inventory_keys is not None:
        inventory_keys = list(bench.inventory_keys)
    else:
        inventory_keys = [t.fact_key for t in bench.truths if t.fact_key in factors]
    items = []
    for key in inventory_keys:
        fact = facts_by_key.get(key)
        if fact is None:
            warnings.append(f"inventory activity {key!r} was not retrieved")
            continue
        try:
            items.append(
                InventoryItem(
                    activity=key,
                    quantity=fact.value,
                    unit=fact.unit,
                    lifecycle_stage=bench.lifecycle_stages.get(key, LifecycleStage.RAW_MATERIAL),
                )
            )
        except ValueError as exc:
            raise AccountingError(str(exc)) from None
    footprint = compute_footprint(items, factors, bench.scope, bench.functional_unit)

    irr = compute_irr(facts_by_key.keys(), truth_map.keys())
    matched = [f for f in facts_by_key.values() if f.fact_key in truth_map]
    id_pct = compute_id(matched, bench.truths)
    ad = compute_ad(footprint, bench.true_footprint)

    per_fact = []
    for key in sorted(truth_map):
        truth = truth_map[key]
        fact = facts_by_key.get(key)
        deviation = None
        if fact is not None and truth.true_value != 0:
            deviation = fact_deviation(fact, truth)
        per_fact.append(
            PerFactRecord(
                fact_key=key,
                retrieved=fact is not None,
                deviation_pct=deviation,
                true_value=truth.true_value,
                true_unit=truth.unit,
                extracted_value=None if fact is None else fact.value.as_json_value(),
                extracted_unit=None if fact is None else fact.unit,
            )
        )

    metadata = {
        "encoder_kind": encoder.kind,
        "encoder_dims": encoder.dims,
        "backend_kind": backend.kind,
        "k": config.k,
        "template_version": TEMPLATE_VERSION,
        "strategy": strategy.value,
        "document_count": len(docs),
        "chunk_count": len(chunks),
        "config": config.to_json_obj(),
    }
    report = MetricsReport(
        industry=bench.industry,
        irr_pct=irr,
        id_pct=id_pct,
        ad=ad,
        retrieved_count=len(set(facts_by_key) & set(truth_map)),
        truth_count=len(truth_map),
        per_fact=tuple(per_fact),
        footprint=footprint,
        true_footprint=bench.true_footprint,
        warnings=tuple(warnings),
        metadata=metadata,
        generated_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
    )
    if config.report_out is not None:
        report.write_json(config.report_out)
    return report
