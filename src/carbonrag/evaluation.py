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
import dataclasses
import datetime as _dt
import json
import logging
import math
from collections import Counter
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ._files import check_writable, write_file
from ._json import dump_json, read_json, write_json
from .accounting import (
    EmissionFactorDb,
    FootprintResult,
    InventoryItem,
    ItemContribution,
    LifecycleStage,
    Scope,
    check_inventory,
    compute_footprint,
    convert_unit,
)
from .config import RunConfig
from .corpus import Catalog, SourceKind, classify_datasource
from .errors import BenchmarkError, CarbonRagError, FormatError
from .fusion import (
    TEMPLATE_VERSION,
    Prompt,
    Strategy,
    build_prompt,
    fragments_from_documents,
    fragments_from_hits,
    select_strategy,
)
from .generation import FACT_KEY_RE, ExtractedFact, ParseWarning, RawAnswer, parse_extraction
from .quantity import Quantity

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .index import RetrievalHit, VectorIndex

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


@dataclass(frozen=True)
class PerFactRecord:
    fact_key: str
    retrieved: bool
    deviation_pct: float | None
    true_value: float
    true_unit: str
    extracted_value: float | dict | None = None
    extracted_unit: str | None = None


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
    interval that brackets the truth still pays for its width. A deviation
    too large for a float, from a huge value or a tiny truth, is an error.
    """
    if truth.true_value == 0:
        raise BenchmarkError(
            f"truth for {truth.fact_key!r} is zero; percentage deviation is undefined"
        )
    t = truth.true_value
    try:
        converted = convert_unit(fact.value, fact.unit, truth.unit)
    except ValueError:  # a bound overflowed to infinity
        deviation = math.inf
    else:
        deviation = max(
            100.0 * abs(converted.lower - t) / abs(t),
            100.0 * abs(converted.upper - t) / abs(t),
        )
    if not math.isfinite(deviation):
        raise BenchmarkError(
            f"deviation of {truth.fact_key!r} overflows: {fact.value} {fact.unit} "
            f"against a truth of {t} {truth.unit}"
        )
    return deviation


def _deviations(
    facts: Iterable[ExtractedFact], truths: Sequence[GroundTruthRecord], warnings: list[str]
) -> list[tuple[float, str]]:
    """``(deviation, fact_key)`` of each fact that matches a truth key, in
    fact order; zero-valued truths are skipped with a warning appended to
    ``warnings``."""
    truth_map = {t.fact_key: t for t in truths}
    deviations = []
    for fact in facts:
        truth = truth_map.get(fact.fact_key)
        if truth is None:
            continue
        if truth.true_value == 0:
            warnings.append(
                f"excluding {fact.fact_key!r} from the deviation mean: truth value is zero"
            )
            continue
        deviations.append((fact_deviation(fact, truth), fact.fact_key))
    return deviations


def _mean_deviation(deviations: Sequence[tuple[float, str]]) -> float | None:
    if not deviations:
        return None
    mean = sum(d for d, _ in deviations) / len(deviations)
    if not math.isfinite(mean):
        worst, key = max(deviations)
        raise BenchmarkError(f"ID overflows: the deviation of {key!r} is {worst:g}%")
    return mean


def compute_id(
    facts: Iterable[ExtractedFact], truths: Sequence[GroundTruthRecord]
) -> float | None:
    """Mean deviation over retrieved facts that match a truth key.

    Returns None when nothing matched: an undefined score is reported as
    absent, never as a flattering zero. Zero-valued truths are skipped with
    a warning since a percentage against zero has no meaning. A mean too
    large for a float is an error naming the largest deviation's fact.
    With no report to hold them, the warnings are logged.
    """
    warnings: list[str] = []
    deviations = _deviations(facts, truths, warnings)
    for warning in warnings:
        logger.warning("%s", warning)
    return _mean_deviation(deviations)


def compute_ad(total: Quantity, true_footprint: float) -> AccountingDeviation:
    """Signed deviation of a footprint total from the true footprint at each
    of its bounds, in percent, plus the larger magnitude of the two. A
    deviation too large for a float is an error."""
    if true_footprint == 0:
        raise BenchmarkError("true footprint is zero; percentage deviation is undefined")
    at_lower = 100.0 * (total.lower - true_footprint) / true_footprint
    at_upper = 100.0 * (total.upper - true_footprint) / true_footprint
    if not (math.isfinite(at_lower) and math.isfinite(at_upper)):
        raise BenchmarkError(
            f"AD overflows: a footprint of {total} kgCO2e against a true footprint "
            f"of {true_footprint}"
        )
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
    """A benchmark file, resolved and checked when it is read.

    Each datasource is ``(source, payload, metadata)``, a ``local_file``
    payload joined to the benchmark's directory. ``inventory`` maps each
    activity to price, in inventory order, to its lifecycle stage; every
    activity has a factor in ``factors`` and a stage inside ``scope``.
    """

    industry: str
    datasources: tuple[tuple[SourceKind, str, dict[str, str]], ...]
    queries: tuple[BenchmarkQuery, ...]
    truths: tuple[GroundTruthRecord, ...]
    true_footprint: float
    factors: EmissionFactorDb
    inventory: Mapping[str, LifecycleStage]
    functional_unit: str = "unit"
    scope: Scope = Scope.CRADLE_TO_GATE


# The keys each object of a benchmark file may hold.
_BENCHMARK_KEYS = (
    "industry", "datasources", "queries", "truths", "true_footprint", "factor_db",
    "functional_unit", "scope", "inventory_keys", "lifecycle_stages",
)
_QUERY_KEYS = ("query_id", "query_text", "fact_keys")
_TRUTH_KEYS = ("fact_key", "true_value", "unit")
_DATASOURCE_METADATA = ("doc_id", "title", "industry_tag", "fetched_at")


def _fact_key(node) -> str:
    """The string at ``node``, when it is a key an answer can carry:
    ``parse_extraction`` drops any other, so a truth under one could never
    be retrieved."""
    key = node.expect(str)
    if not FACT_KEY_RE.fullmatch(key):
        node.fail(f"{key!r} is not a fact key (dotted words of a-z, 0-9 and _)")
    return key


def load_benchmark(path: str | Path) -> Benchmark:
    """Read, resolve and check a benchmark file, and its factor CSV.

    Everything that could stop a run before it is scored, or keep a truth
    from ever being retrieved, is refused here, before any question is
    asked: a blank question, a fact key or inventory activity that no
    answer can carry, a zero true footprint, a repeated inventory activity,
    a ``lifecycle_stages`` key that is not an inventory activity, and an
    inventory activity without a factor or, under ``cradle_to_gate``, with
    a use or end-of-life stage. The inventory is ``inventory_keys``, or else
    every truth that has a factor.
    """
    path = Path(path)
    root = read_json(path, "benchmark", BenchmarkError).only_keys(_BENCHMARK_KEYS)
    industry = root.get("industry", str)
    queries = []
    for q in root.at("queries").elements(_QUERY_KEYS):
        text = q.get("query_text", str)
        if not text.strip():  # refused before any encoder or backend call is paid for
            raise BenchmarkError(f"{q.at('query_text').where} must not be blank")
        keys = tuple(_fact_key(k) for k in q.at("fact_keys").elements())
        queries.append(BenchmarkQuery(q.get("query_id", str), text, keys))
    truths = []
    for t in root.at("truths").elements(_TRUTH_KEYS):
        key = _fact_key(t.at("fact_key"))
        truths.append(GroundTruthRecord(key, t.get("true_value", float), t.get("unit", str)))
    for field_name, name, keys in (
        ("queries", "query_id", [q.query_id for q in queries]),
        ("truths", "truth fact_key", [t.fact_key for t in truths]),
    ):
        if not keys:
            root.fail(f"{field_name!r} must not be empty")
        repeated = [key for key, count in Counter(keys).items() if count > 1]
        if repeated:
            root.fail(f"duplicate {name} {repeated[0]!r}")
    datasources = []
    datasource_keys = ("source", "payload", *_DATASOURCE_METADATA)
    for ds in root.at("datasources", default=[]).elements(datasource_keys):
        fields = ds.expect(dict[str, str])
        source, payload = ds.get("source", SourceKind), ds.get("payload", str)
        if source is SourceKind.LOCAL_FILE:
            payload = str(path.parent / payload)
        metadata = {k: v for k, v in fields.items() if k in _DATASOURCE_METADATA}
        datasources.append((source, payload, metadata))
    true_footprint = root.get("true_footprint", float)
    if true_footprint == 0:  # refused before any question is paid for, as AD would divide by it
        raise BenchmarkError(f"{root.at('true_footprint').where} must not be zero")
    functional_unit = root.get("functional_unit", str, default="unit")
    scope = root.get("scope", Scope, default=Scope.CRADLE_TO_GATE)
    listed = root.at("inventory_keys", default=None)
    activities = listed.expect(list[str], nullable=True)
    stages = root.at("lifecycle_stages", default={})
    stage_of = {a: stages.get(a, LifecycleStage) for a in stages.expect(dict)}
    if activities is not None:
        seen = set()
        for key in listed.elements():
            if _fact_key(key) in seen:
                key.fail(f"duplicate inventory activity {key.value!r}")
            seen.add(key.value)
    factors = EmissionFactorDb.from_csv(path.parent / root.get("factor_db", str))
    if activities is None:
        activities = [t.fact_key for t in truths if t.fact_key in factors]
    inventory = {a: stage_of.pop(a, LifecycleStage.RAW_MATERIAL) for a in activities}
    if stage_of:  # what is left names no inventory activity
        stages.at(next(iter(stage_of))).fail("not an inventory activity")
    check_inventory(inventory.items(), factors, scope)
    return Benchmark(
        industry=industry,
        datasources=tuple(datasources),
        queries=tuple(queries),
        truths=tuple(truths),
        true_footprint=true_footprint,
        factors=factors,
        inventory=inventory,
        functional_unit=functional_unit,
        scope=scope,
    )


def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _quantity_json(obj):
    """A quantity's JSON form, as ``Quantity.as_json_value`` writes it."""
    return Quantity.from_json_value(obj).as_json_value()


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
        """The fields by name; only ``footprint`` keeps its own JSON keys."""
        return {**dataclasses.asdict(self), "footprint": self.footprint.to_json_obj()}

    def to_json_text(self) -> str:
        return dump_json(self.to_json_obj())

    @classmethod
    def load(cls, path: str | Path) -> "MetricsReport":
        """Read a report, checking the JSON type of every field; a failure
        names the file and the field's JSON path."""
        root = read_json(path, "report", FormatError)
        fp = root.at("footprint")
        fp.only_keys(("total_kgco2e", "functional_unit", "scope", "per_item"))
        ad = root.at("ad").only_keys(_field_names(AccountingDeviation))
        root.only_keys(_field_names(cls))
        footprint = FootprintResult(
            total=fp.get("total_kgco2e", Quantity.from_json_value),
            per_item=tuple(
                ItemContribution(
                    activity=c.get("activity", str),
                    contribution=c.get("contribution_kgco2e", Quantity.from_json_value),
                    lifecycle_stage=c.get("lifecycle_stage", LifecycleStage),
                )
                for c in fp.at("per_item").elements(
                    ("activity", "contribution_kgco2e", "lifecycle_stage")
                )
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
                extracted_value=r.get("extracted_value", _quantity_json, nullable=True),
                extracted_unit=r.get("extracted_unit", str, nullable=True),
            )
            for r in root.at("per_fact").elements(_field_names(PerFactRecord))
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
            warnings=tuple(root.get("warnings", list[str])),
            metadata=root.get("metadata", dict),
            generated_at=root.get("generated_at", str),
        )

    def write_per_fact_csv(self, path: str | Path) -> None:
        """One column per ``PerFactRecord`` field: a string as it is, None
        as an empty cell, any other value as JSON."""
        names = [f.name for f in dataclasses.fields(PerFactRecord)]

        def cell(value) -> str:
            if value is None:
                return ""
            return value if isinstance(value, str) else json.dumps(value)

        def write(fh):
            writer = csv.writer(fh)
            writer.writerow(names)
            writer.writerows([cell(getattr(r, name)) for name in names] for r in self.per_fact)
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

    The benchmark, its factor CSV and its inventory are read and checked
    by ``load_benchmark`` before any datasource is ingested or any question
    asked. For the ``rag_long`` strategy the chunks and then the questions are
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
    from .index import VectorIndex

    if config.report_out is not None:
        check_writable(config.report_out, "report")
    bench = load_benchmark(config.require("benchmark_path"))
    if encoder is None:
        encoder = config.build_encoder()
    if backend is None:
        backend = config.build_backend()

    warnings: list[str] = []

    catalog = Catalog()
    for source, payload, metadata in bench.datasources:
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
        index = VectorIndex([c.chunk_id for c in chunks], rows[: len(chunks)], encoder=encoder)
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

    items = []
    for key, stage in bench.inventory.items():
        fact = facts_by_key.get(key)
        if fact is None:
            warnings.append(f"inventory activity {key!r} was not retrieved")
            continue
        items.append(InventoryItem(key, fact.value, fact.unit, stage))
    footprint = compute_footprint(items, bench.factors, bench.scope, bench.functional_unit)

    irr = compute_irr(facts_by_key.keys(), truth_map.keys())
    # Each deviation is computed once, for the ID mean and for its record.
    deviations = _deviations(facts_by_key.values(), bench.truths, warnings)
    id_pct = _mean_deviation(deviations)
    ad = compute_ad(footprint.total, bench.true_footprint)

    deviation_of = {key: d for d, key in deviations}
    per_fact = []
    for key in sorted(truth_map):
        truth = truth_map[key]
        fact = facts_by_key.get(key)
        per_fact.append(
            PerFactRecord(
                fact_key=key,
                retrieved=fact is not None,
                deviation_pct=deviation_of.get(key),
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
        write_json(config.report_out, "report", report.to_json_obj())
    return report
