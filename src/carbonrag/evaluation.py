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
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .accounting import (
    EmissionFactorDb,
    FootprintResult,
    InventoryItem,
    ItemContribution,
    LifecycleStage,
    Scope,
    UnitTable,
    compute_footprint,
    convert_unit,
)
from .config import RunConfig
from .corpus import Catalog, classify_datasource
from .errors import AccountingError, BenchmarkError, CarbonRagError, FormatError
from .fusion import (
    Prompt,
    Strategy,
    build_prompt,
    fragments_from_documents,
    fragments_from_hits,
    select_strategy,
)
from .generation import ExtractedFact, ParseWarning, RawAnswer, parse_extraction
from .index import RetrievalHit, VectorIndex, build_index
from .quantity import Quantity

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GroundTruthRecord:
    fact_key: str
    true_value: float
    unit: str
    industry: str = ""


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


def fact_deviation(
    fact: ExtractedFact, truth: GroundTruthRecord, units: UnitTable | None = None
) -> float:
    """Absolute percentage error of one fact against its truth.

    Ranges are charged the worse of their two boundary errors, so an
    interval that brackets the truth still pays for its width.
    """
    if truth.true_value == 0:
        raise BenchmarkError(
            f"truth for {truth.fact_key!r} is zero; percentage deviation is undefined"
        )
    converted = convert_unit(fact.value, fact.unit, truth.unit, units)
    assert isinstance(converted, Quantity)
    t = truth.true_value
    return max(
        100.0 * abs(converted.lower - t) / abs(t),
        100.0 * abs(converted.upper - t) / abs(t),
    )


def compute_id(
    facts: Sequence[ExtractedFact],
    truths: Sequence[GroundTruthRecord],
    units: UnitTable | None = None,
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
        deviations.append(fact_deviation(fact, truth, units))
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


def _require(obj: Mapping, key: str, kind, where: str):
    if key not in obj:
        raise BenchmarkError(f"{where} is missing {key!r}")
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise BenchmarkError(f"{where}: {key!r} must be a number")
        return float(value)
    if not isinstance(value, kind):
        raise BenchmarkError(f"{where}: {key!r} must be {kind.__name__}")
    return value


def load_benchmark(path: str | Path) -> Benchmark:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"cannot load benchmark {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise BenchmarkError(f"benchmark {path} must be a JSON object")
    where = f"benchmark {path}"

    industry = _require(obj, "industry", str, where)
    datasources = obj.get("datasources", [])
    if not isinstance(datasources, list) or not all(isinstance(d, dict) for d in datasources):
        raise BenchmarkError(f"{where}: 'datasources' must be a list of objects")

    raw_queries = _require(obj, "queries", list, where)
    if not raw_queries:
        raise BenchmarkError(f"{where}: 'queries' must not be empty")
    queries = []
    seen_qids = set()
    for i, q in enumerate(raw_queries):
        if not isinstance(q, dict):
            raise BenchmarkError(f"{where}: queries[{i}] must be an object")
        qwhere = f"{where} queries[{i}]"
        qid = _require(q, "query_id", str, qwhere)
        if qid in seen_qids:
            raise BenchmarkError(f"{where}: duplicate query_id {qid!r}")
        seen_qids.add(qid)
        text = _require(q, "query_text", str, qwhere)
        keys = _require(q, "fact_keys", list, qwhere)
        if not all(isinstance(k, str) for k in keys):
            raise BenchmarkError(f"{qwhere}: fact_keys must be strings")
        queries.append(BenchmarkQuery(qid, text, tuple(keys)))

    raw_truths = _require(obj, "truths", list, where)
    if not raw_truths:
        raise BenchmarkError(f"{where}: 'truths' must not be empty")
    truths = []
    seen_keys = set()
    for i, t in enumerate(raw_truths):
        if not isinstance(t, dict):
            raise BenchmarkError(f"{where}: truths[{i}] must be an object")
        twhere = f"{where} truths[{i}]"
        key = _require(t, "fact_key", str, twhere)
        if key in seen_keys:
            raise BenchmarkError(f"{where}: duplicate truth fact_key {key!r}")
        seen_keys.add(key)
        truths.append(
            GroundTruthRecord(
                fact_key=key,
                true_value=_require(t, "true_value", float, twhere),
                unit=_require(t, "unit", str, twhere),
                industry=t.get("industry", industry),
            )
        )

    true_footprint = _require(obj, "true_footprint", float, where)
    factor_db = _require(obj, "factor_db", str, where)

    scope_text = obj.get("scope", Scope.CRADLE_TO_GATE.value)
    try:
        scope = Scope(scope_text)
    except ValueError:
        raise BenchmarkError(f"{where}: unknown scope {scope_text!r}") from None

    inventory_keys = obj.get("inventory_keys")
    if inventory_keys is not None:
        if not isinstance(inventory_keys, list) or not all(
            isinstance(k, str) for k in inventory_keys
        ):
            raise BenchmarkError(f"{where}: 'inventory_keys' must be a list of strings")
        inventory_keys = tuple(inventory_keys)

    raw_stages = obj.get("lifecycle_stages", {})
    if not isinstance(raw_stages, dict):
        raise BenchmarkError(f"{where}: 'lifecycle_stages' must be an object")
    stages = {}
    for activity, stage_text in raw_stages.items():
        try:
            stages[activity] = LifecycleStage(stage_text)
        except ValueError:
            raise BenchmarkError(
                f"{where}: unknown lifecycle stage {stage_text!r} for {activity!r}"
            ) from None

    return Benchmark(
        industry=industry,
        datasources=tuple(datasources),
        queries=tuple(queries),
        truths=tuple(truths),
        true_footprint=true_footprint,
        factor_db_path=(path.parent / factor_db),
        functional_unit=obj.get("functional_unit", "unit"),
        scope=scope,
        inventory_keys=inventory_keys,
        lifecycle_stages=stages,
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
    def from_json_obj(cls, obj: Mapping) -> "MetricsReport":
        try:
            fp = obj["footprint"]
            footprint = FootprintResult(
                total=Quantity.from_json_value(fp["total_kgco2e"]),
                per_item=tuple(
                    ItemContribution(
                        activity=c["activity"],
                        contribution=Quantity.from_json_value(c["contribution_kgco2e"]),
                        lifecycle_stage=LifecycleStage(c["lifecycle_stage"]),
                    )
                    for c in fp["per_item"]
                ),
                functional_unit=fp["functional_unit"],
                scope=Scope(fp["scope"]),
            )
            ad = obj["ad"]
            per_fact = tuple(
                PerFactRecord(
                    fact_key=r["fact_key"],
                    retrieved=r["retrieved"],
                    deviation_pct=r["deviation_pct"],
                    true_value=r["true_value"],
                    true_unit=r["true_unit"],
                    extracted_value=r.get("extracted_value"),
                    extracted_unit=r.get("extracted_unit"),
                )
                for r in obj["per_fact"]
            )
            return cls(
                industry=obj["industry"],
                irr_pct=obj["irr_pct"],
                id_pct=obj["id_pct"],
                ad=AccountingDeviation(
                    at_lower_pct=ad["at_lower_pct"],
                    at_upper_pct=ad["at_upper_pct"],
                    ad_pct=ad["ad_pct"],
                ),
                retrieved_count=obj["retrieved_count"],
                truth_count=obj["truth_count"],
                per_fact=per_fact,
                footprint=footprint,
                true_footprint=obj["true_footprint"],
                warnings=tuple(obj.get("warnings", [])),
                metadata=obj.get("metadata", {}),
                generated_at=obj.get("generated_at", ""),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"not a metrics report: {exc}") from None

    @classmethod
    def load(cls, path: str | Path) -> "MetricsReport":
        path = Path(path)
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"cannot load report {path}: {exc}") from None
        if not isinstance(obj, dict):
            raise FormatError(f"report {path} must be a JSON object")
        return cls.from_json_obj(obj)

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json_text(), encoding="utf-8")

    def write_per_fact_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
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
    """Tag any pipeline error with the stage it came from."""
    try:
        yield
    except CarbonRagError as exc:
        if exc.stage is None:
            exc.stage = name
        raise


@dataclass(frozen=True)
class QueryResult:
    """Everything one question produced on its way through the pipeline."""

    strategy: Strategy
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
    encoder,
    backend,
    config: RunConfig,
    query_key: str | None = None,
    expected_keys: Sequence[str] | None = None,
) -> QueryResult:
    """Retrieve, fuse, generate and parse for one already-routed question.

    ``index`` is needed only for the ``rag_long`` strategy. Failures carry
    the stage they came from: retrieve, prompt, generate or parse.
    """
    hits, fragments = [], []
    if strategy is Strategy.RAG_LONG:
        with _stage("retrieve"):
            hits = index.top_k(encoder.embed(question), config.k)
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
    return QueryResult(strategy, tuple(hits), prompt, raw, tuple(facts), tuple(warnings))


def run_benchmark(
    config: RunConfig,
    *,
    encoder=None,
    backend=None,
    units: UnitTable | None = None,
) -> MetricsReport:
    """Run the full pipeline over a benchmark file and score it.

    Queries are evaluated in file order; the report is independent of that
    order because facts are keyed and the first extraction of a key wins.
    Any failure aborts with the owning stage's name attached.
    """
    with _stage("benchmark"):
        bench = load_benchmark(config.require("benchmark_path", must_exist=True))
        factors = EmissionFactorDb.from_csv(bench.factor_db_path)

    with _stage("config"):
        if encoder is None:
            encoder = config.build_encoder()
        if backend is None:
            backend = config.build_backend()

    warnings: list[str] = []

    with _stage("ingest"):
        catalog = Catalog()
        for i, ds in enumerate(bench.datasources):
            source = ds.get("source")
            payload = ds.get("payload")
            if not isinstance(source, str) or not isinstance(payload, str):
                raise BenchmarkError(
                    f"datasources[{i}] needs string 'source' and 'payload' fields"
                )
            if source == "local_file":
                payload = str(bench.base_dir / payload)
            metadata = {
                k: str(v)
                for k, v in ds.items()
                if k in ("doc_id", "title", "industry_tag", "fetched_at")
            }
            catalog.ingest(source, payload, metadata)
        docs = catalog.documents

    with _stage("strategy"):
        length_class = classify_datasource(docs, config.length_threshold)
        strategy = select_strategy(length_class)

    with _stage("segment"):
        chunks = catalog.chunk_all(config.chunk_size, config.overlap)

    index = None
    if strategy is Strategy.RAG_LONG:
        with _stage("index"):
            index = build_index(chunks, encoder)

    facts_by_key: dict[str, ExtractedFact] = {}
    for query in bench.queries:
        result = answer_query(
            query.query_text,
            strategy,
            catalog=catalog,
            index=index,
            encoder=encoder,
            backend=backend,
            config=config,
            query_key=query.query_id,
            expected_keys=query.fact_keys,
        )
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

    with _stage("account"):
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
                        lifecycle_stage=bench.lifecycle_stages.get(
                            key, LifecycleStage.RAW_MATERIAL
                        ),
                    )
                )
            except ValueError as exc:
                raise AccountingError(str(exc)) from None
        footprint = compute_footprint(
            items, factors, bench.scope, bench.functional_unit, units
        )

    with _stage("score"):
        irr = compute_irr(facts_by_key.keys(), truth_map.keys())
        matched = [f for f in facts_by_key.values() if f.fact_key in truth_map]
        id_pct = compute_id(matched, bench.truths, units)
        ad = compute_ad(footprint, bench.true_footprint)

        per_fact = []
        for key in sorted(truth_map):
            truth = truth_map[key]
            fact = facts_by_key.get(key)
            deviation = None
            if fact is not None and truth.true_value != 0:
                deviation = fact_deviation(fact, truth, units)
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
        "encoder_kind": getattr(encoder, "kind", "unknown"),
        "encoder_dims": getattr(encoder, "dims", None),
        "backend_kind": getattr(backend, "kind", "unknown"),
        "k": config.k,
        "template_version": config.template_version,
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
    if config.report_out:
        with _stage("report"):
            report.write_json(config.report_out)
    return report
