"""Command-line front end.

Every subcommand is a thin wrapper over library calls; failures surface as
``[stage] message`` on stderr with exit code 1, usage mistakes exit 2.
Each command imports the modules it uses: ``embedding`` and ``index``
(numpy) only in the commands that embed, ``evaluation`` and ``fusion`` in
``query``, ``bench`` and ``report``, and ``accounting`` in ``account``. So
``ingest`` loads neither numpy, nor the pipeline past the catalog, nor any
networking code unless it fetches a URL.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from ._files import check_writable
from ._json import read_json, write_json
from .config import RunConfig
from .corpus import Catalog, SourceKind, check_chunking, classify_datasource
from .errors import CarbonRagError, ConfigError, FormatError
from .quantity import Quantity

if TYPE_CHECKING:  # pragma: no cover
    from .accounting import InventoryItem
    from .embedding import TrainingPair

# The values of accounting.Scope, spelt out so that building the parser
# does not import accounting; a test keeps the two equal.
_SCOPES = ("cradle_to_gate", "cradle_to_grave")


def _load_or_new_catalog(path: str) -> Catalog:
    return Catalog.load(path) if Path(path).exists() else Catalog()


def cmd_ingest(args) -> int:
    catalog = _load_or_new_catalog(args.catalog)
    if args.doc_id is not None and len(args.payloads) != 1:
        raise ConfigError("--doc-id only applies when ingesting a single payload")
    # A flag given as "" is kept as given, to be stored or refused.
    flags = {"doc_id": args.doc_id, "title": args.title, "industry_tag": args.industry_tag}
    metadata = {key: value for key, value in flags.items() if value is not None}
    for payload in args.payloads:
        doc = catalog.ingest(args.source, payload, metadata)
        print(f"ingested {doc.doc_id} ({len(doc.body)} chars) from {args.source}")
    catalog.save(args.catalog)
    print(f"catalog {args.catalog}: {len(catalog)} documents")
    return 0


def cmd_index_build(args) -> int:
    from .embedding import encoder_from_spec
    from .index import build_index

    check_chunking(args.chunk_size, args.overlap)
    catalog = Catalog.load(args.catalog)
    encoder = encoder_from_spec(args.encoder)
    chunks = catalog.chunk_all(args.chunk_size, args.overlap)
    index = build_index(chunks, encoder)
    index.save(args.out)
    print(
        f"indexed {len(chunks)} chunks from {len(catalog)} documents "
        f"({encoder.kind}, dims {encoder.dims}) -> {args.out}"
    )
    return 0


def _read_training_pairs(path: str) -> list[TrainingPair]:
    from .embedding import TrainingPair

    pairs = read_json(path, "training pairs", FormatError).elements(("text_a", "text_b", "related"))
    return [
        TrainingPair(p.get("text_a", str), p.get("text_b", str), p.get("related", bool))
        for p in pairs
    ]


def cmd_train_encoder(args) -> int:
    from .embedding import train_dual_tower

    pairs = _read_training_pairs(args.pairs)
    result = train_dual_tower(pairs)
    write_json(args.out, "encoder", result.encoder.spec)
    print(
        f"trained on {len(pairs)} pairs: loss {result.initial_loss:.6f} -> "
        f"{result.final_loss:.6f} over {len(result.losses) - 1} epochs; saved {args.out}"
    )
    return 0


def _print_result(result, catalog) -> None:
    for hit in result.hits:
        excerpt = catalog.resolve_chunk(hit.chunk_id).text[:100].replace("\n", " ")
        print(f"[{hit.rank}] {hit.similarity:.4f} {hit.chunk_id}  {excerpt}")
    for note in result.prompt.notes:
        print(f"note: {note}", file=sys.stderr)
    if not result.facts:
        print("no facts extracted")
    for fact in result.facts:
        sources = f"  (sources: {', '.join(fact.provenance)})" if fact.provenance else ""
        print(f"{fact.fact_key} = {fact.value} {fact.unit}{sources}")
    for w in result.warnings:
        print(f"warning: {w.code}: {w.message}", file=sys.stderr)


def cmd_query(args) -> int:
    from .evaluation import answer_query
    from .fusion import Strategy, select_strategy

    if args.interactive and args.question is not None:
        raise ConfigError("give a question or use --interactive, not both")
    if not args.interactive and not (args.question or "").strip():
        raise ConfigError("provide a question or use --interactive")
    config = _effective_config(args)
    if config.index_path and not config.catalog_path:
        raise ConfigError("--index needs --catalog, the catalog the index was built from")
    catalog = Catalog.load(config.catalog_path) if config.catalog_path else Catalog()
    strategy = select_strategy(classify_datasource(catalog.documents, config.length_threshold))
    retrieves = strategy is Strategy.RAG_LONG
    if retrieves and not config.index_path:
        raise ConfigError(
            "datasource is long: retrieval needs --index (build one with 'index build')"
        )
    if config.index_path and not retrieves:
        raise ConfigError(
            f"datasource routes to {strategy.value}, which does not retrieve: drop --index"
        )
    index = None
    if retrieves:
        from .index import VectorIndex

        index = VectorIndex.load(config.index_path)
    backend = config.build_backend()

    def answer(question: str) -> None:
        vector = index.encoder.embed(question) if retrieves else None
        _print_result(
            answer_query(
                question,
                strategy,
                catalog=catalog,
                index=index,
                query_vector=vector,
                backend=backend,
                config=config,
            ),
            catalog,
        )

    if args.interactive:
        for line in sys.stdin:
            question = line.strip()
            if not question:
                continue
            try:
                answer(question)
            except CarbonRagError as exc:
                print(f"[{exc.stage_name}] {exc}", file=sys.stderr)
        return 0
    answer(args.question)
    return 0


def _parse_fact_entries(path: str) -> list[InventoryItem]:
    """One inventory item per fact entry. An entry names its activity by
    ``activity`` or else by ``key``; one (activity, lifecycle stage) pair
    listed twice is refused, as it would be counted twice."""
    from .accounting import InventoryItem, LifecycleStage

    root = read_json(path, "facts", FormatError)
    items = []
    first_at = {}
    entries = root.only_keys(("facts",)).at("facts") if isinstance(root.value, dict) else root
    keys = ("activity", "key", "value", "unit", "lifecycle_stage", "sources")
    for entry in entries.elements(keys):
        named = entry.at("activity" if "activity" in entry.value else "key")
        activity = named.expect(str)
        if not activity.strip():
            raise FormatError(f"{named.where} must not be blank")
        quantity = entry.get("value", Quantity.from_json_value)
        unit = entry.get("unit", str)
        stage = entry.get("lifecycle_stage", LifecycleStage, default=LifecycleStage.RAW_MATERIAL)
        first = first_at.setdefault((activity, stage), entry)
        if first is not entry:
            entry.fail(
                f"duplicate activity {activity!r} in stage {stage.value!r}, first at {first.path}"
            )
        items.append(InventoryItem(activity, quantity, unit, stage))
    return items


def cmd_account(args) -> int:
    from .accounting import EmissionFactorDb, Scope, compute_footprint

    items = _parse_fact_entries(args.facts)
    factors = EmissionFactorDb.from_csv(args.factors)
    result = compute_footprint(
        items, factors, Scope(args.scope), args.functional_unit
    )
    for c in result.per_item:
        print(f"{c.activity}: {c.contribution} kgCO2e  [{c.lifecycle_stage.value}]")
    print(f"total: {result.total} kgCO2e per {result.functional_unit} ({result.scope.value})")
    if args.out is not None:
        write_json(args.out, "footprint", result.to_json_obj())
        print(f"wrote {args.out}")
    if args.csv is not None:
        result.write_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_bench(args) -> int:
    from .evaluation import run_benchmark

    config = _effective_config(args)
    if args.csv is not None:
        check_writable(args.csv, "per-fact CSV")
    report = run_benchmark(config)
    print(report.summary_text())
    if config.report_out is not None:
        print(f"wrote {config.report_out}")
    if args.csv is not None:
        report.write_per_fact_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_report(args) -> int:
    from .evaluation import MetricsReport

    report = MetricsReport.load(args.report)
    print(report.summary_text())
    if args.csv is not None:
        report.write_per_fact_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0


def _effective_config(args) -> RunConfig:
    """The config file, or the defaults, overridden by every flag given. The
    file may hold only the keys this command has flags for."""
    flags = [name for name in RunConfig.field_names() if hasattr(args, name)]
    config = RunConfig()
    if args.config:
        config = RunConfig.from_file(args.config, reader=args.command, reads=flags)
    return config.merged({name: getattr(args, name) for name in flags})


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """The run-config flags shared by ``query`` and ``bench``."""
    parser.add_argument("--config", help="JSON run configuration (flags override it)")
    parser.add_argument("--backend", help="generation backend: mock:<script.json> or remote:<url>")
    parser.add_argument("--model", help="model name sent to a remote backend")
    parser.add_argument("--k", type=int, help="fragments to retrieve per query")
    parser.add_argument("--length-threshold", dest="length_threshold", type=int)
    parser.add_argument("--prompt-budget", dest="prompt_budget", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carbonrag",
        description="Retrieval-augmented carbon footprint accounting pipeline.",
    )
    defaults = RunConfig()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="add datasource documents to a catalog")
    p.add_argument("payloads", nargs="+", metavar="PAYLOAD", help="file path, URL, or raw text per --source")
    p.add_argument("--catalog", required=True, help="catalog file to create or extend")
    p.add_argument(
        "--source",
        choices=[kind.value for kind in SourceKind],
        default=SourceKind.LOCAL_FILE.value,
    )
    p.add_argument("--doc-id", help="explicit document id (single payload only)")
    p.add_argument("--title")
    p.add_argument("--industry-tag")
    p.set_defaults(func=cmd_ingest)

    p_index = sub.add_parser("index", help="vector index operations")
    index_sub = p_index.add_subparsers(dest="index_command", required=True)
    p = index_sub.add_parser("build", help="chunk a catalog and embed every chunk")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True, help="index file to write (a JSON header line, then the raw float64 rows)")
    p.add_argument("--encoder", default=defaults.encoder)
    p.add_argument("--chunk-size", dest="chunk_size", type=int, default=defaults.chunk_size)
    p.add_argument("--overlap", dest="overlap", type=int, default=defaults.overlap)
    p.set_defaults(func=cmd_index_build)

    p = sub.add_parser("train-encoder", help="fit the dual-tower encoder on labeled pairs")
    p.add_argument("--pairs", required=True, help="JSON array of {text_a, text_b, related}")
    p.add_argument("--out", required=True, help="encoder JSON to write")
    p.set_defaults(func=cmd_train_encoder)

    p = sub.add_parser("query", help="answer one question end to end")
    p.add_argument("question", nargs="?", help="the question (omit with --interactive)")
    p.add_argument("--interactive", action="store_true", help="read questions line by line from stdin")
    _add_config_flags(p)
    p.add_argument("--catalog", dest="catalog_path", help="document catalog file")
    p.add_argument("--index", dest="index_path", help="vector index file from 'index build'")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("account", help="compute a footprint from extracted facts")
    p.add_argument("--facts", required=True, help="facts JSON (extraction output or a bare array)")
    p.add_argument("--factors", required=True, help="emission factor CSV")
    p.add_argument(
        "--scope",
        choices=_SCOPES,
        default=_SCOPES[0],
    )
    p.add_argument("--functional-unit", dest="functional_unit", default="unit")
    p.add_argument("--out", help="write result JSON here")
    p.add_argument("--csv", help="write per-item CSV here")
    p.set_defaults(func=cmd_account)

    p = sub.add_parser("bench", help="run a benchmark file and score it")
    _add_config_flags(p)
    p.add_argument("--encoder", help="encoder spec: lexical, lexical:<dims>, remote:<url>, or a saved encoder file")
    p.add_argument("--chunk-size", dest="chunk_size", type=int)
    p.add_argument("--overlap", dest="overlap", type=int)
    p.add_argument("--benchmark", dest="benchmark_path", help="benchmark JSON")
    p.add_argument("--out", dest="report_out", help="write the report JSON here")
    p.add_argument("--csv", help="write the per-fact CSV here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="render a saved report")
    p.add_argument("--in", dest="report", required=True, help="report JSON from bench")
    p.add_argument("--csv", help="write the per-fact CSV here")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except CarbonRagError as exc:
        print(f"[{exc.stage_name}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
