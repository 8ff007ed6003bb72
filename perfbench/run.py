"""carbonrag benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

The package is imported from the checkout's ``src/`` directory; without it
the benchmark exits with status 2 and prints no result.

With ``--trace 0`` the run measures end-to-end metrics with tracing off.
It sets the workload up, runs one untimed warm-up operation, then runs
operations in a closed loop with one client for ``--seconds`` seconds. The
workload is set up again ``SETUP_REPEATS - 1`` times, spread evenly over
those seconds; ``setup_s`` is the fastest of all set-ups. Every operation's
output is checked outside the timed region; a failed check or an exception
counts the operation as failed.

With ``--trace 1`` every second operation is traced (fewer on a workload
with many short operations, so that about ``MAX_TRACED_OPS`` are), and the
run reports the per-layer metrics of ``BENCHMARK.json``: layer times
are self times (children excluded), averaged over the set-ups or
operations that entered the layer; counts are averaged over traced
operations. A metric whose layer the workload does not enter reads 0 and
is listed with the reason in the trace file. ``trace.overhead_s`` is the
mean traced minus the mean untraced operation time, and
``trace.uncovered_s`` the mean part of an operation no layer covers.

The last line of standard output is the result object. The full record
(metrics, input properties, environment) goes to
``.perfbench/result-<workload>-seed<seed>-trace<t>.json`` and, with
tracing on, every span to ``.perfbench/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 8
MAX_TRACED_OPS = 2000
SUM_TOLERANCE_S = 1e-9

# Per-layer time metric -> span names whose self times it sums. A name
# ending in ":" matches every proxy span of that layer.
LAYER_TIMES = {
    "corpus.ingest_s": ("corpus.ingest",),
    "corpus.segment_s": ("corpus.segment",),
    "corpus.catalog_save_s": ("corpus.catalog_save",),
    "corpus.catalog_load_s": ("corpus.catalog_load",),
    "corpus.resolve_s": ("corpus.resolve",),
    "embedding.embed_s": ("embedding:",),
    "index.insert_s": ("index.insert",),
    "index.save_s": ("index.save",),
    "index.load_s": ("index.load",),
    "index.top_k_s": ("index.top_k",),
    "fusion.route_s": ("fusion.route",),
    "fusion.prompt_s": ("fusion.prompt",),
    "generation.generate_s": ("generation:",),
    "generation.parse_s": ("generation.parse_fenced", "generation.parse_bare"),
    "generation.parse_fenced_s": ("generation.parse_fenced",),
    "generation.parse_bare_s": ("generation.parse_bare",),
    "evaluation.self_s": ("evaluation.self",),
}
# Per-layer call counts: number of proxy spans of the layer.
LAYER_CALLS = {
    "embedding.embed_calls": "embedding:",
    "generation.generate_calls": "generation:",
}
# Per-layer counts reported by the workload's check of each operation.
LAYER_COUNTS = (
    "corpus.chunks",
    "corpus.chars",
    "embedding.http_requests",
    "embedding.connections",
    "index.save_bytes",
    "fusion.prompt_chars",
    "fusion.fragments_kept_ratio",
    "generation.http_requests",
    "generation.connections",
    "generation.parse_warnings",
    "accounting.items",
)


def _matches(span_name: str, patterns) -> bool:
    return any(
        span_name.startswith(p) if p.endswith(":") else span_name == p for p in patterns
    )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "carbonrag").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
    }


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _layer_metrics(tracer, workload, traced_ops, traced_walls, untraced_walls) -> tuple[dict, dict, list]:
    """Per-layer metrics from the spans, plus the reasons for those not
    measured and each traced operation's breakdown."""
    self_times = tracer.self_times()
    roots = tracer.roots("setup") + [root for root, _ in traced_ops]
    values: dict[str, float] = {}
    seen: set[str] = set()
    for metric, patterns in LAYER_TIMES.items():
        per_root = [
            sum(t for name, t in self_times[r.span_id].items() if _matches(name, patterns))
            for r in roots
            if any(_matches(name, patterns) for name in self_times[r.span_id])
        ]
        values[metric] = _mean(per_root)
        if per_root:
            seen.add(metric)
    calls_by_root = defaultdict(lambda: defaultdict(int))
    for s in tracer.spans:
        for metric, prefix in LAYER_CALLS.items():
            if s.name.startswith(prefix):
                calls_by_root[s.root][metric] += 1
    for metric in LAYER_CALLS:
        per_root = [c[metric] for c in calls_by_root.values() if c[metric]]
        values[metric] = _mean(per_root)
        if per_root:
            seen.add(metric)
    for metric in LAYER_COUNTS:
        per_op = [counts[metric] for _, counts in traced_ops if metric in counts]
        values[metric] = _mean(per_op)
        if per_op:
            seen.add(metric)
    if values["generation.generate_calls"] and "generation.http_requests" in seen:
        values["generation.attempts_per_call"] = (
            values["generation.http_requests"] / values["generation.generate_calls"]
        )
        seen.add("generation.attempts_per_call")
    else:
        values["generation.attempts_per_call"] = 0.0

    breakdown = []
    for root, _ in traced_ops:
        layers = dict(self_times[root.span_id])
        breakdown.append(
            {
                "root": root.span_id,
                "query_id": root.query_id,
                "wall_s": root.duration,
                "uncovered_s": layers.pop("op", 0.0),
                "layers_s": layers,
            }
        )
    values["trace.uncovered_s"] = _mean(b["uncovered_s"] for b in breakdown)
    values["trace.overhead_s"] = _mean(traced_walls) - _mean(untraced_walls)
    seen.update(("trace.uncovered_s", "trace.overhead_s"))

    not_measured = {
        metric: workload.not_measured.get(metric, "this workload does not enter the layer")
        for metric in values
        if metric not in seen
    }
    return values, not_measured, breakdown


def run(name: str, seed: int, seconds: float, trace: bool, *, sites=None, max_ops=None) -> dict:
    """Run one workload; returns the full result record."""
    from tracing import NullTracer, Tracer
    from workloads import make_workload

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT_DIR))
    workload = None
    try:
        workload = make_workload(name, seed, work_dir, sites)
        tracer = Tracer() if trace else NullTracer()
        null = NullTracer()

        setup_times = []

        def set_up() -> None:
            workload.close()  # the previous set-up's resources, untimed
            started = time.perf_counter()
            with tracer.root("setup"):
                workload.setup(tracer)
            setup_times.append(time.perf_counter() - started)

        set_up()
        attempted = failed = 0
        errors: list[str] = []
        properties = {}

        def checked(i, out) -> tuple[int, dict]:
            """Check one operation's output: its work items and its counts."""
            nonlocal failed
            n, op_errors, counts = workload.check(i, out)
            properties.update(
                chunks=counts.get("corpus.chunks", properties.get("chunks")),
                chars=counts.get("corpus.chars", properties.get("chars")),
            )
            if op_errors:
                failed += 1
                errors.extend(op_errors)
            return n, counts

        # Warm-up: fills caches and lazy state; checked, not timed.
        attempted += 1
        try:
            checked(-1, workload.op(-1, null))
        except Exception:
            failed += 1
            errors.append(traceback.format_exc())

        walls, rates, traced_walls, untraced_walls, traced_ops = [], [], [], [], []
        started = time.perf_counter()
        i = 0
        while (i == 0 or time.perf_counter() - started < seconds) and (
            max_ops is None or i < max_ops
        ):
            # Further set-ups are spread over the run, so that setup_s samples
            # the same stretch of machine time as the operations do.
            if time.perf_counter() - started >= seconds * len(setup_times) / SETUP_REPEATS:
                set_up()
            # Trace every second operation, or fewer so that about
            # MAX_TRACED_OPS are traced, spread over the whole run.
            expected_ops = (i + 1) * seconds / max(time.perf_counter() - started, 1e-9)
            if max_ops is not None:
                expected_ops = min(expected_ops, max_ops)
            traced = trace and i % max(2, round(expected_ops / MAX_TRACED_OPS)) == 1
            t = tracer if traced else null
            attempted += 1
            n, counts = 0, {}
            t0 = time.perf_counter()
            try:
                with t.root("op", workload.query_id(i)) as root:
                    out = workload.op(i, t)
            except Exception:
                out = None
                failed += 1
                errors.append(traceback.format_exc())
            wall = time.perf_counter() - t0
            if out is not None:
                try:
                    n, counts = checked(i, out)
                except Exception:
                    failed += 1
                    errors.append(traceback.format_exc())
            walls.append(wall)
            rates.append(n / wall)  # a failed operation did no work
            (traced_walls if traced else untraced_walls).append(wall)
            if traced and out is not None:
                traced_ops.append((root, counts))
            i += 1

        record = {
            "workload": name,
            "trace": int(trace),
            "attempted": attempted,
            "failed": failed,
            "timed_ops": len(walls),
            "inputs": {
                **workload.corpus.properties(),
                **properties,
                **({"stub": workload.stub_record()} if hasattr(workload, "stub_record") else {}),
            },
            "environment": environment(seed),
            "op_ms_quantiles": {
                f"p{q}": _quantile(walls, q) * 1000.0 for q in (1, 10, 25, 50, 75, 90, 99)
            },
        }
        if trace:
            metrics, not_measured, breakdown = _layer_metrics(
                tracer, workload, traced_ops, traced_walls, untraced_walls
            )
            errors.extend(tracer.nesting_errors())
            for b in breakdown:
                total = b["uncovered_s"] + sum(b["layers_s"].values())
                if abs(total - b["wall_s"]) > SUM_TOLERANCE_S:
                    errors.append(
                        f"op root {b['root']}: layers + uncovered = {total} s, wall = {b['wall_s']} s"
                    )
            record["not_measured"] = not_measured
            _write_trace(name, seed, record, breakdown, tracer.records())
        else:
            # Interference from other tenants only ever slows an operation,
            # and on a shared machine it comes and goes; the fastest
            # operations are what repeats from run to run (see README.md).
            metrics = {
                "setup_s": min(setup_times),
                "op_p1_ms": _quantile(walls, 1) * 1000.0,
                "items_per_s": _quantile(rates, 99),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            record["setup_samples_s"] = setup_times
        record["metrics"] = metrics
        record["correct"] = failed == 0 and not errors
        record["errors"] = errors[:20]
        return record
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)


def _write_trace(name, seed, record, breakdown, spans) -> None:
    path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "run", **record}) + "\n")
        for b in breakdown:
            fh.write(json.dumps({"type": "op", **b}) + "\n")
        for s in spans:
            fh.write(json.dumps({"type": "span", **s}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["build", "query", "eval_remote"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "carbonrag" / "__init__.py").is_file():
        print(f"error: no carbonrag package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for error in record["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {record['timed_ops']} timed operations, "
          f"{record['failed']} of {record['attempted']} failed; record in {path.relative_to(ROOT)}")
    print("inputs: " + json.dumps(record["inputs"], sort_keys=True))
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print("operation time quantiles (ms): "
          + ", ".join(f"{q} {v:.6g}" for q, v in record["op_ms_quantiles"].items()))
    metrics = {}
    for m in wanted:
        value = record["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
