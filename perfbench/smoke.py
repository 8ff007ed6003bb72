"""Tiny-scale smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload on one site for a few operations, untraced and
traced, with all correctness checks on, and checks that each run reports
every metric ``BENCHMARK.json`` names and that every per-layer metric is
measured by at least one workload. Last, it checks that the benchmark
fails, printing no result, in a directory that holds only the benchmark.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

OPS = 6  # traced operations are every second one; with one site they cover all three questions


def _fails_without_package() -> bool:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        return proc.returncode != 0 and not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(run.SRC))
    run.OUT_DIR.mkdir(exist_ok=True)
    problems = []
    measured_somewhere = set()
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            record = run.run(name, seed=0, seconds=60, trace=trace, sites=1, max_ops=OPS)
            label = f"{name} trace={int(trace)}"
            if not record["correct"] or record["failed"] or record["attempted"] != OPS + 1:
                problems.append(f"{label}: {record['failed']} of {record['attempted']} failed: "
                                f"{record['errors'][:3]}")
            for metric in spec[key]:
                value = record["metrics"].get(metric["name"])
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: metric {metric['name']} = {value!r}")
            if trace:
                measured_somewhere.update(
                    m["name"] for m in spec[key] if m["name"] not in record["not_measured"]
                )
            print(f"{label}: {record['attempted']} operations, {record['failed']} failed")
    for metric in spec["per_layer"]:
        if metric["name"] not in measured_somewhere:
            problems.append(f"per-layer metric {metric['name']} is measured by no workload")
    if not _fails_without_package():
        problems.append("the benchmark did not fail in a directory without the package")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
