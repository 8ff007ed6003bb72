"""The fixture's command outputs, pinned byte for byte.

``_fixture_outputs`` runs the command-line round trip on the fixture and
returns each output under the name of its file in ``tests/golden``. A change
that alters an output on purpose regenerates them by writing each returned
text to that file. Reports leave out ``generated_at`` and the config keys
that hold a path; the index is pinned by its header line (chunk ids and
encoder spec), not by its row bytes, whose last bits depend on the BLAS build.
The catalog is pinned as the bytes ``ingest`` wrote (``corpus.catalog``, format
2), each ``fetched_at`` masked, so it also pins the JSON writer's own output.
Every file here is an output.
"""

import json
import re
from pathlib import Path

import fixtures
from carbonrag.cli import main

GOLDEN = Path(__file__).parent / "golden"
_PATH_KEYS = ("backend", "benchmark_path", "report_out")
_FETCHED_AT_RE = re.compile(rb'("fetched_at": )"[^"]*"')


def _report_text(path: Path) -> str:
    obj = json.loads(path.read_text(encoding="utf-8"))
    del obj["generated_at"]
    for key in _PATH_KEYS:
        del obj["metadata"]["config"][key]
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _fixture_outputs(work: Path, capsys) -> dict[str, str]:
    tree = fixtures.write_benchmark_tree(work)
    outputs = {}
    for name, script in (("perfect", tree.mock_perfect), ("variant", tree.mock_variant)):
        report, csv = work / f"report_{name}.json", work / f"per_fact_{name}.csv"
        bench = ["bench", "--benchmark", str(tree.benchmark), "--backend", f"mock:{script}"]
        assert main([*bench, "--out", str(report), "--csv", str(csv)]) == 0
        outputs[f"bench_{name}.json"] = _report_text(report)
        outputs[f"per_fact_{name}.csv"] = csv.read_text(encoding="utf-8")

    catalog, index = work / "corpus.catalog", work / "corpus.index"
    for doc_id, title, body in fixtures.CORPUS_DOCS:
        ingest = ["ingest", "--source", "raw_text", "--doc-id", doc_id, "--title", title]
        assert main([*ingest, "--catalog", str(catalog), body]) == 0
    masked = _FETCHED_AT_RE.sub(rb'\1"<fetched_at>"', catalog.read_bytes())
    outputs["corpus.catalog"] = masked.decode("utf-8")
    assert main(["index", "build", "--catalog", str(catalog), "--out", str(index)]) == 0
    manifest = json.loads(index.read_bytes().split(b"\n", 1)[0])
    outputs["index_manifest.json"] = json.dumps(manifest, indent=2) + "\n"

    question = fixtures.QUERIES[0]["query_text"]
    script = work / "answers.json"
    script.write_text(json.dumps({question: fixtures.PERFECT_SCRIPT["q_energy"]}), encoding="utf-8")
    capsys.readouterr()
    query = ["query", "--catalog", str(catalog), "--index", str(index)]
    assert main([*query, "--backend", f"mock:{script}", question]) == 0
    outputs["query.out"] = capsys.readouterr().out
    return outputs


def test_fixture_outputs_match_the_golden_files(tmp_path, capsys):
    outputs = _fixture_outputs(tmp_path, capsys)
    assert sorted(outputs) == sorted(p.name for p in GOLDEN.iterdir())
    for name, text in outputs.items():
        assert text == (GOLDEN / name).read_text(encoding="utf-8"), name

