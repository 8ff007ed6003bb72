"""Each command imports only what it uses.

numpy is loaded only by the modules that compute with it (``embedding`` and
``index``), and ``requests`` only by the first request sent. The commands
here run in a fresh interpreter, so what the test process has imported does
not count.
"""

import http.server
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests

import fixtures
from carbonrag import _http
from carbonrag.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
# Setting a module to None in sys.modules makes importing it fail.
_BLOCK = "sys.modules['numpy'] = sys.modules['requests'] = None; "
_RUN_CLI = "from carbonrag.cli import main; sys.exit(main(sys.argv[1:]))"
_RUN_CLI_AND_LIST = (
    "import sys; from carbonrag.cli import main; code = main(sys.argv[1:]); "
    "print('loaded:', *[m for m in ('numpy', 'requests') if m in sys.modules]); "
    "sys.exit(code)"
)


def _python(code: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.fixture()
def command_inputs(tmp_path):
    """Fixture documents, a facts file, the factor CSV and a saved report."""
    inputs = tmp_path / "inputs"
    (inputs / "docs").mkdir(parents=True)
    for doc_id, _, body in fixtures.CORPUS_DOCS:
        (inputs / "docs" / f"{doc_id}.txt").write_text(body, encoding="utf-8")
    tree = fixtures.write_benchmark_tree(inputs)
    facts = {"facts": [{"key": "electricity_use", "value": 13.5, "unit": "MWh"}]}
    (inputs / "facts.json").write_text(json.dumps(facts), encoding="utf-8")
    bench = ["bench", "--benchmark", str(tree.benchmark), "--backend", f"mock:{tree.mock_perfect}"]
    assert main([*bench, "--out", str(inputs / "report.json")]) == 0
    return inputs


def test_import_carbonrag_loads_neither_numpy_nor_requests(tmp_path):
    code = (
        "import sys, carbonrag; "
        "print(*[m for m in ('numpy', 'requests') if m in sys.modules]); "
        "print(all(name in dir(carbonrag) for name in carbonrag.__all__))"
    )
    result = _python(code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\nTrue\n"


def test_a_name_the_package_does_not_export_is_an_attribute_error():
    import carbonrag

    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        carbonrag.nope  # noqa: B018


def test_commands_that_do_not_embed_run_without_numpy_or_requests(command_inputs, tmp_path):
    """Blocked and unblocked runs print the same; each gets its own copy of
    the inputs, since ``ingest`` writes its catalog."""
    docs = sorted(f"docs/{path.name}" for path in (command_inputs / "docs").iterdir())
    commands = [
        ["--help"],
        ["ingest", "--catalog", "corpus.catalog", *docs],
        ["ingest", "--source", "raw_text", "--catalog", "corpus.catalog", "Electricity was 5 MWh."],
        ["account", "--facts", "facts.json", "--factors", "factors.csv"],
        ["report", "--in", "report.json"],
    ]
    stdout = {}
    for mode, block in (("plain", ""), ("blocked", _BLOCK)):
        work = shutil.copytree(command_inputs, tmp_path / mode)
        stdout[mode] = []
        for argv in commands:
            result = _python("import sys; " + block + _RUN_CLI, *argv, cwd=work)
            assert result.returncode == 0, (mode, argv, result.stderr)
            stdout[mode].append(result.stdout)
    assert stdout["blocked"] == stdout["plain"]
    assert "total: " in stdout["plain"][3] and "IRR: 100.00%" in stdout["plain"][4]


def test_a_mock_backend_query_never_loads_requests(tmp_path):
    """A query that retrieves loads numpy; one on a short datasource, which
    inlines its documents, loads neither."""
    catalog = tmp_path / "corpus.catalog"
    for doc_id, title, body in fixtures.CORPUS_DOCS:
        argv = ["ingest", "--source", "raw_text", "--catalog", str(catalog), "--doc-id", doc_id]
        assert main([*argv, "--title", title, body]) == 0
    short = ["ingest", "--source", "raw_text", "--catalog", str(tmp_path / "short.catalog")]
    assert main([*short, "Electricity use was 13.5 MWh."]) == 0
    question = fixtures.QUERIES[0]["query_text"]
    script = tmp_path / "answers.json"
    script.write_text(json.dumps({question: fixtures.PERFECT_SCRIPT["q_energy"]}), encoding="utf-8")
    query = ["query", "--backend", "mock:answers.json", question]
    for argv, loaded in (
        (["index", "build", "--catalog", "corpus.catalog", "--out", "index.json"], "loaded: numpy"),
        ([*query, "--catalog", "corpus.catalog", "--index", "index.json"], "loaded: numpy"),
        ([*query, "--catalog", "short.catalog"], "loaded:"),
    ):
        result = _python(_RUN_CLI_AND_LIST, *argv, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == loaded, (argv, result.stdout)
        if argv[0] == "query":
            assert "electricity_use = 13.5 MWh" in result.stdout


class _OkHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


def test_concurrent_first_requests_make_one_session(http_server, monkeypatch):
    made = []

    class CountingSession(requests.Session):
        def __init__(self):
            super().__init__()
            made.append(self)
            time.sleep(0.05)  # a second caller not held by the lock would start here

    monkeypatch.setattr(_http, "_SESSION", None)
    monkeypatch.setattr(requests, "Session", CountingSession)
    server = http_server(_OkHandler)
    client = SimpleNamespace(
        endpoint=f"http://127.0.0.1:{server.server_address[1]}/",
        timeout=10.0,
        api_key_env="CARBONRAG_TEST_NO_SUCH_KEY",
    )
    start = threading.Barrier(8, timeout=10)

    def first_request(_):
        start.wait()
        return _http.post_json(client, {}, name="test endpoint", gave_up="unreachable").value

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            replies = list(pool.map(first_request, range(8), timeout=30))
        assert replies == [{}] * 8
        assert len(made) == 1 and _http._SESSION is made[0]
    finally:
        sys.setswitchinterval(interval)
        for session in made:
            session.close()
