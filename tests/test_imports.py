"""Each command imports only what it uses.

numpy is loaded only by the modules that compute with it (``embedding`` and
``index``), and ``http.client`` only by the first request sent, which is
the one HTTP client: nothing loads ``urllib.request``. The commands here
run in a fresh interpreter, so what the test process has imported does not
count. A command that sends no request
runs with ``http.client`` blocked, and one that embeds nothing with numpy
blocked too: a run that loaded either would fail.
"""

import http.server
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

import fixtures
from carbonrag import _http
from carbonrag.accounting import Scope
from carbonrag.cli import _SCOPES, main
from carbonrag.embedding import LexicalEncoder

SRC = Path(__file__).resolve().parent.parent / "src"
# Setting a module to None in sys.modules makes importing it fail.
_BLOCK = "sys.modules['numpy'] = sys.modules['http.client'] = None; "
_RUN_CLI = "from carbonrag.cli import main; sys.exit(main(sys.argv[1:]))"
_RUN_CLI_AND_LIST = (
    "import sys; from carbonrag.cli import main; code = main(sys.argv[1:]); "
    "print('loaded:', *[m for m in ('numpy', 'http.client') if m in sys.modules]); "
    "sys.exit(code)"
)
# What ingest never needs: the pipeline past the catalog, the worker pool
# that answers questions, and the HTTP client.
_NOT_FOR_INGEST = (
    "carbonrag.evaluation",
    "carbonrag.accounting",
    "carbonrag.generation",
    "carbonrag.fusion",
    "concurrent.futures",
    "http.client",
    "urllib.request",
)


def _python(code: str, *args: str, cwd: Path, flags: tuple = ()) -> subprocess.CompletedProcess:
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
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


def test_import_carbonrag_loads_neither_numpy_nor_http_client(tmp_path):
    code = (
        "import sys, carbonrag; "
        "print(*[m for m in ('numpy', 'http.client') if m in sys.modules]); "
        "print(all(name in dir(carbonrag) for name in carbonrag.__all__))"
    )
    result = _python(code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\nTrue\n"


def test_a_name_the_package_does_not_export_is_an_attribute_error():
    import carbonrag

    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        carbonrag.nope  # noqa: B018


def test_commands_that_do_not_embed_run_without_numpy_or_http_client(command_inputs, tmp_path):
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


def test_a_mock_backend_query_never_loads_http_client(tmp_path):
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




def test_ingest_loads_only_the_catalog_code(tmp_path):
    code = (
        "import sys; " + _BLOCK + "from carbonrag.cli import main; code = main(sys.argv[1:]); "
        f"print(*[m for m in {_NOT_FOR_INGEST!r} if sys.modules.get(m)]); sys.exit(code)"
    )
    argv = ["ingest", "--source", "raw_text", "--catalog", "corpus.catalog", "Gas was 600 kWh."]
    result = _python(code, *argv, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == ""


class _TextHandler(http.server.BaseHTTPRequestHandler):
    """Serves ``/doc.txt`` over HTTP/1.1 keep-alive; ``/doc`` redirects to it."""

    protocol_version = "HTTP/1.1"
    timeout = 5  # idle keep-alive connections end after the test

    def do_GET(self):
        body = b"fetched over http\n" if self.path == "/doc.txt" else b""
        self.send_response(200 if body else 301)
        if not body:
            self.send_header("Location", "doc.txt")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_url_fetch_ingest_loads_http_client_and_not_urllib_request(http_server, tmp_path):
    """A fetch that follows a redirect, and one on the connection it left
    open, load ``http.client`` alone. In development mode, a socket left
    open at exit would print a ``ResourceWarning``."""
    url = f"http://127.0.0.1:{http_server(_TextHandler).server_address[1]}"
    code = (
        "import sys; sys.modules['numpy'] = None; "
        "from carbonrag.cli import main; code = main(sys.argv[1:]); "
        "print(*[m for m in ('http.client', 'urllib.request') if m in sys.modules]); "
        "sys.exit(code)"
    )
    argv = ["ingest", "--source", "url_fetch", "--catalog", "corpus.catalog"]
    argv += [f"{url}/doc", f"{url}/doc.txt"]
    result = _python(code, *argv, cwd=tmp_path, flags=("-X", "dev"))
    assert result.returncode == 0, result.stderr
    assert "ResourceWarning" not in result.stderr
    assert result.stdout.splitlines()[-1] == "http.client"
    stored = (tmp_path / "corpus.catalog").read_bytes()
    assert stored.endswith(b"\nfetched over http\nfetched over http\n")


def test_the_scope_choices_are_the_accounting_scopes():
    assert _SCOPES == tuple(scope.value for scope in Scope)
    assert _SCOPES[0] == Scope.CRADLE_TO_GATE.value  # the default


class _EchoHandler(http.server.BaseHTTPRequestHandler):
    """Echoes each JSON body over HTTP/1.1 keep-alive; counts connections."""

    protocol_version = "HTTP/1.1"
    timeout = 5  # idle keep-alive connections end after the test

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        data = self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_connections_are_pooled_across_threads(http_server):
    """Eight threads that send their first request at once open at most
    eight connections, and eight requests after them open none."""
    server = http_server(_EchoHandler)
    server.lock = threading.Lock()
    server.connections = 0
    client = SimpleNamespace(
        endpoint=f"http://127.0.0.1:{server.server_address[1]}/echo",
        name="test endpoint",
        timeout=10.0,
        api_key_env="CARBONRAG_TEST_NO_SUCH_KEY",
    )
    start = threading.Barrier(8, timeout=10)

    def request(n, wait=False):
        if wait:
            start.wait()
        return _http.post_json(client, {"n": n}).value

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            replies = list(pool.map(lambda n: request(n, wait=True), range(8), timeout=30))
    finally:
        sys.setswitchinterval(interval)
    replies += [request(n) for n in range(8, 16)]
    assert replies == [{"n": n} for n in range(16)]
    assert 1 <= server.connections <= 8


class _ModelHandler(http.server.BaseHTTPRequestHandler):
    """Embedding and chat endpoints for the fixture benchmark over HTTP/1.1
    keep-alive: lexical vectors, and the perfect script's answer to each
    question."""

    protocol_version = "HTTP/1.1"
    timeout = 5  # idle keep-alive connections end after the test
    answers = {q["query_text"]: fixtures.PERFECT_SCRIPT[q["query_id"]] for q in fixtures.QUERIES}

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path == "/embed":
            reply = {"embeddings": LexicalEncoder().embed_batch(body["input"]).tolist()}
        else:
            rendered = body["messages"][0]["content"]
            question = re.search(r"^Question: (.*)$", rendered, re.MULTILINE).group(1)
            reply = {"choices": [{"message": {"content": self.answers[question]}}]}
        data = json.dumps(reply).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_a_remote_bench_in_a_subprocess_closes_its_sockets(
    http_server, benchmark_tree, tmp_path, monkeypatch
):
    """A bench over a remote encoder and chat backend, run in a fresh
    interpreter in development mode, leaves no socket open at exit (one
    would print a ``ResourceWarning``) and writes the report the test
    process writes."""
    url = f"http://127.0.0.1:{http_server(_ModelHandler).server_address[1]}"
    bench = [
        "bench", "--benchmark", str(benchmark_tree.benchmark), "--out", "report.json",
        "--encoder", f"remote:{url}/embed", "--backend", f"remote:{url}/chat",
    ]
    for mode in ("in-process", "subprocess"):
        (tmp_path / mode).mkdir()
    monkeypatch.chdir(tmp_path / "in-process")
    assert main(bench) == 0
    code = "import sys; " + _RUN_CLI
    result = _python(code, *bench, cwd=tmp_path / "subprocess", flags=("-X", "dev"))
    assert result.returncode == 0, result.stderr
    assert "ResourceWarning" not in result.stderr
    reports = []
    for mode in ("in-process", "subprocess"):
        report = json.loads((tmp_path / mode / "report.json").read_text(encoding="utf-8"))
        report.pop("generated_at")
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["irr_pct"] == 100.0
