from __future__ import annotations

import http.server
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import fixtures  # noqa: E402

_acceptance_outcomes: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    """Collect one outcome line per acceptance criterion test."""
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        outcome = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and (report.failed or report.skipped):
        outcome = "FAIL" if report.failed else "SKIP"
    else:
        return
    _acceptance_outcomes.append((name, outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _acceptance_outcomes:
        terminalreporter.write_line(f"ACCEPTANCE {name}: {outcome}")


@pytest.fixture()
def benchmark_tree(tmp_path):
    """The aluminum benchmark written to disk: benchmark, factors, mocks."""
    return fixtures.write_benchmark_tree(tmp_path)


@pytest.fixture()
def aluminum_catalog():
    """The three fixture documents loaded into a catalog."""
    from carbonrag import Catalog

    catalog = Catalog()
    for doc_id, title, body in fixtures.CORPUS_DOCS:
        catalog.ingest("raw_text", body, {"doc_id": doc_id, "title": title})
    return catalog


@pytest.fixture()
def fast_retries(monkeypatch):
    """Remote clients retry without waiting between attempts;
    ``fast_retries(n)`` also makes them give up after ``n`` attempts."""
    from carbonrag import _http

    monkeypatch.setattr(_http, "BACKOFF_BASE_S", 0.0)
    return lambda attempts: monkeypatch.setattr(_http, "MAX_ATTEMPTS", attempts)


@pytest.fixture()
def http_server():
    """Factory: ``http_server(handler_class)`` starts a loopback server.

    Each server starts with an empty ``requests`` list for handlers that
    record what they receive, and is shut down and closed on teardown,
    after the remote clients' idle connections are closed, so no kept-alive
    connection outlives its test.
    """
    started = []

    def start(handler_class):
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler_class)
        server.requests = []
        # A short poll keeps shutdown() from waiting out the 0.5 s default.
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        started.append((server, thread))
        return server

    yield start
    from carbonrag import _http

    _http.close_idle()
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()
