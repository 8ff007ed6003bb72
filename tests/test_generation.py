"""Answer backends and structured fact extraction."""

import http.server
import json
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from carbonrag import (
    Catalog,
    RemoteChatBackend,
    RemoteEncoder,
    RunConfig,
    ScriptedMockBackend,
    Strategy,
    build_prompt,
    parse_extraction,
)
from carbonrag import _http
from carbonrag.errors import (
    ConfigError,
    ExtractionError,
    FormatError,
    MockMissError,
    TransportError,
)
from carbonrag.evaluation import answer_query
from carbonrag.generation import FACT_KEY_RE, RawAnswer, backend_from_spec
from carbonrag.quantity import Quantity


def _parse(text, expected_keys=None):
    return parse_extraction(RawAnswer(text), expected_keys)


def _prompt(query="How much electricity?", query_key=None):
    return build_prompt(query, Strategy.NO_DATASOURCE, query_key=query_key)


_ANSWER = (
    "The site reports its use below.\n"
    "```json\n"
    '{"facts": [{"key": "electricity_use", "value": 13500, "unit": "kWh", "sources": [1]}]}\n'
    "```\n"
)


class TestScriptedMock:
    def test_looks_up_by_query_text(self):
        backend = ScriptedMockBackend({"How much electricity?": _ANSWER})
        answer = backend.generate(_prompt())
        assert answer.text == _ANSWER

    def test_query_key_takes_precedence_over_query_text(self):
        backend = ScriptedMockBackend({"q_energy": "keyed", "How much electricity?": "texted"})
        assert backend.generate(_prompt(query_key="q_energy")).text == "keyed"

    def test_replay_is_deterministic(self):
        backend = ScriptedMockBackend({"How much electricity?": _ANSWER})
        assert backend.generate(_prompt()).text == backend.generate(_prompt()).text

    def test_miss_raises(self):
        backend = ScriptedMockBackend({})
        with pytest.raises(MockMissError):
            backend.generate(_prompt())

    def test_calls_are_recorded(self):
        backend = ScriptedMockBackend({"q_energy": "x", "What about anodes?": "x"})
        backend.generate(_prompt(query_key="q_energy"))
        backend.generate(_prompt("What about anodes?"))
        assert backend.calls == ["q_energy", "What about anodes?"]

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"q_energy": _ANSWER}), encoding="utf-8")
        backend = ScriptedMockBackend.from_file(path)
        assert backend.generate(_prompt(query_key="q_energy")).text == _ANSWER

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(FormatError):
            ScriptedMockBackend.from_file(path)

    def test_from_file_rejects_non_string_answers(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"q": 5}), encoding="utf-8")
        with pytest.raises(FormatError):
            ScriptedMockBackend.from_file(path)


class TestFactKeyPattern:
    def test_accepts_dotted_lowercase(self):
        for key in ("electricity_use", "site.energy.total", "a1.b2"):
            assert FACT_KEY_RE.fullmatch(key)

    def test_rejects_other_shapes(self):
        for key in ("Electricity", "a-b", ".leading", "trailing.", "a..b", "", "electricity_use\n"):
            assert not FACT_KEY_RE.fullmatch(key)


class TestParseExtraction:
    def test_reads_point_and_range_values_from_the_fenced_block(self):
        text = (
            "Summary first.\n"
            "```json\n"
            + json.dumps(
                {
                    "facts": [
                        {"key": "electricity_use", "value": 13500, "unit": "kWh", "sources": [1, 2]},
                        {"key": "anode_consumption", "value": {"lower": 400, "upper": 440}, "unit": "kg"},
                    ]
                }
            )
            + "\n```\n"
        )
        facts, warnings = _parse(text)
        assert warnings == []
        assert [f.fact_key for f in facts] == ["electricity_use", "anode_consumption"]
        assert facts[0].value == Quantity.point(13500)
        assert facts[0].provenance == ("1", "2")
        assert facts[1].value == Quantity.range(400, 440)
        assert facts[1].unit == "kg"

    def test_accepts_a_bare_json_answer(self):
        text = json.dumps({"facts": [{"key": "k", "value": 1, "unit": "kg"}]})
        facts, _ = _parse(text)
        assert facts[0].fact_key == "k"

    def test_finds_the_object_inside_prose(self):
        entry = '{"key": "k", "value": 2, "unit": "t"}'
        for text in (
            'As requested: {"facts": [' + entry + "]} -- done.",
            # a "{" inside a string opens no object of its own
            'See {"note": "{", "facts": [' + entry + "]} -- done.",
            # the first object in the text wins, outer before inner
            '{"facts": [' + entry + '], "inner": {"facts": []}} and {"facts": []}',
        ):
            facts, _ = _parse(text)
            assert [f.value for f in facts] == [Quantity.point(2)], text

    def test_accepts_raw_answer_objects(self):
        facts, _ = parse_extraction(RawAnswer(text=_ANSWER))
        assert facts[0].fact_key == "electricity_use"

    def test_no_facts_block_is_an_extraction_error(self):
        with pytest.raises(ExtractionError) as err:
            _parse("Sorry, I cannot help with that.")
        assert err.value.raw_text == "Sorry, I cannot help with that."

    def test_hostile_answers_fail_fast(self):
        """Unmatched braces, truncated objects and nesting deeper than the
        recursion limit end in a parse-stage ExtractionError, each within a
        second, a 100 kB nest within 50 ms, and 100 kB of nests split by
        ``}`` or of objects nested past the limit within 250 ms; a facts
        object after such a nest is still found."""
        for text, bound_s in (
            ("{" * 4000, 1.0),
            ('{"a": [1,2,3' * 2000, 1.0),
            ('{"a":' * 4000, 1.0),
            ('{"a":' * 20000, 0.05),
            (('{"a":' * 900 + "x}") * 22, 0.25),
            ('{"x": {"b":1}, "y": ' * 5000, 0.25),
            ("1" * 5000, 1.0),
        ):
            start = time.perf_counter()
            with pytest.raises(ExtractionError) as err:
                _parse(text)
            assert time.perf_counter() - start < bound_s
            assert err.value.stage_name == "parse"
        block = '{"facts": [{"key": "k", "value": 2, "unit": "t"}]}'
        facts, _ = _parse('{"a":' * 4000 + block)
        assert facts[0].fact_key == "k"

    def test_unit_whitespace_is_trimmed(self):
        text = json.dumps({"facts": [{"key": "k", "value": 1, "unit": " kWh "}]})
        facts, _ = _parse(text)
        assert facts[0].unit == "kWh"

    def test_scalar_sources_become_a_singleton(self):
        text = json.dumps({"facts": [{"key": "k", "value": 1, "unit": "kg", "sources": 3}]})
        facts, _ = _parse(text)
        assert facts[0].provenance == ("3",)

    def _warns(self, entries, expected_keys=None):
        facts, warnings = _parse(json.dumps({"facts": entries}), expected_keys)
        return facts, [w.code for w in warnings]

    def test_non_object_entry_is_flagged(self):
        facts, codes = self._warns(["nope"])
        assert facts == [] and codes == ["bad_entry"]

    def test_missing_key_is_flagged(self):
        _, codes = self._warns([{"value": 1, "unit": "kg"}])
        assert codes == ["missing_key"]

    def test_non_canonical_key_is_flagged(self):
        _, codes = self._warns([{"key": "Bad-Key", "value": 1, "unit": "kg"}])
        assert codes == ["bad_key"]

    def test_key_with_a_trailing_newline_is_flagged(self):
        entry = {"key": "electricity_use\n", "value": 1, "unit": "kg"}
        facts, codes = self._warns([entry], expected_keys=["electricity_use"])
        assert facts == [] and codes == ["bad_key", "missing_fact"]

    def test_duplicate_keys_keep_the_first_value(self):
        facts, codes = self._warns(
            [
                {"key": "k", "value": 1, "unit": "kg"},
                {"key": "k", "value": 2, "unit": "kg"},
            ]
        )
        assert codes == ["duplicate_key"]
        assert facts[0].value == Quantity.point(1)

    def test_reversed_range_is_rejected_not_reordered(self):
        facts, codes = self._warns(
            [{"key": "k", "value": {"lower": 5, "upper": 3}, "unit": "kg"}]
        )
        assert facts == [] and codes == ["range_reversed"]

    def test_unusable_value_is_flagged(self):
        _, codes = self._warns([{"key": "k", "value": "lots", "unit": "kg"}])
        assert codes == ["bad_value"]

    def test_missing_unit_is_flagged(self):
        _, codes = self._warns([{"key": "k", "value": 1}])
        assert codes == ["missing_unit"]

    def test_unrequested_key_is_kept_but_flagged(self):
        facts, codes = self._warns(
            [{"key": "extra", "value": 1, "unit": "kg"}], expected_keys=["wanted"]
        )
        assert [f.fact_key for f in facts] == ["extra"]
        assert codes == ["unexpected_key", "missing_fact"]

    def test_absent_expected_key_is_reported(self):
        _, codes = self._warns([], expected_keys=["electricity_use"])
        assert codes == ["missing_fact"]

    def test_no_expectation_checks_without_expected_keys(self):
        _, codes = self._warns([{"key": "anything", "value": 1, "unit": "kg"}])
        assert codes == []


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    flaky_failures = 0

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests.append(
            {
                "path": self.path,
                "body": body,
                "auth": self.headers.get("Authorization"),
                "cookie": self.headers.get("Cookie"),
            }
        )
        if self.path == "/chat":
            self._send(
                200,
                {
                    "choices": [{"message": {"content": _ANSWER}}],
                    "usage": {"total_tokens": 7},
                },
            )
        elif self.path == "/flaky":
            if _ChatHandler.flaky_failures > 0:
                _ChatHandler.flaky_failures -= 1
                self._send(500, {"error": "transient"})
            else:
                self._send(200, {"choices": [{"message": {"content": "recovered"}}]})
        elif self.path == "/reject":
            self._send(401, {"error": "bad key"})
        elif self.path == "/moved":
            self.send_response(301)
            self.send_header("Location", "/chat")
            self.send_header("Content-Length", "0")
            self.end_headers()
        elif self.path == "/notjson":
            self._send_raw(200, b"<html>oops</html>")
        elif self.path == "/badshape":
            self._send(200, {"unexpected": True})
        elif self.path == "/nochoices":
            self._send(200, {"choices": []})
        elif self.path == "/nullcontent":
            self._send(200, {"choices": [{"message": {"content": None}}]})
        else:
            self.send_error(404)

    def _send(self, status, obj):
        self._send_raw(status, json.dumps(obj).encode("utf-8"))

    def _send_raw(self, status, data):
        self.send_response(status)
        self.send_header("Set-Cookie", "session=abc; Path=/")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server(http_server):
    return http_server(_ChatHandler)


class _CloseAfterOneHandler(http.server.BaseHTTPRequestHandler):
    """Answers over HTTP/1.1 keep-alive, then closes each connection after
    its first reply without saying so, as a server ending an idle
    keep-alive connection does; ``server.closed`` is set once it has."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with self.server.lock:
            self.server.connections += 1
        data = json.dumps({"choices": [{"message": {"content": "fresh"}}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.wfile.flush()
        self.connection.shutdown(socket.SHUT_RDWR)
        self.close_connection = True
        self.server.closed.set()

    def log_message(self, *args):
        pass


@pytest.fixture()
def sleeps(monkeypatch):
    """The backoff waits the remote clients take, recorded instead of slept."""
    taken = []
    monkeypatch.setattr(_http, "time", SimpleNamespace(sleep=taken.append))
    return taken


def _url(server, path):
    return f"http://127.0.0.1:{server.server_address[1]}{path}"


class TestRemoteChat:
    def test_sends_the_rendering_at_temperature_zero(self, chat_server):
        backend = RemoteChatBackend(_url(chat_server, "/chat"), model="cfa-1")
        prompt = _prompt()
        answer = backend.generate(prompt)
        assert answer.text == _ANSWER
        assert answer.usage == {"total_tokens": 7}
        body = chat_server.requests[-1]["body"]
        assert body["model"] == "cfa-1"
        assert body["temperature"] == 0
        assert body["messages"] == [{"role": "user", "content": prompt.rendered}]

    def test_bearer_token_from_environment(self, chat_server, monkeypatch):
        monkeypatch.setenv("GENERATION_API_KEY", "sk-chat")
        RemoteChatBackend(_url(chat_server, "/chat")).generate(_prompt())
        assert chat_server.requests[-1]["auth"] == "Bearer sk-chat"

    def test_replies_set_no_cookies_on_later_requests(self, chat_server):
        backend = RemoteChatBackend(_url(chat_server, "/chat"))
        backend.generate(_prompt())
        backend.generate(_prompt())
        assert [r["cookie"] for r in chat_server.requests] == [None, None]

    def test_server_errors_are_retried_until_recovery(self, chat_server, fast_retries):
        _ChatHandler.flaky_failures = 2
        backend = RemoteChatBackend(_url(chat_server, "/flaky"))
        assert backend.generate(_prompt()).text == "recovered"
        assert len(chat_server.requests) == 3

    def test_client_error_fails_without_retry(self, chat_server):
        backend = RemoteChatBackend(_url(chat_server, "/reject"))
        with pytest.raises(TransportError) as err:
            backend.generate(_prompt())
        assert err.value.attempts == 1
        assert len(chat_server.requests) == 1

    def test_non_json_reply_is_a_format_error(self, chat_server):
        backend = RemoteChatBackend(_url(chat_server, "/notjson"))
        with pytest.raises(FormatError):
            backend.generate(_prompt())

    def test_missing_choices_is_a_format_error(self, chat_server):
        """The error names the endpoint, and through ``answer_query`` it ends
        in ``generate``, as an encoder reply's ends in ``embedding``."""
        for path, message in (
            ("/notjson", "reply is not JSON"),
            ("/badshape", "reply is missing 'choices'"),
            ("/nochoices", "choices is empty"),
            ("/nullcontent", r"choices\[0\]\.message\.content must be a string, got None"),
        ):
            url = _url(chat_server, path)
            backend = RemoteChatBackend(url)
            with pytest.raises(FormatError, match=message) as err:
                backend.generate(_prompt())
            assert str(err.value).startswith(f"generation endpoint {url} reply"), path
            with pytest.raises(FormatError, match=message) as err:
                answer_query(
                    "How much electricity?",
                    Strategy.NO_DATASOURCE,
                    catalog=Catalog(),
                    index=None,
                    query_vector=None,
                    backend=backend,
                    config=RunConfig(),
                )
            assert err.value.stage_name == "generate", path

    def test_unreachable_endpoint_exhausts_attempts(self, fast_retries):
        fast_retries(2)
        backend = RemoteChatBackend("http://127.0.0.1:1/chat")
        with pytest.raises(TransportError) as err:
            backend.generate(_prompt())
        assert err.value.attempts == 2

    def test_an_endpoint_that_is_not_an_http_url_is_refused_when_the_client_is_made(
        self, sleeps
    ):
        for endpoint in (
            "localhost:8000/chat",
            "ftp://127.0.0.1/chat",
            "file:///etc/hosts",
            "http:///chat",
            "http://127.0.0.1:port/chat",
            "",
        ):
            for make in (RemoteChatBackend, RemoteEncoder):
                with pytest.raises(ConfigError, match="not an http or https URL") as err:
                    make(endpoint)
                assert err.value.stage_name == "config", (make, endpoint)
            with pytest.raises(ConfigError):
                backend_from_spec(f"remote:{endpoint}")
        assert sleeps == []

    def test_a_redirect_fails_at_once_and_is_not_followed(self, chat_server, sleeps):
        url = _url(chat_server, "/moved")
        for call in (
            lambda: RemoteChatBackend(url).generate(_prompt()),
            lambda: RemoteEncoder(url, dims=4).embed("x"),
        ):
            with pytest.raises(TransportError, match="redirected the request: HTTP 301 to /chat") as err:
                call()
            assert err.value.attempts == 1
        assert [r["path"] for r in chat_server.requests] == ["/moved", "/moved"]
        assert sleeps == []

    def test_a_connection_the_server_closed_is_replaced_without_a_retry(
        self, http_server, fast_retries, sleeps
    ):
        fast_retries(1)  # a failed attempt would end the call
        server = http_server(_CloseAfterOneHandler)
        server.lock = threading.Lock()
        server.connections = 0
        server.closed = threading.Event()
        backend = RemoteChatBackend(_url(server, "/chat"))
        assert backend.generate(_prompt()).text == "fresh"
        assert server.closed.wait(timeout=10)
        assert backend.generate(_prompt()).text == "fresh"
        assert server.connections == 2
        assert sleeps == []

    def test_max_in_flight_must_be_positive(self):
        assert RemoteChatBackend("http://127.0.0.1:1/chat").max_in_flight == 4


class TestBackendSpecs:
    def test_mock_spec_loads_the_script(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"q_energy": "canned"}), encoding="utf-8")
        backend = backend_from_spec(f"mock:{path}")
        assert isinstance(backend, ScriptedMockBackend)
        assert backend.generate(_prompt(query_key="q_energy")).text == "canned"

    def test_remote_spec_builds_a_chat_client(self):
        backend = backend_from_spec("remote:http://localhost:9/chat", model="m")
        assert isinstance(backend, RemoteChatBackend)
        assert backend.endpoint == "http://localhost:9/chat"
        assert backend.model == "m"

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigError):
            backend_from_spec("carrier-pigeon:coop")
