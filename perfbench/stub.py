"""In-process loopback stub of the remote embedding and chat endpoints.

The stub listens on 127.0.0.1 only. ``POST /embed`` follows the
``RemoteEncoder`` wire contract and ``POST /chat`` the ``RemoteChatBackend``
one. Each request waits a fixed delay with ``time.sleep``, so the stub holds
no core while it stands in for model latency. Answers are canned and
vectors are pseudo-random per text and cached, so after the first operation
the stub does almost no work of its own that is charged to the program.

The stub counts requests, new connections and status codes per path. It
speaks HTTP/1.1 with keep-alive, so a client that reuses connections makes
fewer of them.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping

import numpy as np

EMBED_PATH = "/embed"
CHAT_PATH = "/chat"
_QUESTION_PREFIX = "Question: "


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10  # an idle keep-alive connection ends after this many seconds

    def setup(self) -> None:
        super().setup()
        self._requests_on_connection = 0
        self.server.stub._opened(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server.stub._closed(self.connection)

    def do_POST(self) -> None:  # noqa: N802 - name fixed by BaseHTTPRequestHandler
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        stub = self.server.stub
        status, payload = stub._respond(self.path, body)
        stub._count(self.path, status, first=self._requests_on_connection == 0)
        self._requests_on_connection += 1
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args) -> None:  # noqa: A002 - silence access log
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = False  # server_close joins every handler thread


class StubServer:
    """Loopback stub with fixed per-request delays and per-path counters."""

    def __init__(
        self,
        answers: Mapping[str, str],
        vectors: dict[str, bytes],
        *,
        dims: int,
        embed_delay_s: float,
        chat_delay_s: float,
    ):
        self.dims = dims
        self.embed_delay_s = embed_delay_s
        self.chat_delay_s = chat_delay_s
        self._answers = {
            question: json.dumps(
                {
                    "choices": [{"message": {"role": "assistant", "content": answer}}],
                    "usage": {"prompt_tokens": 0, "completion_tokens": 0},
                }
            ).encode("utf-8")
            for question, answer in answers.items()
        }
        self._vectors = vectors  # owned by the caller, so it outlives a restart
        self._lock = threading.Lock()
        self._requests: Counter = Counter()
        self._connections: Counter = Counter()
        self._statuses: Counter = Counter()
        self._open: set[socket.socket] = set()
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.stub = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, name="stub"
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def vector_json(self, text: str) -> bytes:
        """The canned vector for ``text`` as a JSON array, cached per text."""
        with self._lock:
            cached = self._vectors.get(text)
        if cached is None:
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
            cached = json.dumps(rng.standard_normal(self.dims).tolist()).encode("utf-8")
            with self._lock:
                self._vectors[text] = cached
        return cached

    def counters(self) -> dict:
        """Snapshot of requests and new connections per path, and statuses."""
        with self._lock:
            return {
                "requests": dict(self._requests),
                "connections": dict(self._connections),
                "statuses": {f"{p} {s}": n for (p, s), n in self._statuses.items()},
            }

    def close(self) -> None:
        self._server.shutdown()
        with self._lock:
            still_open = list(self._open)
        for sock in still_open:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the client already closed it
        self._server.server_close()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("stub server thread did not stop")

    def _respond(self, path: str, body: bytes) -> tuple[int, bytes]:
        if path == EMBED_PATH:
            time.sleep(self.embed_delay_s)
            try:
                texts = json.loads(body)["input"]
            except (ValueError, KeyError, TypeError):
                return 400, b'{"error": "expected {\\"input\\": [texts]}"}'
            return 200, b'{"embeddings": [' + b",".join(map(self.vector_json, texts)) + b"]}"
        if path == CHAT_PATH:
            time.sleep(self.chat_delay_s)
            try:
                content = json.loads(body)["messages"][-1]["content"]
            except (ValueError, KeyError, IndexError, TypeError):
                return 400, b'{"error": "expected chat messages"}'
            for line in content.splitlines():
                if line.startswith(_QUESTION_PREFIX):
                    answer = self._answers.get(line[len(_QUESTION_PREFIX):])
                    if answer is not None:
                        return 200, answer
            return 404, b'{"error": "no canned answer for this question"}'
        return 404, b'{"error": "unknown path"}'

    def _count(self, path: str, status: int, *, first: bool) -> None:
        with self._lock:
            self._requests[path] += 1
            self._statuses[(path, status)] += 1
            if first:
                self._connections[path] += 1

    def _opened(self, sock: socket.socket) -> None:
        with self._lock:
            self._open.add(sock)

    def _closed(self, sock: socket.socket) -> None:
        with self._lock:
            self._open.discard(sock)
