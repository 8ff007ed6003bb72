"""The one JSON-over-HTTP retry loop shared by the remote clients.

Requests go out through ``http.client``, which is imported by the first
request, not by this module, so a command that sends no request loads no
networking code. Connections are kept alive in one process-wide pool.
"""

from __future__ import annotations

import atexit
import json
import os
import select
import threading
import time
from functools import partial
from typing import TYPE_CHECKING
from urllib.parse import SplitResult, quote, urlsplit

from ._json import Node, parse_json
from .errors import ConfigError, FormatError, TransportError

if TYPE_CHECKING:  # pragma: no cover
    import http.client

# The retry policy of every remote client: failed attempt n is followed by a
# wait of BACKOFF_BASE_S * 2 ** (n - 1) seconds, so 0.5 s and then 1 s.
MAX_ATTEMPTS = 3
BACKOFF_BASE_S = 0.5

# The idle kept-alive connections of every remote client in the process, by
# (scheme, host, port). One pool, not one per thread: run_benchmark answers
# on a new set of worker threads every run, and their connections would die
# with them. A request takes a connection out and puts it back only once its
# reply has been read to the end on a connection the server keeps open.
_IDLE: dict[tuple[str, str, int], list[http.client.HTTPConnection]] = {}
_POOL_LOCK = threading.Lock()

# What a URL may hold unquoted in a request target; anything else, such as
# a space or a non-ASCII character, is sent percent-encoded as UTF-8.
_TARGET_SAFE = "!#$%&'()*+,/:;=?@[]~"


def http_url(url: str) -> SplitResult | None:
    """``url`` split into its parts if it is an ``http`` or ``https`` URL
    with a host and a valid port, else None."""
    try:
        parts = urlsplit(url)
        parts.port  # noqa: B018 - raises ValueError on a port that is not a number
    except ValueError:
        return None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        return None
    return parts


def request_target(parts: SplitResult) -> str:
    """The path and query of ``parts``, quoted for a request line; a byte
    that is not UTF-8 (a lone surrogate escape) is sent as that byte."""
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    return quote(target, safe=_TARGET_SAFE, errors="surrogateescape")


def check_endpoint(endpoint: str, what: str) -> None:
    """Refuse an endpoint no request could be sent to, before any is."""
    if http_url(endpoint) is None:
        raise ConfigError(f"{what} {endpoint!r} is not an http or https URL with a host")


def close_idle() -> None:
    """Close every idle connection in the pool."""
    with _POOL_LOCK:
        idle = [conn for conns in _IDLE.values() for conn in conns]
        _IDLE.clear()
    for conn in idle:
        conn.close()


atexit.register(close_idle)


def _dropped(conn: http.client.HTTPConnection) -> bool:
    """True if the idle ``conn`` cannot carry a request: its socket is gone,
    or is readable, which on an idle connection means the server closed it."""
    if conn.sock is None:
        return True
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(conn.sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([conn.sock], [], [], 0)[0])


def _take(key: tuple[str, str, int], timeout: float) -> http.client.HTTPConnection:
    """An idle connection for ``key`` that the server has not closed, or a
    new one, which connects on its first request."""
    while True:
        with _POOL_LOCK:
            idle = _IDLE.get(key)
            conn = idle.pop() if idle else None
        if conn is None:
            break
        if _dropped(conn):
            conn.close()
            continue
        conn.timeout = timeout
        conn.sock.settimeout(timeout)
        return conn
    import http.client

    scheme, host, port = key
    # An https connection verifies the server against the system CA store.
    make = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
    return make(host, port, timeout=timeout)


def _exchange(
    parts: SplitResult, data: bytes, headers: dict, timeout: float
) -> tuple[int, str | None, bytes]:
    """One POST on a pooled connection: the reply's status, ``Location``
    header and whole body. A connection that fails is closed."""
    key = (parts.scheme, parts.hostname, parts.port or (443 if parts.scheme == "https" else 80))
    conn = _take(key, timeout)
    try:
        conn.request("POST", request_target(parts), body=data, headers=headers)
        response = conn.getresponse()
        content = response.read()
    except BaseException:
        conn.close()
        raise
    if response.will_close:
        conn.close()
    else:
        with _POOL_LOCK:
            _IDLE.setdefault(key, []).append(conn)
    return response.status, response.getheader("Location"), content


def post_json(
    client,
    body: dict,
    *,
    name: str,
    gave_up: str,
    stage: str | None = None,
) -> Node:
    """POST ``body`` to ``client.endpoint``; return a 2xx reply as JSON,
    labelled ``"{name} {endpoint} reply"``.

    ``client`` supplies ``endpoint``, ``timeout`` and ``api_key_env``, whose
    variable, when set, becomes a bearer token. Connections to an endpoint
    are kept alive and reused; an idle one the server has closed is
    replaced before use, at no cost of an attempt. Connection errors and
    5xx replies are retried up to ``MAX_ATTEMPTS`` attempts in all, with
    exponential backoff; a 3xx reply (redirects are not followed) or a 4xx
    reply fails at once. The ``TransportError`` raised on failure carries
    the number of attempts made; a reply that is not JSON is a
    ``FormatError``. Both carry ``stage``.
    """
    import http.client

    parts = urlsplit(client.endpoint)  # checked by check_endpoint when the client was made
    data = json.dumps(body).encode("ascii")
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(client.api_key_env, "")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    last_error = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            status, location, content = _exchange(parts, data, headers, client.timeout)
        except (OSError, http.client.HTTPException) as exc:
            last_error = str(exc) or type(exc).__name__
        else:
            if status < 300:
                label = f"{name} {client.endpoint} reply"
                return parse_json(content, label, partial(FormatError, stage=stage))
            if status < 400:
                raise TransportError(
                    f"{name} redirected the request: HTTP {status} to {location or '(no Location)'}",
                    attempts=attempt,
                    stage=stage,
                )
            if status < 500:
                raise TransportError(
                    f"{name} rejected the request: HTTP {status}", attempts=attempt, stage=stage
                )
            last_error = f"HTTP {status}"
        if attempt < MAX_ATTEMPTS:
            time.sleep(BACKOFF_BASE_S * 2 ** (attempt - 1))
    raise TransportError(
        f"{name} {gave_up} after {MAX_ATTEMPTS} attempts: {last_error}",
        attempts=MAX_ATTEMPTS,
        stage=stage,
    )
