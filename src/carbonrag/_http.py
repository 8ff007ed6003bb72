"""The package's one HTTP client: the JSON POSTs of the remote clients,
with their retry loop, and the GETs of ``url_fetch``.

Requests go out through ``http.client``, which is imported by the first
request, not by this module, so a command that sends no request loads no
networking code. Connections are kept alive in one process-wide pool, and
no proxy variable is read: every request connects to its host directly.
"""

from __future__ import annotations

import atexit
import json
import os
import re
import select
import threading
import time
from functools import partial
from typing import TYPE_CHECKING
from urllib.parse import SplitResult, quote, urljoin, urlsplit

from ._json import Node, parse_json
from .errors import ConfigError, FetchError, FormatError, TransportError

if TYPE_CHECKING:  # pragma: no cover
    import http.client

# The retry policy of every remote client: failed attempt n is followed by a
# wait of BACKOFF_BASE_S * 2 ** (n - 1) seconds, so 0.5 s and then 1 s.
MAX_ATTEMPTS = 3
BACKOFF_BASE_S = 0.5

# A fetch is not retried; it follows at most MAX_REDIRECTS redirects, and
# waits up to FETCH_TIMEOUT_S seconds on each one's socket.
MAX_REDIRECTS = 5
FETCH_TIMEOUT_S = 30.0

# The idle kept-alive connections of every request in the process, by
# (scheme, host, port). One pool, not one per thread: run_benchmark answers
# on a new set of worker threads every run, and their connections would die
# with them. A request takes a connection out and puts it back only once its
# reply has been read to the end on a connection the server keeps open.
_IDLE: dict[tuple[str, str, int], list[http.client.HTTPConnection]] = {}
_POOL_LOCK = threading.Lock()

# What a URL may hold unquoted in a request target; anything else, such as
# a space or a non-ASCII character, is sent percent-encoded as UTF-8.
_TARGET_SAFE = "!#$%&'()*+,/:;=?@[]~"

# The host characters that http.client refuses to send.
_HOST_REFUSED_RE = re.compile("[\x00-\x20\x7f]")

# What urlsplit drops from a URL without a word: a tab, CR or LF anywhere,
# and a leading space or control character (which of these it drops differs
# between patch releases, so the URL is checked as written).
_DROPPED_RE = re.compile("[\t\r\n]|^[\x00-\x20]")

# Why a URL is refused; the user-info reason gets a hint for endpoints.
_NOT_HTTP = "not an http or https URL with a host"
_USER_INFO = "an http URL with user info, which no request carries"


def _http_parts(url: str) -> SplitResult:
    """``url`` split into its parts; a ``ValueError`` says why it is not an
    ``http`` or ``https`` URL that a request can be sent to as written."""
    if _DROPPED_RE.search(url):
        raise ValueError("a URL with a tab, CR or LF, or a leading space or control character")
    try:
        parts = urlsplit(url)
        port = parts.port  # raises ValueError on a port that is not a number
        (parts.hostname or "").encode("idna")  # a UnicodeError on a name no lookup takes
    except ValueError:
        raise ValueError(_NOT_HTTP) from None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(_NOT_HTTP)
    if _HOST_REFUSED_RE.search(parts.hostname):
        raise ValueError("an http URL whose host holds a space or a control character")
    if port == 0:
        raise ValueError("an http URL with port 0, to which no request can be sent")
    if parts.username is not None:
        raise ValueError(_USER_INFO)
    return parts


def _request_target(parts: SplitResult) -> str:
    """The path and query of ``parts``, quoted for a request line; a byte
    that is not UTF-8 (a lone surrogate escape) is sent as that byte."""
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    return quote(target, safe=_TARGET_SAFE, errors="surrogateescape")


def check_endpoint(client) -> None:
    """Refuse ``client.endpoint`` if no request could be sent to it, before
    any is. Its token goes in the variable ``client.api_key_env``, not in
    the URL."""
    try:
        _http_parts(client.endpoint)
    except ValueError as exc:
        reason = str(exc)
        if reason == _USER_INFO:
            reason += f"; set {client.api_key_env} to send a bearer token"
        raise ConfigError(f"{client.name} {client.endpoint!r} is {reason}") from None


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
    new one, which connects on its first request. Before a new one is made,
    every idle connection the server has closed, for any key, is closed and
    forgotten, so the pool keeps no key of a server that is gone."""
    while True:
        with _POOL_LOCK:
            idle = _IDLE.get(key)
            if not idle:
                break
            conn = idle.pop()
            if not idle:
                del _IDLE[key]
        if _dropped(conn):
            conn.close()
            continue
        conn.timeout = timeout
        conn.sock.settimeout(timeout)
        return conn
    dropped = []
    with _POOL_LOCK:
        for other in list(_IDLE):
            kept = []
            for conn in _IDLE.pop(other):
                (dropped if _dropped(conn) else kept).append(conn)
            if kept:
                _IDLE[other] = kept
    for conn in dropped:
        conn.close()
    import http.client

    scheme, host, port = key
    # An https connection verifies the server against the system CA store.
    make = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
    return make(host, port, timeout=timeout)


def _exchange(
    method: str, parts: SplitResult, data: bytes | None, headers: dict, timeout: float
) -> tuple[int, str | None, bytes]:
    """One request on a pooled connection: the reply's status, ``Location``
    header and whole body. A connection that fails is closed."""
    key = (parts.scheme, parts.hostname, parts.port or (443 if parts.scheme == "https" else 80))
    conn = _take(key, timeout)
    try:
        conn.request(method, _request_target(parts), body=data, headers=headers)
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


def fetch(url: str) -> bytes:
    """The body of the ``http`` or ``https`` URL ``url``, by GET with no
    retry. At most ``MAX_REDIRECTS`` redirects are followed, each only to
    an ``http`` or ``https`` URL: any other URL is refused before a request
    is sent to it. Every failure is a ``FetchError``."""
    import http.client

    target = url
    for hop in range(MAX_REDIRECTS + 1):
        try:
            parts = _http_parts(target)
        except ValueError as exc:
            where = f"redirected to {target!r}, which is " if hop else ""
            raise FetchError(f"cannot fetch {url!r}: {where}{exc}") from None
        try:
            status, location, content = _exchange("GET", parts, None, {}, FETCH_TIMEOUT_S)
        except (OSError, http.client.HTTPException) as exc:
            raise FetchError(f"cannot fetch {url!r}: {str(exc) or type(exc).__name__}") from None
        if 200 <= status < 300:
            return content
        if status not in (301, 302, 303, 307, 308) or not location:
            raise FetchError(f"cannot fetch {url!r}: HTTP {status}")
        # urljoin would drop what _http_parts refuses, so such a location is
        # not joined but refused as it is.
        target = location if _DROPPED_RE.search(location) else urljoin(target, location)
    raise FetchError(f"cannot fetch {url!r}: more than {MAX_REDIRECTS} redirects")


def post_json(client, body: dict, *, stage: str | None = None) -> Node:
    """POST ``body`` to ``client.endpoint``; return a 2xx reply as JSON,
    labelled ``"{name} {endpoint} reply"``.

    ``client`` supplies ``name``, ``endpoint``, ``timeout`` and
    ``api_key_env``, whose variable, when set, becomes a bearer token.
    Connections to an endpoint are kept alive and reused; an idle one the
    server has closed is replaced before use, at no cost of an attempt.
    Connection errors and 5xx replies are retried up to ``MAX_ATTEMPTS``
    attempts in all, with exponential backoff; a 3xx reply (redirects are
    not followed) or a 4xx reply fails at once. The ``TransportError`` raised on failure carries
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
    name = client.name
    last_error = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            status, location, content = _exchange("POST", parts, data, headers, client.timeout)
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
        f"{name} failed after {MAX_ATTEMPTS} attempts: {last_error}",
        attempts=MAX_ATTEMPTS,
        stage=stage,
    )
