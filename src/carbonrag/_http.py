"""The one JSON-over-HTTP retry loop shared by the remote clients."""

from __future__ import annotations

import http.cookiejar
import os
import time
from typing import Callable

import requests

from .errors import TransportError

# One keep-alive session for every remote client in the process, created at
# import so that setting up a client builds no Session and frees no pooled
# sockets. It keeps no cookies: a cookie set by one endpoint's reply would
# otherwise ride along on every other client's requests.
_SESSION = requests.Session()
_SESSION.cookies.set_policy(http.cookiejar.DefaultCookiePolicy(allowed_domains=[]))


def post_json(
    client,
    body: dict,
    *,
    name: str,
    gave_up: str,
    stage: str | None = None,
    on_attempt: Callable[[int, int | str, float], None] | None = None,
) -> requests.Response:
    """POST ``body`` to ``client.endpoint``; return the first reply below 400.

    ``client`` supplies ``endpoint``, ``timeout``, ``max_attempts``,
    ``backoff_base`` and ``api_key_env``, whose variable, when set, becomes
    a bearer token. Every request goes through the one shared keep-alive
    session, so connections to an endpoint are reused. Connection errors
    and 5xx replies are retried with exponential backoff; a 4xx reply fails
    at once.
    ``on_attempt(attempt, status, latency_ms)`` sees every attempt, with
    status ``"unreachable"`` when no reply came.
    """
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(client.api_key_env, "")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    last_error = None
    for attempt in range(1, client.max_attempts + 1):
        started = time.monotonic()
        try:
            response = _SESSION.post(
                client.endpoint, json=body, headers=headers, timeout=client.timeout
            )
        except requests.RequestException as exc:
            response, status, last_error = None, "unreachable", str(exc)
        else:
            status = response.status_code
        if on_attempt is not None:
            on_attempt(attempt, status, (time.monotonic() - started) * 1000.0)
        if response is not None:
            if status < 400:
                return response
            if status < 500:
                raise TransportError(
                    f"{name} rejected the request: HTTP {status}", attempts=attempt, stage=stage
                )
            last_error = f"HTTP {status}"
        if attempt < client.max_attempts:
            time.sleep(client.backoff_base * 2 ** (attempt - 1))
    raise TransportError(
        f"{name} {gave_up} after {client.max_attempts} attempts: {last_error}",
        attempts=client.max_attempts,
        stage=stage,
    )
