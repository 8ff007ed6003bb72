"""The one JSON-over-HTTP retry loop shared by the remote clients."""

from __future__ import annotations

import os
import time
from typing import Callable

import requests

from .errors import TransportError


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

    ``client`` supplies ``endpoint``, ``session``, ``timeout``,
    ``max_attempts``, ``backoff_base`` and ``api_key_env``, whose variable,
    when set, becomes a bearer token. Connection errors and 5xx replies are
    retried with exponential backoff; a 4xx reply fails at once.
    ``on_attempt(attempt, status, latency_ms)`` sees every attempt, with
    status ``"unreachable"`` when no reply came.
    """
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(client.api_key_env, "")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    http = client.session or requests
    last_error = None
    for attempt in range(1, client.max_attempts + 1):
        started = time.monotonic()
        try:
            response = http.post(client.endpoint, json=body, headers=headers, timeout=client.timeout)
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
