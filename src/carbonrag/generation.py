"""Generation backends and structured-answer parsing.

Backends turn a rendered prompt into raw answer text: either a remote
chat-completion endpoint (temperature pinned to 0) or a deterministic
scripted mock for offline runs. ``parse_extraction`` then reads the fenced
JSON answer block into typed facts; it never invents keys or values that
are not present in the raw text.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import requests

from ._http import post_json
from .errors import (
    ExtractionError,
    FormatError,
    InputError,
    MockMissError,
)
from .quantity import Quantity

if TYPE_CHECKING:  # pragma: no cover
    from .fusion import Prompt

logger = logging.getLogger(__name__)

FACT_KEY_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

ANSWER_SCHEMA_INSTRUCTION = (
    "Answer with a single fenced JSON block of the form:\n"
    "```json\n"
    '{"facts": [{"key": "<dotted.fact.key>", '
    '"value": <number> | {"lower": <number>, "upper": <number>}, '
    '"unit": "<unit>", "sources": [<fragment numbers>]}]}\n'
    "```\n"
    "Emit one entry per requested fact key and cite the reference fragment "
    "numbers you relied on in \"sources\"."
)

_FENCE_RE = re.compile(r"```(?:json)?\s*\n(.*?)```", re.DOTALL)
_DECODER = json.JSONDecoder()


@dataclass(frozen=True)
class RawAnswer:
    text: str
    backend_kind: str
    usage: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ExtractedFact:
    fact_key: str
    value: Quantity
    unit: str
    provenance: tuple[str, ...] = ()
    raw_span: str = ""


@dataclass(frozen=True)
class ParseWarning:
    code: str
    message: str
    fact_key: str | None = None


class ScriptedMockBackend:
    """Deterministic backend: query key -> canned answer text.

    Lookups use ``prompt.query_key`` when set, otherwise the query text.
    Calls are recorded so tests can audit what was asked.
    """

    kind = "scripted_mock"

    def __init__(self, script: Mapping[str, str], fallback: str | None = None):
        self._script = dict(script)
        self._fallback = fallback
        self._lock = threading.Lock()
        self.calls: list[str] = []

    @classmethod
    def from_file(cls, path: str | Path, fallback: str | None = None) -> "ScriptedMockBackend":
        path = Path(path)
        try:
            script = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"cannot load mock script {path}: {exc}") from None
        if not isinstance(script, dict) or not all(
            isinstance(v, str) for v in script.values()
        ):
            raise FormatError(f"mock script {path} must map query keys to answer strings")
        return cls(script, fallback=fallback)

    def generate(self, prompt: "Prompt") -> RawAnswer:
        if not prompt.rendered:
            raise InputError("prompt has an empty rendering")
        key = prompt.query_key or prompt.query
        with self._lock:
            self.calls.append(key)
        if key in self._script:
            return RawAnswer(text=self._script[key], backend_kind=self.kind)
        if self._fallback is not None:
            return RawAnswer(text=self._fallback, backend_kind=self.kind)
        raise MockMissError(f"mock script has no entry for query key {key!r}")


class RemoteChatBackend:
    """Client for a chat-completion endpoint.

    Wire contract: ``POST {"model", "messages": [{"role", "content"}],
    "temperature": 0}``; the answer is the first choice's message content.
    Temperature is pinned to 0. In-flight requests are bounded and every
    call is appended to the audit log (request hash, status, latency).
    """

    kind = "remote"

    def __init__(
        self,
        endpoint: str,
        model: str = "default",
        *,
        timeout: float = 60.0,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        max_in_flight: int = 4,
        api_key_env: str = "GENERATION_API_KEY",
        audit_log_path: str | Path | None = None,
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.api_key_env = api_key_env
        self.audit_log_path = Path(audit_log_path) if audit_log_path else None
        self.session = session
        self._slots = threading.BoundedSemaphore(max_in_flight)
        self._audit_lock = threading.Lock()

    def _audit(self, sha256: str, attempt: int, status: int | str, latency_ms: float) -> None:
        if self.audit_log_path is None:
            return
        record = {
            "request_sha256": sha256,
            "attempt": attempt,
            "status": status,
            "latency_ms": round(latency_ms, 3),
        }
        line = json.dumps(record, sort_keys=True)
        with self._audit_lock:
            with open(self.audit_log_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    def generate(self, prompt: "Prompt") -> RawAnswer:
        if not prompt.rendered:
            raise InputError("prompt has an empty rendering")
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt.rendered}],
            "temperature": 0,
        }
        request_hash = hashlib.sha256(prompt.rendered.encode("utf-8")).hexdigest()
        with self._slots:
            response = post_json(
                self,
                body,
                name="generation endpoint",
                gave_up="failed",
                on_attempt=functools.partial(self._audit, request_hash),
            )
        try:
            data = response.json()
            content = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise FormatError(
                f"generation endpoint returned an unexpected payload: {exc}"
            ) from None
        usage = data.get("usage") if isinstance(data.get("usage"), dict) else {}
        return RawAnswer(text=content, backend_kind=self.kind, usage=usage)


def backend_from_spec(spec: str, *, model: str = "default"):
    """Build a backend from a CLI-style spec string.

    Accepted forms: ``mock:<script.json>`` or ``remote:<url>``.
    """
    if spec.startswith("mock:"):
        return ScriptedMockBackend.from_file(spec.split(":", 1)[1])
    if spec.startswith("remote:"):
        return RemoteChatBackend(spec.split(":", 1)[1], model=model)
    raise InputError(
        f"unknown backend spec {spec!r} (expected 'mock:<script.json>' or 'remote:<url>')"
    )


def _json_candidates(text: str):
    """Values decoded from each fenced block, then the whole text, then an
    object starting at each ``{``. Input too deeply nested to decode is no
    candidate."""
    for candidate in [*(m.group(1) for m in _FENCE_RE.finditer(text)), text]:
        try:
            yield json.loads(candidate)
        except (json.JSONDecodeError, RecursionError):
            pass
    start = text.find("{")
    while start != -1:
        try:
            yield _DECODER.raw_decode(text, start)[0]
        except (json.JSONDecodeError, RecursionError):
            pass
        start = text.find("{", start + 1)


def _find_facts_block(text: str) -> list | None:
    for obj in _json_candidates(text):
        if isinstance(obj, dict) and isinstance(obj.get("facts"), list):
            return obj["facts"]
    return None


def parse_extraction(
    raw: RawAnswer | str, expected_keys: Sequence[str] | None = None
) -> tuple[list[ExtractedFact], list[ParseWarning]]:
    """Parse the structured answer block into facts plus warnings.

    Facts with keys outside ``expected_keys`` are kept but flagged; expected
    keys that never appear are reported absent. A range with swapped bounds
    is rejected with a warning, never silently reordered. Passing
    ``expected_keys=None`` disables the expectation checks.
    """
    text = raw.text if isinstance(raw, RawAnswer) else raw
    entries = _find_facts_block(text)
    if entries is None:
        raise ExtractionError(
            "no parseable facts block found in the answer", raw_text=text
        )

    facts: list[ExtractedFact] = []
    warnings: list[ParseWarning] = []
    seen: set[str] = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            warnings.append(ParseWarning("bad_entry", f"facts[{i}] is not an object"))
            continue
        span = json.dumps(entry, sort_keys=True)
        key = entry.get("key")
        if not isinstance(key, str):
            warnings.append(ParseWarning("missing_key", f"facts[{i}] has no string key"))
            continue
        if not FACT_KEY_RE.match(key):
            warnings.append(
                ParseWarning(
                    "bad_key",
                    f"facts[{i}] key {key!r} does not match the canonical dotted form",
                    fact_key=key,
                )
            )
            continue
        if key in seen:
            warnings.append(
                ParseWarning("duplicate_key", f"key {key!r} appears more than once; kept first", fact_key=key)
            )
            continue
        try:
            value = Quantity.from_json_value(entry.get("value"))
        except ValueError as exc:
            code = "range_reversed" if "exceeds upper" in str(exc) else "bad_value"
            warnings.append(ParseWarning(code, f"key {key!r}: {exc}", fact_key=key))
            continue
        unit = entry.get("unit")
        if not isinstance(unit, str) or not unit.strip():
            warnings.append(
                ParseWarning("missing_unit", f"key {key!r} has no unit", fact_key=key)
            )
            continue
        sources = entry.get("sources", [])
        if not isinstance(sources, list):
            sources = [sources]
        provenance = tuple(str(s) for s in sources)
        if expected_keys is not None and key not in expected_keys:
            warnings.append(
                ParseWarning("unexpected_key", f"key {key!r} was not requested", fact_key=key)
            )
        seen.add(key)
        facts.append(
            ExtractedFact(
                fact_key=key,
                value=value,
                unit=unit.strip(),
                provenance=provenance,
                raw_span=span,
            )
        )

    if expected_keys is not None:
        for key in expected_keys:
            if key not in seen:
                warnings.append(
                    ParseWarning("missing_fact", f"expected key {key!r} is absent", fact_key=key)
                )
    return facts, warnings
