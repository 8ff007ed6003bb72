"""Generation backends and structured-answer parsing.

Backends turn a rendered prompt into raw answer text: either a remote
chat-completion endpoint (temperature pinned to 0) or a deterministic
scripted mock for offline runs. ``parse_extraction`` then reads the fenced
JSON answer block into typed facts; it never invents keys or values that
are not present in the raw text.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from ._http import check_endpoint, post_json
from ._json import read_json
from .errors import ConfigError, ExtractionError, FormatError, MockMissError
from .quantity import Quantity

if TYPE_CHECKING:  # pragma: no cover
    from .fusion import Prompt

FACT_KEY_RE = re.compile(r"[a-z0-9_]+(\.[a-z0-9_]+)*")

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
# The ``{`` probes for one answer read at most this many times its length
# in all, so a hostile answer costs linear time.
_PROBE_READ_FACTOR = 16


@dataclass(frozen=True)
class RawAnswer:
    text: str
    usage: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ExtractedFact:
    fact_key: str
    value: Quantity
    unit: str
    provenance: tuple[str, ...] = ()


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
    max_in_flight = 1  # answered one at a time, so ``calls`` stays in request order

    def __init__(self, script: Mapping[str, str]):
        self._script = dict(script)
        self._lock = threading.Lock()
        self.calls: list[str] = []

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedMockBackend":
        return cls(read_json(path, "mock script", FormatError).expect(dict[str, str]))

    def generate(self, prompt: "Prompt") -> RawAnswer:
        key = prompt.query_key or prompt.query
        with self._lock:
            self.calls.append(key)
        if key in self._script:
            return RawAnswer(text=self._script[key])
        raise MockMissError(f"mock script has no entry for query key {key!r}")


class RemoteChatBackend:
    """Client for a chat-completion endpoint.

    Wire contract: ``POST {"model", "messages": [{"role", "content"}],
    "temperature": 0}``; the answer is the first choice's message content.
    Temperature is pinned to 0. At most ``max_in_flight`` requests are in
    flight at once, which is also how many questions ``run_benchmark``
    answers concurrently. Retries follow ``_http.post_json``.
    """

    kind = "remote"
    name = "generation endpoint"
    timeout = 60.0  # seconds per socket operation, not per attempt
    api_key_env = "GENERATION_API_KEY"
    max_in_flight = 4

    def __init__(self, endpoint: str, model: str = "default"):
        self.endpoint = endpoint
        check_endpoint(self)
        self.model = model
        self._slots = threading.BoundedSemaphore(self.max_in_flight)

    def generate(self, prompt: "Prompt") -> RawAnswer:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt.rendered}],
            "temperature": 0,
        }
        with self._slots:
            reply = post_json(self, body)
        choices = reply.at("choices").elements()
        if not choices:
            reply.fail("choices is empty")
        content = choices[0].at("message").get("content", str)
        usage = reply.get("usage", dict, default=None, nullable=True) or {}
        return RawAnswer(text=content, usage=usage)


def backend_from_spec(spec: str, *, model: str | None = None):
    """Build a backend from a CLI-style spec string.

    Accepted forms: ``mock:<script.json>`` or ``remote:<url>``. Only a
    remote backend takes a ``model``, ``"default"`` when none is given; a
    model for a mock is refused rather than ignored.
    """
    if spec.startswith("mock:"):
        if model is not None:
            raise ConfigError(f"model {model!r} needs a remote backend; a mock takes no model")
        return ScriptedMockBackend.from_file(spec.split(":", 1)[1])
    if spec.startswith("remote:"):
        return RemoteChatBackend(spec.split(":", 1)[1], model="default" if model is None else model)
    raise ConfigError(
        f"unknown backend spec {spec!r} (expected 'mock:<script.json>' or 'remote:<url>')"
    )


def _facts_list(obj) -> list | None:
    if isinstance(obj, dict) and isinstance(obj.get("facts"), list):
        return obj["facts"]
    return None


def _find_facts_block(text: str) -> list | None:
    """The ``facts`` list of the first object that has one: from a fenced
    block, then the whole text, then an object starting at a ``{``, taken
    in text order. Input too deeply nested to decode is no candidate."""
    for candidate in [*(m.group(1) for m in _FENCE_RE.finditer(text)), text]:
        try:
            facts = _facts_list(json.loads(candidate))
        except (ValueError, RecursionError):  # ValueError: also an over-long integer
            continue
        if facts is not None:
            return facts
    # The ``{`` between two ``}`` are all still open at the second one, so
    # each lies inside the one before it and an outer probe decodes the
    # inner one on its way: once an inner probe fails at or after that
    # ``}``, every outer one fails too. Probing each run innermost first and
    # stopping there keeps a nest of n ``{`` to one failed probe instead of
    # n probes each as deep as the recursion limit. A probe that fails
    # before the ``}`` may have started inside a string, so the walk goes
    # on; the outermost hit of a run is the first in text order.
    budget = _PROBE_READ_FACTOR * len(text)
    start = 0
    while start <= len(text) and budget > 0:
        end = text.find("}", start)
        if end == -1:
            end = len(text)
        opens = []
        brace = text.find("{", start, end)
        while brace != -1:
            opens.append(brace)
            brace = text.find("{", brace + 1, end)
        outermost = None
        for brace in reversed(opens):
            if budget <= 0:
                break
            try:
                obj, stop = _DECODER.raw_decode(text, brace)
            except RecursionError:
                budget -= len(text) - brace  # how far it read is unknown
                break
            except json.JSONDecodeError as exc:
                budget -= exc.pos - brace + 1
                if exc.pos >= end:
                    break
                continue
            except ValueError:  # an integer too long to convert, read to an unknown end
                budget -= len(text) - brace
                continue
            budget -= stop - brace
            facts = _facts_list(obj)
            if facts is not None:
                outermost = facts
        if outermost is not None:
            return outermost
        start = end + 1
    return None


def parse_extraction(
    raw: RawAnswer, expected_keys: Sequence[str] | None = None
) -> tuple[list[ExtractedFact], list[ParseWarning]]:
    """Parse the structured answer block into facts plus warnings.

    Facts with keys outside ``expected_keys`` are kept but flagged; expected
    keys that never appear are reported absent. A range with swapped bounds
    is rejected with a warning, never silently reordered. Passing
    ``expected_keys=None`` disables the expectation checks.
    """
    entries = _find_facts_block(raw.text)
    if entries is None:
        raise ExtractionError(
            "no parseable facts block found in the answer", raw_text=raw.text
        )

    facts: list[ExtractedFact] = []
    warnings: list[ParseWarning] = []
    seen: set[str] = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            warnings.append(ParseWarning("bad_entry", f"facts[{i}] is not an object"))
            continue
        key = entry.get("key")
        if not isinstance(key, str):
            warnings.append(ParseWarning("missing_key", f"facts[{i}] has no string key"))
            continue
        if not FACT_KEY_RE.fullmatch(key):
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
            ExtractedFact(fact_key=key, value=value, unit=unit.strip(), provenance=provenance)
        )

    if expected_keys is not None:
        for key in expected_keys:
            if key not in seen:
                warnings.append(
                    ParseWarning("missing_fact", f"expected key {key!r} is absent", fact_key=key)
                )
    return facts, warnings
