"""The package's one JSON dialect: one reader, one writer, and typed access.

``read_json`` reads a file as bytes, decodes UTF-8 and parses standard JSON
(``NaN``, ``Infinity`` and ``-Infinity`` are rejected, and so is a key
repeated in one object); any failure to read, decode or parse, nesting too
deep included, becomes the caller's error class naming the file. So does a
lone surrogate, such as the escape ``"\\ud800"``: it is valid JSON but not
text, and would fail only later, when it is printed or saved. Strict UTF-8
decoding refuses an encoded surrogate, so the decoded value is searched for
one only when the text has a ``\\u`` escape.
``parse_json`` does the same for bytes already read, such as a reply body.
Both return a ``Node``, whose getters apply JSON's types rather than
Python's and name the file and the JSON path of a bad value, such as
``benchmark b.json: truths[3].true_value must be a number, got 'x'``.
``Node.declares`` is the one check of a file's format declaration.

``write_json`` writes that dialect: a non-finite number or a lone surrogate
fails the write, so every file it writes reads back. ``dump_json`` renders
it.

A framed file, the layout of the catalog and of the index, is one line of
that JSON, the header, which may end in spaces, then a newline and raw
bytes, the payload. ``write_framed`` pads the header line so that the
payload starts at a multiple of 8 bytes, where a reader that maps the file
finds an array of 8-byte numbers aligned; ``read_framed`` reads any such
file and checks its header's format declaration.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections import Counter
from pathlib import Path
from types import GenericAlias
from typing import Callable, Collection, Iterable, NoReturn

from ._files import write_file
from .errors import FormatError

_MISSING = object()
_SURROGATE_RE = re.compile("[\ud800-\udfff]")
_KIND_NAMES = {
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    list: "a list",
    dict: "an object",
    object: "a JSON value",
}


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not standard JSON")


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):  # a later value would silently win
        counts = Counter(key for key, _ in pairs)
        raise ValueError(f"duplicate key {next(k for k, _ in pairs if counts[k] > 1)!r}")
    return obj


def read_json(path: str | Path, what: str, error_cls: Callable[[str], Exception]) -> "Node":
    """The JSON document in file ``path``; errors name it as ``what``."""
    label = f"{what} {path}"
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error_cls(f"cannot load {label}: {exc}") from None
    return parse_json(data, label, error_cls)


def read_framed(
    path: str | Path,
    what: str,
    fmt: dict,
    keys: Collection[str],
    alloc: Callable[[int], object] | None = None,
) -> tuple["Node", memoryview]:
    """The header and the payload of the framed file ``path``, whose header
    ``declares(fmt, keys)``. Any other file is a ``FormatError`` naming it
    as ``what``: one that cannot be read, whose first byte is not ``{``,
    whose header line has no end or is not JSON, or that declares another
    format. The payload is read into ``alloc(size)``, writable memory such
    as an aligned array, when given, else into new bytes, and comes back as
    a read-only view of it."""
    label = f"{what} {path}"
    try:
        with open(path, "rb") as fh:
            line = fh.readline()
            size = max(os.fstat(fh.fileno()).st_size - len(line), 0)
            if alloc is None:
                payload = memoryview(fh.read(size))
            else:
                payload = memoryview(alloc(size))
                payload = payload[: fh.readinto(payload)]
    except OSError as exc:
        raise FormatError(f"cannot load {label}: {exc}") from None
    if not line.startswith(b"{"):
        raise FormatError(
            f"{label}: not a format-{fmt['version']} {what} (its first byte is not '{{')"
        )
    if not line.endswith(b"\n"):
        raise FormatError(f"{label}: the header line has no end")
    header = parse_json(line, f"{label}: header", FormatError)
    return header.declares(fmt, keys), payload.toreadonly()


def parse_json(data: bytes, label: str, error_cls: Callable[[str], Exception]) -> "Node":
    """The JSON document in the UTF-8 bytes ``data``; errors name it as ``label``."""
    try:
        text = data.decode("utf-8")
        value = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise error_cls(f"{label} is not JSON: {exc}") from None
    # Strict UTF-8 decoding refuses surrogates, so the text holds one only
    # through a \u escape.
    if "\\u" in text:
        surrogate = lone_surrogate(value)
        if surrogate is not None:
            raise error_cls(f"{label} holds a lone surrogate {surrogate!r}, which is not text")
    return Node(value, label, error_cls)


def dump_json(obj, *, indent: int | None = 2) -> str:
    """``obj`` as JSON text in the dialect ``parse_json`` reads: keys in dict
    order, non-ASCII as itself, ``indent`` spaces per level and a final
    newline, or one line when ``indent`` is None. A non-finite number is a
    ``ValueError``; a lone surrogate fails when the text is encoded."""
    text = json.dumps(obj, ensure_ascii=False, allow_nan=False, indent=indent)
    return text if indent is None else text + "\n"


def write_json(path: str | Path, what: str, obj) -> None:
    """Write ``obj`` to ``path`` as ``dump_json`` renders it, through
    ``write_file``: a value that JSON or UTF-8 cannot hold ends in
    ``[save] cannot write <what> <path>: …`` and leaves no file."""
    write_file(path, what, lambda fh: fh.write(dump_json(obj)))


def write_framed(path: str | Path, what: str, frame: Callable[[], tuple[object, Iterable]]) -> None:
    """Write the framed file ``path`` from the header and the payload
    buffers that ``frame()`` returns: the header as ``dump_json`` renders it
    on one line, spaces up to a multiple of 8 bytes with the newline, the
    newline, then the buffers back to back. The whole file goes out in one
    write: the catalog's bodies are mostly smaller than the file buffer,
    and written one by one they cost about one system call each. ``frame``
    runs inside ``write_file``, so a value that JSON or UTF-8 cannot hold
    ends in ``[save] cannot write <what> <path>: …`` and leaves no file."""

    def write(fh) -> None:
        header, payload = frame()
        line = dump_json(header, indent=None).encode("utf-8")
        fh.write(b"".join([line, b" " * (-(len(line) + 1) % 8), b"\n", *payload]))

    write_file(path, what, write, binary=True)


def lone_surrogate(value) -> str | None:
    """The first surrogate code point in a key or string of ``value``, if any.

    A string decoded from JSON bytes holds one only when the JSON held a
    ``\\udxxx`` escape that is not half of a pair, so ``parse_json`` calls
    this only on text with a ``\\u`` escape. Only a non-ASCII string can
    hold one, and ``str.isascii`` costs nothing, so the scan is one loop
    over the nodes.
    """
    todo = [value]
    for node in todo:  # the loop also visits what it appends
        kind = type(node)
        if kind is str:
            if not node.isascii() and (found := _SURROGATE_RE.search(node)):
                return found[0]
        elif kind is dict:
            todo += node
            todo += node.values()
        elif kind is list:
            todo += node
    return None


def _conforms(value, kind) -> bool:
    if type(value) is kind:
        return kind is not float or math.isfinite(value)
    if type(kind) is GenericAlias:
        origin, item = kind.__origin__, kind.__args__[-1]
        return isinstance(value, origin) and all(
            _conforms(v, item) for v in (value if origin is list else value.values())
        )
    if isinstance(value, bool):
        return kind is bool or kind is object
    if kind is float:
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            return False
    return isinstance(value, kind)


class Node:
    """A value of a decoded JSON document and the JSON path it was found at.

    A ``kind`` is ``str``, ``int``, ``float`` (a finite number), ``bool``
    (neither of those), ``list``, ``dict``, ``object`` (any value), or
    ``list[X]`` or ``dict[str, X]`` of one; any other kind, such as an
    enum, converts the value and raises ``ValueError`` when it cannot."""

    __slots__ = ("value", "path", "_label", "_error")

    def __init__(self, value, label: str, error_cls: Callable[[str], Exception], path: str = ""):
        self.value = value
        self.path = path
        self._label = label
        self._error = error_cls

    @property
    def where(self) -> str:
        """The document's label, then this value's JSON path, if below the top."""
        return f"{self._label}: {self.path}" if self.path else self._label

    def fail(self, message: str) -> NoReturn:
        raise self._error(f"{self.where}: {message}")

    def _child(self, key: str | int, value) -> "Node":
        if isinstance(key, int):
            path = f"{self.path}[{key}]"
        elif key.isidentifier():
            path = f"{self.path}.{key}" if self.path else key
        else:
            path = f"{self.path}[{key!r}]"
        return Node(value, self._label, self._error, path)

    def expect(self, kind, *, nullable: bool = False):
        """This value checked against ``kind`` (a number comes back as a
        float), or converted by it; None passes when ``nullable``."""
        value = self.value
        if value is None and nullable:
            return None
        origin = kind.__origin__ if type(kind) is GenericAlias else None
        if origin is None and kind not in _KIND_NAMES:
            try:
                return kind(value)
            except ValueError as exc:
                self.fail(str(exc))
        if _conforms(value, kind):
            return float(value) if kind is float else value
        if origin is not None and isinstance(value, origin):
            # Name the first element that is of the wrong kind.
            pairs = enumerate(value) if origin is list else value.items()
            for key, item in pairs:
                self._child(key, item).expect(kind.__args__[-1])
        wanted = _KIND_NAMES[origin or kind] + (" or null" if nullable else "")
        raise self._error(f"{self.where} must be {wanted}, got {value!r:.60}")

    def at(self, key: str, default=_MISSING) -> "Node":
        """Field ``key`` of this object; a missing field is an error unless
        a ``default`` is given."""
        fields = self.expect(dict)
        if key in fields:
            return self._child(key, fields[key])
        if default is _MISSING:
            raise self._error(f"{self.where} is missing {key!r}")
        return self._child(key, default)

    def get(self, key: str, kind=object, *, default=_MISSING, nullable: bool = False):
        """Field ``key`` of this object as ``expect(kind)`` gives it, or
        ``default`` when the field is absent and a default is given."""
        if default is not _MISSING and key not in self.expect(dict):
            return default
        return self.at(key).expect(kind, nullable=nullable)

    def only_keys(self, known: Collection[str]) -> "Node":
        """This object; a key outside ``known``, such as a misspelt one, is an error."""
        unknown = sorted(set(self.expect(dict)) - set(known))
        if unknown:
            self.fail(f"unknown keys: {', '.join(unknown)}")
        return self

    def declares(self, fmt: dict, keys: Collection[str]) -> "Node":
        """This object, when it holds every ``fmt`` key with that value and
        JSON type (``2.0`` and ``true`` equal ``2`` and ``1`` in Python, but
        declare nothing) and no key outside ``fmt`` and ``keys``."""
        got = self.value if type(self.value) is dict else {}
        if any((type(got.get(k)), got.get(k)) != (type(v), v) for k, v in fmt.items()):
            raise self._error(f"{self.where} does not declare {fmt}")
        return self.only_keys((*fmt, *keys))

    def elements(self, keys: Collection[str] | None = None) -> list["Node"]:
        """One node per element of this list; given ``keys``, each ``only_keys(keys)``."""
        nodes = [self._child(i, item) for i, item in enumerate(self.expect(list))]
        return nodes if keys is None else [node.only_keys(keys) for node in nodes]
