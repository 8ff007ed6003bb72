"""One reader for the package's persisted JSON files, and typed access to them.

``read_json`` reads a file as bytes, decodes UTF-8 and parses standard JSON
(``NaN``, ``Infinity`` and ``-Infinity`` are rejected); any failure to read,
decode or parse, nesting too deep included, becomes the caller's error class
naming the file. ``parse_json`` does the same for a reply body or a string.
Both return a ``Node``, whose getters apply JSON's types rather than
Python's and name the file and the JSON path of a bad value, such as
``benchmark b.json: truths[3].true_value must be a number, got 'x'``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import GenericAlias
from typing import NoReturn

_MISSING = object()
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


def read_json(path: str | Path, what: str, error_cls: type[Exception]) -> "Node":
    """The JSON document in file ``path``; errors name it as ``what``."""
    label = f"{what} {path}"
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error_cls(f"cannot load {label}: {exc}") from None
    return parse_json(data, label, error_cls)


def parse_json(data: bytes | str, label: str, error_cls: type[Exception]) -> "Node":
    """The JSON document in ``data``, UTF-8 if bytes; errors name it as ``label``."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        value = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise error_cls(f"{label} is not JSON: {exc}") from None
    return Node(value, label, error_cls)


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

    def __init__(self, value, label: str, error_cls: type[Exception], path: str = ""):
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
        if type(value) is kind and kind is not float:  # the common case, first for speed
            return value
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
        fields = self.value if type(self.value) is dict else self.expect(dict)
        if key not in fields:
            return self.at(key) if default is _MISSING else default  # ``at`` raises
        value = fields[key]
        if type(value) is kind and kind is not float or value is None and nullable:
            return value  # the common cases of ``expect``, without a node, for speed
        return self._child(key, value).expect(kind, nullable=nullable)

    def elements(self) -> list["Node"]:
        """One node per element of this list."""
        return [self._child(i, item) for i, item in enumerate(self.expect(list))]
