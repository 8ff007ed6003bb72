"""Retrieval-augmented carbon footprint accounting.

Ingest industry documents, retrieve the fragments relevant to a question,
extract structured inventory facts from a generator's answer, multiply them
through an emission-factor database, and score the whole run against expert
ground truth (retrieval rate, value deviation, footprint deviation).

The names below are the ones a pipeline run needs; everything else is
imported from the module that defines it (``carbonrag.accounting``,
``carbonrag.errors``, ...). Each name is imported from its module on first
access, so ``import carbonrag`` loads neither numpy nor ``http.client``:
numpy comes with the first name from ``embedding`` or ``index``, and
``http.client`` with the first request sent.
"""

import importlib

_EXPORTS = {
    "config": ("RunConfig",),
    "corpus": ("Catalog", "classify_datasource"),
    "embedding": ("LexicalEncoder", "RemoteEncoder", "encoder_from_spec"),
    "errors": ("CarbonRagError",),
    "evaluation": ("run_benchmark",),
    "fusion": ("Strategy", "build_prompt", "fragments_from_hits", "select_strategy"),
    "generation": ("RemoteChatBackend", "ScriptedMockBackend", "parse_extraction"),
    "index": ("VectorIndex", "build_index"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [
    "CarbonRagError",
    "Catalog",
    "LexicalEncoder",
    "RemoteChatBackend",
    "RemoteEncoder",
    "RunConfig",
    "ScriptedMockBackend",
    "Strategy",
    "VectorIndex",
    "build_index",
    "build_prompt",
    "classify_datasource",
    "encoder_from_spec",
    "fragments_from_hits",
    "parse_extraction",
    "run_benchmark",
    "select_strategy",
]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
