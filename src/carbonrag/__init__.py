"""Retrieval-augmented carbon footprint accounting.

Ingest industry documents, retrieve the fragments relevant to a question,
extract structured inventory facts from a generator's answer, multiply them
through an emission-factor database, and score the whole run against expert
ground truth (retrieval rate, value deviation, footprint deviation).

The names below are the ones a pipeline run needs; everything else is
imported from the module that defines it (``carbonrag.accounting``,
``carbonrag.errors``, ...).
"""

from .config import RunConfig
from .corpus import Catalog, classify_datasource
from .embedding import LexicalEncoder, RemoteEncoder, encoder_from_spec
from .errors import CarbonRagError
from .evaluation import run_benchmark
from .fusion import Strategy, build_prompt, fragments_from_hits, select_strategy
from .generation import RemoteChatBackend, ScriptedMockBackend, parse_extraction
from .index import VectorIndex, build_index

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
