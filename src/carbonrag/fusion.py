"""Datasource strategy selection and prompt construction.

The strategy follows directly from how much source text a query has to work
with: long corpora go through retrieval and get their top fragments fused
into the prompt, short texts are passed whole as reference material, and
with no datasource the generator sees the bare query. ``build_prompt`` is a
pure function; identical inputs give byte-identical renderings.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .corpus import Document, LengthClass
from .errors import InputError
from .generation import ANSWER_SCHEMA_INSTRUCTION

if TYPE_CHECKING:  # pragma: no cover
    from .index import RetrievalHit

TEMPLATE_VERSION = "cfa-rag-prompt/1"

DEFAULT_PROMPT_BUDGET = 12000

_ROLE_HEADER = (
    "You are a carbon footprint accounting assistant. Ground every figure in "
    "the reference information when it is provided, and cite the fragment "
    "numbers you used."
)


class Strategy(enum.Enum):
    RAG_LONG = "rag_long"
    SHORT_DIRECT = "short_direct"
    NO_DATASOURCE = "no_datasource"


def select_strategy(length_class: LengthClass) -> Strategy:
    """Map the datasource length class to a generation strategy."""
    if length_class is LengthClass.LONG:
        return Strategy.RAG_LONG
    if length_class is LengthClass.SHORT:
        return Strategy.SHORT_DIRECT
    return Strategy.NO_DATASOURCE


@dataclass(frozen=True)
class PromptFragment:
    """One piece of reference text, with retrieval provenance when known."""

    ref: str
    text: str
    similarity: float | None = None


@dataclass(frozen=True)
class Prompt:
    query: str
    fragments: tuple[PromptFragment, ...]
    rendered: str
    notes: tuple[str, ...] = ()
    query_key: str | None = field(default=None, kw_only=True)


def fragments_from_hits(
    hits: Sequence[RetrievalHit], resolve: Callable[[str], str]
) -> list[PromptFragment]:
    """Turn retrieval hits into fragments, resolving chunk ids to text."""
    return [
        PromptFragment(ref=h.chunk_id, text=resolve(h.chunk_id), similarity=h.similarity)
        for h in hits
    ]


def fragments_from_documents(docs: Iterable[Document]) -> list[PromptFragment]:
    """Whole documents as fragments, for the short-datasource strategy; a
    blank body holds no chunk and, as in ``classify_datasource``, counts for nothing."""
    return [PromptFragment(ref=d.doc_id, text=d.body) for d in docs if d.body.strip()]


def _render(query: str, fragments: Sequence[PromptFragment]) -> str:
    # Question first, then references: the prompt concatenates the query with
    # the selected fragments in that order.
    parts = [_ROLE_HEADER, "", f"Question: {query}", ""]
    if fragments:
        parts.append("Reference information:")
        for n, frag in enumerate(fragments, start=1):
            parts.append(f"[{n}] {frag.text}")
        parts.append("")
    parts.append(ANSWER_SCHEMA_INSTRUCTION)
    return "\n".join(parts)


def build_prompt(
    query: str,
    strategy: Strategy,
    fragments: Sequence[PromptFragment] = (),
    *,
    budget: int = DEFAULT_PROMPT_BUDGET,
    query_key: str | None = None,
) -> Prompt:
    """Render the enhanced prompt: header, query, numbered fragments, schema.

    Fragment order is preserved as given (callers pass retrieval output
    already similarity-descending). Exact duplicate texts are collapsed to
    the first occurrence, and when the rendering exceeds ``budget``
    characters the lowest-similarity fragments are dropped until it fits.
    Both adjustments are recorded in ``Prompt.notes``, never silent.
    """
    if not query or not query.strip():
        raise InputError("query must be non-empty")
    if budget <= 0:
        raise InputError(f"prompt budget must be positive, got {budget}")
    for frag in fragments:
        if not isinstance(frag, PromptFragment):
            raise InputError(f"cannot interpret {frag!r} as a prompt fragment")
    if strategy is Strategy.NO_DATASOURCE and fragments:
        raise InputError("the no-datasource strategy takes no fragments")

    notes: list[str] = []
    kept: list[PromptFragment] = []
    seen_texts: dict[str, str] = {}
    for frag in fragments:
        if frag.text in seen_texts:
            notes.append(
                f"collapsed duplicate fragment {frag.ref} "
                f"(same text as {seen_texts[frag.text]})"
            )
            continue
        seen_texts[frag.text] = frag.ref
        kept.append(frag)

    rendered = _render(query, kept)
    if len(rendered) > budget and kept:
        # Drop the worst fragments first: lowest similarity, latest position
        # on ties; fragments without a similarity score go first. Each drop
        # shortens the rendering, so the fewest drops that fit are bisected.
        sims = [float("-inf") if frag.similarity is None else frag.similarity for frag in kept]
        drop_order = sorted(range(len(kept)), key=lambda i: (sims[i], -i))

        def without(drops: int) -> list[PromptFragment]:
            gone = set(drop_order[:drops])
            return [frag for i, frag in enumerate(kept) if i not in gone]

        drops = bisect.bisect_left(
            range(len(kept)), True, lo=1, key=lambda d: len(_render(query, without(d))) <= budget
        )
        for i in drop_order[:drops]:
            sim = "none" if kept[i].similarity is None else f"{kept[i].similarity:.4f}"
            notes.append(
                f"dropped fragment {kept[i].ref} (similarity {sim}) to fit budget {budget}"
            )
        kept = without(drops)
        rendered = _render(query, kept)

    return Prompt(
        query=query,
        fragments=tuple(kept),
        rendered=rendered,
        notes=tuple(notes),
        query_key=query_key,
    )
