"""Strategy routing and prompt assembly."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonrag import Strategy, build_prompt, fragments_from_hits, select_strategy
from carbonrag.corpus import LengthClass
from carbonrag.errors import InputError
from carbonrag.fusion import PromptFragment, _render, fragments_from_documents
from carbonrag.generation import ANSWER_SCHEMA_INSTRUCTION
from carbonrag.index import RetrievalHit

_FRAGS = [
    PromptFragment(ref="d:00000000-00000400", text="Potline electricity came to 13500 kWh.", similarity=0.91),
    PromptFragment(ref="d:00000320-00000720", text="Anode consumption was 420 kg per cell.", similarity=0.84),
    PromptFragment(ref="d:00000640-00001040", text="Alumina shipments arrive by rail twice weekly.", similarity=0.55),
]


class TestStrategySelection:
    def test_long_datasources_use_retrieval(self):
        assert select_strategy(LengthClass.LONG) is Strategy.RAG_LONG

    def test_short_datasources_go_in_whole(self):
        assert select_strategy(LengthClass.SHORT) is Strategy.SHORT_DIRECT

    def test_no_datasource_asks_directly(self):
        assert select_strategy(LengthClass.NONE) is Strategy.NO_DATASOURCE


class TestRendering:
    def test_query_precedes_all_fragments(self):
        prompt = build_prompt("How much electricity?", Strategy.RAG_LONG, _FRAGS)
        q = prompt.rendered.index("Question: How much electricity?")
        for frag in _FRAGS:
            assert q < prompt.rendered.index(frag.text)

    def test_fragments_keep_their_given_order(self):
        prompt = build_prompt("q", Strategy.RAG_LONG, _FRAGS)
        positions = [prompt.rendered.index(f.text) for f in _FRAGS]
        assert positions == sorted(positions)

    def test_fragments_are_numbered_from_one(self):
        prompt = build_prompt("q", Strategy.RAG_LONG, _FRAGS[:2])
        assert f"[1] {_FRAGS[0].text}" in prompt.rendered
        assert f"[2] {_FRAGS[1].text}" in prompt.rendered

    def test_each_part_appears_exactly_once(self):
        prompt = build_prompt("How much electricity?", Strategy.RAG_LONG, _FRAGS)
        assert prompt.rendered.count("Question: How much electricity?") == 1
        for frag in _FRAGS:
            assert prompt.rendered.count(frag.text) == 1
        assert prompt.rendered.count(ANSWER_SCHEMA_INSTRUCTION) == 1

    def test_schema_instruction_comes_last(self):
        prompt = build_prompt("q", Strategy.RAG_LONG, _FRAGS)
        assert prompt.rendered.endswith(ANSWER_SCHEMA_INSTRUCTION)

    def test_rendering_is_deterministic(self):
        a = build_prompt("q", Strategy.RAG_LONG, _FRAGS)
        b = build_prompt("q", Strategy.RAG_LONG, _FRAGS)
        assert a.rendered == b.rendered
        assert a == b

    def test_no_datasource_prompt_has_no_reference_block(self):
        prompt = build_prompt("q", Strategy.NO_DATASOURCE)
        assert "Reference information:" not in prompt.rendered
        assert "Question: q" in prompt.rendered
        assert prompt.rendered.endswith(ANSWER_SCHEMA_INSTRUCTION)

    def test_query_key_is_carried_through(self):
        prompt = build_prompt("q", Strategy.RAG_LONG, _FRAGS[:1], query_key="q_energy")
        assert prompt.query_key == "q_energy"
        assert build_prompt("q", Strategy.RAG_LONG, _FRAGS[:1]).query_key is None


class TestFragmentSources:
    def test_hits_resolve_to_chunk_text(self):
        texts = {"d:00000000-00000010": "potline power", "d:00000008-00000018": "anode butts"}
        hits = [
            RetrievalHit(chunk_id="d:00000000-00000010", similarity=0.9, rank=1),
            RetrievalHit(chunk_id="d:00000008-00000018", similarity=0.7, rank=2),
        ]
        frags = fragments_from_hits(hits, texts.__getitem__)
        assert [(f.ref, f.text, f.similarity) for f in frags] == [
            ("d:00000000-00000010", "potline power", 0.9),
            ("d:00000008-00000018", "anode butts", 0.7),
        ]

    def test_documents_become_unscored_fragments(self):
        docs = [SimpleNamespace(doc_id="doc-0001-aaaa0000", body="whole text")]
        (frag,) = fragments_from_documents(docs)
        assert frag.ref == "doc-0001-aaaa0000"
        assert frag.text == "whole text"
        assert frag.similarity is None

    def test_blank_documents_are_not_fragments(self):
        docs = [
            SimpleNamespace(doc_id=doc_id, body=body)
            for doc_id, body in [("a", "a"), ("blank", " \n\t"), ("empty", ""), ("b", "b")]
        ]
        frags = fragments_from_documents(docs)
        assert [f.ref for f in frags] == ["a", "b"]
        rendered = build_prompt("q", Strategy.SHORT_DIRECT, frags).rendered
        assert "[1] a\n[2] b\n" in rendered and "[3]" not in rendered

    def test_uninterpretable_fragment_rejected(self):
        for bad in (42, ("r1", "text one")):
            with pytest.raises(InputError):
                build_prompt("q", Strategy.RAG_LONG, [bad])


class TestGuards:
    def test_empty_query_rejected(self):
        with pytest.raises(InputError):
            build_prompt("   ", Strategy.RAG_LONG, _FRAGS)

    def test_non_positive_budget_rejected(self):
        with pytest.raises(InputError):
            build_prompt("q", Strategy.RAG_LONG, _FRAGS, budget=0)

    def test_no_datasource_strategy_rejects_fragments(self):
        with pytest.raises(InputError):
            build_prompt("q", Strategy.NO_DATASOURCE, _FRAGS[:1])


class TestDuplicateCollapse:
    def test_repeated_text_is_kept_once_and_noted(self):
        dup = PromptFragment(ref="other:ref", text=_FRAGS[0].text, similarity=0.3)
        prompt = build_prompt("q", Strategy.RAG_LONG, [_FRAGS[0], dup, _FRAGS[1]])
        assert [f.ref for f in prompt.fragments] == [_FRAGS[0].ref, _FRAGS[1].ref]
        assert prompt.rendered.count(_FRAGS[0].text) == 1
        (note,) = prompt.notes
        assert "other:ref" in note and _FRAGS[0].ref in note


class TestBudget:
    def test_lowest_similarity_fragment_is_dropped_first(self):
        full = build_prompt("q", Strategy.RAG_LONG, _FRAGS)
        tight = build_prompt("q", Strategy.RAG_LONG, _FRAGS, budget=len(full.rendered) - 1)
        assert [f.ref for f in tight.fragments] == [_FRAGS[0].ref, _FRAGS[1].ref]
        assert len(tight.rendered) <= len(full.rendered) - 1
        (note,) = tight.notes
        assert _FRAGS[2].ref in note and "0.5500" in note

    def test_unscored_fragments_are_dropped_before_scored_ones(self):
        frags = [
            PromptFragment(ref="scored", text="kept because it was retrieved", similarity=0.1),
            PromptFragment(ref="unscored", text="dropped despite coming first in line", similarity=None),
        ]
        full = build_prompt("q", Strategy.RAG_LONG, frags)
        tight = build_prompt("q", Strategy.RAG_LONG, frags, budget=len(full.rendered) - 1)
        assert [f.ref for f in tight.fragments] == ["scored"]
        assert "similarity none" in tight.notes[0]

    def test_similarity_ties_drop_the_later_fragment(self):
        frags = [
            PromptFragment(ref="first", text="identical score early", similarity=0.5),
            PromptFragment(ref="second", text="identical score late", similarity=0.5),
        ]
        full = build_prompt("q", Strategy.RAG_LONG, frags)
        tight = build_prompt("q", Strategy.RAG_LONG, frags, budget=len(full.rendered) - 1)
        assert [f.ref for f in tight.fragments] == ["first"]

    def test_impossible_budget_drops_every_fragment(self):
        prompt = build_prompt("q", Strategy.RAG_LONG, _FRAGS, budget=10)
        assert prompt.fragments == ()
        assert len(prompt.notes) == len(_FRAGS)
        assert "Reference information:" not in prompt.rendered


def _oracle_prompt(query, fragments, budget, lengths=None):
    """Collapse duplicates, then re-render after each single drop: the loop
    ``build_prompt`` replaced. Each rendering's length goes to ``lengths``."""
    lengths = [] if lengths is None else lengths
    notes, kept, seen_texts = [], [], {}
    for frag in fragments:
        if frag.text in seen_texts:
            notes.append(
                f"collapsed duplicate fragment {frag.ref} (same text as {seen_texts[frag.text]})"
            )
            continue
        seen_texts[frag.text] = frag.ref
        kept.append(frag)
    rendered = _render(query, kept)
    lengths.append(len(rendered))
    while len(rendered) > budget and kept:
        drop_idx = min(
            range(len(kept)),
            key=lambda i: (
                kept[i].similarity if kept[i].similarity is not None else float("-inf"),
                -i,
            ),
        )
        dropped = kept.pop(drop_idx)
        sim = "none" if dropped.similarity is None else f"{dropped.similarity:.4f}"
        notes.append(f"dropped fragment {dropped.ref} (similarity {sim}) to fit budget {budget}")
        rendered = _render(query, kept)
        lengths.append(len(rendered))
    return rendered, tuple(kept), tuple(notes)


_FRAGMENT_LISTS = st.lists(
    st.builds(
        PromptFragment,
        ref=st.text(alphabet="abc:0", max_size=4),
        # a few shared texts make duplicates; lengths 0-300 make drops matter
        text=st.sampled_from(["same text", "other", ""]) | st.text(max_size=300),
        # ties, no score, and any other finite score
        similarity=st.none() | st.sampled_from([0.5, -0.0, 0.0]) | st.floats(allow_nan=False),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(fragments=_FRAGMENT_LISTS, data=st.data())
def test_budget_drops_are_the_one_at_a_time_loop(fragments, data):
    lengths = []  # the rendering's length after 0, 1, 2, ... drops
    _oracle_prompt("q", fragments, 0, lengths)
    near_a_fit = st.sampled_from(lengths).flatmap(lambda n: st.sampled_from([n - 1, n, n + 1]))
    budget = data.draw((near_a_fit | st.integers(1, lengths[0] + 20)).filter(lambda b: b > 0))
    prompt = build_prompt("q", Strategy.RAG_LONG, fragments, budget=budget)
    assert (prompt.rendered, prompt.fragments, prompt.notes) == _oracle_prompt("q", fragments, budget)
