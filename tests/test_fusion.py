"""Strategy routing and prompt assembly."""

from types import SimpleNamespace

import pytest

from carbonrag import (
    ANSWER_SCHEMA_INSTRUCTION,
    InputError,
    LengthClass,
    PromptFragment,
    RetrievalHit,
    Strategy,
    TEMPLATE_VERSION,
    build_prompt,
    fragments_from_documents,
    fragments_from_hits,
    select_strategy,
)

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

    def test_template_version_is_stamped(self):
        prompt = build_prompt("q", Strategy.SHORT_DIRECT, _FRAGS[:1])
        assert prompt.template_version == TEMPLATE_VERSION

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
