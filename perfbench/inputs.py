"""Seeded benchmark inputs made from the frozen fixture plant.

``plant.json`` is a copy of the three Aurora Creek smelter documents, their
questions, answers, ground truths and emission factors from the test
fixture. It is frozen here so that benchmark inputs do not move when the
tests change.

A corpus is a number of *sites*. Each site is the fixture plant under its
own seeded 12-letter name (the length of "Aurora Creek", so document
lengths and chunk counts do not depend on the seed), with the body
paragraphs of every document shuffled by the seed so that no two documents
are byte-identical. Chunks can still repeat across sites: documents of one
kind have equal length, so two sites that shuffle the same paragraphs into
the same places share those chunk windows. About one retrieved fragment in
a hundred is such a repeat, which the prompt builder collapses; the trace
reports it as ``fusion.fragments_kept_ratio``. Every site brings the fixture's three questions,
prefixed with the site, and its own fact keys (``s007.electricity_use``),
truths and factor rows. The true footprint is ``sites * 10802.5``, which is
exact in binary floating point.

A seed-fixed share of the canned answers (``BARE_SHARE``) is bare JSON in
prose instead of a fenced block, so both answer-parser paths run.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

PLANT_FILE = Path(__file__).with_name("plant.json")
BARE_SHARE = 0.2

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"
_TOKEN_RE = re.compile(r"[^\W_]+")


@dataclass(frozen=True)
class Question:
    query_id: str
    text: str
    facts: tuple[dict, ...]  # expected facts: key, value, unit, sources
    answer: str  # canned model answer
    bare: bool  # answer is bare JSON in prose, not a fenced block

    @property
    def fact_keys(self) -> list[str]:
        return [f["key"] for f in self.facts]


@dataclass(frozen=True)
class Corpus:
    seed: int
    sites: tuple[str, ...]
    documents: tuple[tuple[str, str, str], ...]  # (doc_id, title, body)
    questions: tuple[Question, ...]
    truths: tuple[dict, ...]
    factor_rows: tuple[dict, ...]
    industry: str
    functional_unit: str
    true_footprint: float

    def properties(self) -> dict:
        tokens = set()
        for _, _, body in self.documents:
            tokens.update(_TOKEN_RE.findall(body.lower()))
        bare = sum(q.bare for q in self.questions)
        return {
            "seed": self.seed,
            "sites": len(self.sites),
            "documents": len(self.documents),
            "chars": sum(len(body) for _, _, body in self.documents),
            "distinct_tokens": len(tokens),
            "questions": len(self.questions),
            "bare_answers": bare,
            "bare_share": bare / len(self.questions),
        }

    def factors_csv(self) -> str:
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(self.factor_rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.factor_rows)
        return out.getvalue()


def _plant_name(rng: random.Random, taken: set[str]) -> str:
    def word(letters: int) -> str:
        chars = [
            rng.choice(_VOWELS if i % 2 else _CONSONANTS) for i in range(letters)
        ]
        return "".join(chars).capitalize()

    while True:
        name = f"{word(6)} {word(5)}"
        if name not in taken:
            taken.add(name)
            return name


def _shuffled_body(body: str, rng: random.Random) -> str:
    title, *paragraphs = body.rstrip("\n").split("\n\n")
    rng.shuffle(paragraphs)
    return "\n\n".join([title, *paragraphs]) + "\n"


def _answer(facts: list[dict], bare: bool) -> str:
    if bare:
        return (
            "Based on the reference information provided, the extracted facts are "
            + json.dumps({"facts": facts})
            + " and every figure is per ton of product.\n"
        )
    block = json.dumps({"facts": facts}, indent=2)
    return "Based on the reference information provided:\n```json\n" + block + "\n```\n"


def make_corpus(seed: int, sites: int) -> Corpus:
    """The corpus of ``sites`` sites for ``seed``; the same seed gives the same corpus."""
    if sites < 1:
        raise ValueError(f"need at least one site, got {sites}")
    plant = json.loads(PLANT_FILE.read_text(encoding="utf-8"))
    rng = random.Random(seed)
    old_name = plant["plant_name"]
    taken: set[str] = set()
    site_ids = tuple(f"s{i:03d}" for i in range(sites))
    n_questions = sites * len(plant["queries"])
    bare_ids = set(rng.sample(range(n_questions), round(BARE_SHARE * n_questions)))

    documents, questions, truths, factor_rows = [], [], [], []
    for site in site_ids:
        name = _plant_name(rng, taken)
        for doc in plant["documents"]:
            body = _shuffled_body(doc["body"].replace(old_name, name), rng)
            documents.append(
                (f"{site}-{doc['suffix']}", doc["title"].replace(old_name, name), body)
            )
        for q in plant["queries"]:
            facts = tuple({**f, "key": f"{site}.{f['key']}"} for f in q["facts"])
            bare = len(questions) in bare_ids
            questions.append(
                Question(
                    query_id=f"{site}.{q['query_id']}",
                    text=f"{name} ({site}): {q['query_text'].replace(old_name, name)}",
                    facts=facts,
                    answer=_answer(list(facts), bare),
                    bare=bare,
                )
            )
        truths.extend({**t, "fact_key": f"{site}.{t['fact_key']}"} for t in plant["truths"])
        factor_rows.extend(
            {**row, "activity": f"{site}.{row['activity']}"} for row in plant["factors"]
        )
    return Corpus(
        seed=seed,
        sites=site_ids,
        documents=tuple(documents),
        questions=tuple(questions),
        truths=tuple(truths),
        factor_rows=tuple(factor_rows),
        industry=plant["industry"],
        functional_unit=plant["functional_unit"],
        true_footprint=sites * plant["true_footprint"],
    )


def write_raw_files(corpus: Corpus, directory: Path) -> list[tuple[Path, str, str]]:
    """One text file per document; returns ``(path, doc_id, title)`` triples."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for doc_id, title, body in corpus.documents:
        path = directory / f"{doc_id}.txt"
        path.write_text(body, encoding="utf-8")
        out.append((path, doc_id, title))
    return out


def write_mock_script(corpus: Corpus, path: Path) -> None:
    """Mock script keyed by question text, as the one-shot query path looks it up."""
    path.write_text(
        json.dumps({q.text: q.answer for q in corpus.questions}, indent=1), encoding="utf-8"
    )


def write_benchmark(corpus: Corpus, directory: Path) -> Path:
    """A benchmark file plus its factor table; returns the benchmark path."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "factors.csv").write_text(corpus.factors_csv(), encoding="utf-8")
    bench = {
        "industry": corpus.industry,
        "functional_unit": corpus.functional_unit,
        "scope": "cradle_to_gate",
        "datasources": [
            {"source": "raw_text", "payload": body, "doc_id": doc_id, "title": title}
            for doc_id, title, body in corpus.documents
        ],
        "queries": [
            {"query_id": q.query_id, "query_text": q.text, "fact_keys": q.fact_keys}
            for q in corpus.questions
        ],
        "truths": list(corpus.truths),
        "true_footprint": corpus.true_footprint,
        "factor_db": "factors.csv",
    }
    path = directory / "bench.json"
    path.write_text(json.dumps(bench, indent=1), encoding="utf-8")
    return path
