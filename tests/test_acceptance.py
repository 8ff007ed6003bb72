"""Acceptance checks: one test per release criterion.

Each test is independent and carries its tolerances inline; the terminal
summary prints one PASS/FAIL line per criterion (see conftest).
"""

import json
import time

import numpy as np
import pytest

import fixtures
from carbonrag import (
    AccountingError,
    Catalog,
    Document,
    EmissionFactor,
    EmissionFactorDb,
    GroundTruthRecord,
    InventoryItem,
    LexicalEncoder,
    LifecycleStage,
    Quantity,
    RunConfig,
    Scope,
    ScriptedMockBackend,
    SourceKind,
    TrainingPair,
    VectorIndex,
    build_index,
    compute_ad,
    compute_footprint,
    compute_id,
    compute_irr,
    cosine_similarity,
    fact_deviation,
    run_benchmark,
    segment,
    train_dual_tower,
)
from carbonrag.generation import ExtractedFact


def test_retrieval_oracle_equivalence():
    """Top-K equals brute-force full sort on 1,000 vectors, 100 queries, < 5 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    dims, n, k = 64, 1000, 10

    vectors = {f"c:{i:04d}": rng.normal(size=dims) for i in range(n)}

    # Independent oracle: normalize, score with a plain dot product, full
    # sort by (similarity descending, chunk id ascending), truncate.
    unit = {cid: v / np.linalg.norm(v) for cid, v in vectors.items()}
    index = VectorIndex(list(unit), np.stack(list(unit.values())))
    for _ in range(100):
        q = rng.normal(size=dims)
        q_hat = q / np.linalg.norm(q)
        scored = sorted(
            ((float(np.dot(v, q_hat)), cid) for cid, v in unit.items()),
            key=lambda pair: (-pair[0], pair[1]),
        )
        expected = [cid for _, cid in scored[:k]]
        hits = index.top_k(q, k=k)
        assert [h.chunk_id for h in hits] == expected
        assert [h.rank for h in hits] == list(range(1, k + 1))
        for hit, (sim, _) in zip(hits, scored):
            assert hit.similarity == pytest.approx(sim, abs=1e-12)

    # Constructed ties: identical vectors must rank by ascending chunk id.
    near = np.array([1.0, 0.0, 0.0, 0.0])
    far = np.array([0.0, 1.0, 0.0, 0.0])
    tie_index = VectorIndex(
        ["t:04", "t:01", "t:03", "t:00", "t:02", "u:01", "u:00"], [near] * 5 + [far] * 2
    )
    ids = [h.chunk_id for h in tie_index.top_k(np.array([2.0, 1.0, 0.0, 0.0]), k=7)]
    assert ids == ["t:00", "t:01", "t:02", "t:03", "t:04", "u:00", "u:01"]

    assert time.perf_counter() - started < 5.0


def test_metric_hand_checks():
    """IRR, ID, range deviation, and AD against worked examples (0.005 pp)."""
    truth_keys = [f"fact_{i}" for i in range(56)]
    assert compute_irr(truth_keys[:47], truth_keys) == pytest.approx(83.93, abs=0.005)

    facts = [
        ExtractedFact("a", Quantity.point(110.0), "kWh"),
        ExtractedFact("b", Quantity.point(105.0), "kWh"),
    ]
    truths = [
        GroundTruthRecord("a", 100.0, "kWh"),
        GroundTruthRecord("b", 100.0, "kWh"),
    ]
    assert compute_id(facts, truths) == pytest.approx(7.5, abs=0.005)

    ranged = ExtractedFact("a", Quantity.range(90.0, 130.0), "kWh")
    assert fact_deviation(ranged, truths[0]) == pytest.approx(30.0, abs=0.005)

    ad = compute_ad(Quantity.range(95.0, 110.0), 100.0)
    assert ad.at_lower_pct == pytest.approx(-5.0, abs=0.005)
    assert ad.at_upper_pct == pytest.approx(10.0, abs=0.005)
    assert ad.ad_pct == pytest.approx(10.0, abs=0.005)


def test_end_to_end_fixture(tmp_path):
    """Perfect and perturbed mock runs over the deterministic corpus."""
    tree = fixtures.write_benchmark_tree(tmp_path)
    config = RunConfig(benchmark_path=str(tree.benchmark))

    perfect = run_benchmark(config, backend=ScriptedMockBackend(fixtures.PERFECT_SCRIPT))
    assert perfect.metadata["document_count"] >= 3
    assert perfect.metadata["chunk_count"] >= 30
    assert perfect.truth_count == 10
    assert perfect.irr_pct == 100.0
    assert perfect.id_pct == 0.0
    assert perfect.ad.ad_pct == 0.0

    variant = run_benchmark(config, backend=ScriptedMockBackend(fixtures.VARIANT_SCRIPT))
    assert variant.irr_pct == pytest.approx(90.0, abs=0.005)
    assert variant.id_pct == pytest.approx(10.0 / 9.0, abs=0.005)
    # The perturbed inventory shifts only natural gas: (660 - 600) kWh * 0.25.
    expected_ad = 100.0 * ((660.0 - 600.0) * 0.25) / fixtures.TRUE_FOOTPRINT
    assert variant.ad.ad_pct == pytest.approx(expected_ad, rel=1e-9)
    assert variant.ad.at_lower_pct == pytest.approx(expected_ad, rel=1e-9)
    assert variant.ad.at_upper_pct == pytest.approx(expected_ad, rel=1e-9)

    def canonical(report):
        obj = json.loads(report.to_json_text())
        del obj["generated_at"]
        return json.dumps(obj, sort_keys=True).encode("utf-8")

    rerun = run_benchmark(config, backend=ScriptedMockBackend(fixtures.PERFECT_SCRIPT))
    assert canonical(perfect) == canonical(rerun)


_RELATED = [
    ("electricity intensity of aluminum electrolysis", "potline power use per ton of aluminum"),
    ("prebaked anode carbon consumption", "net anode carbon used in the cells"),
    ("smelter grade alumina feed quality", "alumina purity delivered to the silos"),
    ("natural gas burned in the casthouse", "casthouse furnace gas demand"),
    ("rail freight distance for raw materials", "inbound rail transport kilometers"),
    ("cryolite bath ratio target", "bath chemistry ratio in the cells"),
    ("current efficiency of the potlines", "potline current efficiency percentage"),
    ("aluminium fluoride addition rate", "fluoride salt consumption in the bath"),
    ("smelting temperature of the electrolyte", "operating temperature of the molten bath"),
    ("grid emission factor for electricity", "carbon factor of grid electricity supply"),
]

_UNRELATED = [
    ("electricity intensity of aluminum electrolysis", "port silo stockpile inventory weeks"),
    ("prebaked anode carbon consumption", "rail wagon cycle time hours"),
    ("alumina purity delivered to the silos", "casthouse furnace gas demand"),
    ("natural gas burned in the casthouse", "fluoride salt consumption in the bath"),
    ("inbound rail transport kilometers", "potline current efficiency percentage"),
    ("cryolite bath ratio target", "grid emission factor for electricity"),
    ("smelting temperature of the electrolyte", "weighbridge production records"),
    ("carbon factor of grid electricity supply", "anode baking furnace packing coke"),
    ("bath chemistry ratio in the cells", "ship unloader berth schedule"),
    ("operating temperature of the molten bath", "dross tolling contract returns"),
]


def test_dual_tower_separation():
    """20 contrastive pairs, dims 32, 50 epochs, margin 0.2."""
    pairs = [TrainingPair(a, b, True) for a, b in _RELATED] + [
        TrainingPair(a, b, False) for a, b in _UNRELATED
    ]
    assert len(pairs) == 20

    result = train_dual_tower(pairs, dims=32, epochs=50, margin=0.2, seed=0)
    assert result.final_loss <= result.initial_loss

    enc = result.encoder
    related = [cosine_similarity(enc.embed(a), enc.embed(b)) for a, b in _RELATED]
    unrelated = [cosine_similarity(enc.embed(a), enc.embed(b)) for a, b in _UNRELATED]
    separation = float(np.mean(related)) - float(np.mean(unrelated))
    assert separation >= 0.2

    # Zero epochs must return the untouched initialization.
    untrained = train_dual_tower(pairs, dims=32, epochs=0, margin=0.2, seed=7)
    feature_dims = untrained.encoder.feature_dims
    expected = np.random.default_rng(7).normal(
        0.0, 1.0 / np.sqrt(feature_dims), size=(32, feature_dims)
    )
    np.testing.assert_array_equal(untrained.encoder.matrix, expected)


_UNITS_BY_DIMENSION = {
    "energy": ["kWh", "MWh", "GJ"],
    "mass": ["kg", "t", "g"],
    "volume": ["L", "m3"],
    "distance": ["km"],
    "count": ["piece"],
}

_PROPERTY_FACTORS = [
    ("electricity", 0.4416, "kWh"),
    ("steam", 0.07, "kWh"),
    ("diesel", 2.68, "L"),
    ("water", 0.000344, "m3"),
    ("steel", 1.85, "kg"),
    ("cement", 0.9, "t"),
    ("plastic", 2.5, "kg"),
    ("freight", 0.062, "km"),
    ("packaging", 0.3, "piece"),
    ("solvent", 1.1, "L"),
]


def _dimension_of(unit):
    for dimension, units in _UNITS_BY_DIMENSION.items():
        if unit in units:
            return dimension
    raise AssertionError(unit)


def _random_inventory(rng):
    count = int(rng.integers(1, 7))
    chosen = rng.choice(len(_PROPERTY_FACTORS), size=count, replace=False)
    items = []
    for idx in chosen:
        activity, _, canonical_unit = _PROPERTY_FACTORS[int(idx)]
        unit = str(rng.choice(_UNITS_BY_DIMENSION[_dimension_of(canonical_unit)]))
        value = float(rng.uniform(0.1, 100.0))
        if rng.random() < 0.5:
            quantity = Quantity.point(value)
        else:
            quantity = Quantity.range(value, value * float(rng.uniform(1.0, 1.5)))
        stage = [
            LifecycleStage.RAW_MATERIAL,
            LifecycleStage.MANUFACTURING,
            LifecycleStage.DISTRIBUTION,
        ][int(rng.integers(0, 3))]
        items.append(InventoryItem(activity, quantity, unit, stage))
    return items


def _close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def test_accounting_properties():
    """Additivity, homogeneity, interval soundness, abort-on-missing (200 runs)."""
    db = EmissionFactorDb(
        EmissionFactor(activity, factor, unit)
        for activity, factor, unit in _PROPERTY_FACTORS
    )
    rng = np.random.default_rng(202)

    for trial in range(200):
        items = _random_inventory(rng)

        # Additivity: computing two halves separately sums to the whole.
        split = int(rng.integers(0, len(items) + 1))
        whole = compute_footprint(items, db).total
        parts = compute_footprint(items[:split], db).total + compute_footprint(items[split:], db).total
        assert _close(whole.lower, parts.lower)
        assert _close(whole.upper, parts.upper)

        # Homogeneity: scaling every quantity scales the total linearly.
        alpha = float(rng.uniform(0.1, 10.0))
        scaled = [
            InventoryItem(i.activity, i.quantity.scale(alpha), i.unit, i.lifecycle_stage)
            for i in items
        ]
        scaled_total = compute_footprint(scaled, db).total
        assert _close(scaled_total.lower, alpha * whole.lower)
        assert _close(scaled_total.upper, alpha * whole.upper)

        # Interval soundness: midpoints inside their ranges stay inside.
        midpoints = [
            InventoryItem(
                i.activity,
                Quantity.point((i.quantity.lower + i.quantity.upper) / 2.0),
                i.unit,
                i.lifecycle_stage,
            )
            for i in items
        ]
        mid_total = compute_footprint(midpoints, db).total
        slack = 1e-9 * max(1.0, abs(whole.upper))
        assert whole.lower - slack <= mid_total.lower
        assert mid_total.upper <= whole.upper + slack

        # Abort-on-missing: one unpriced activity fails the whole run.
        if trial % 10 == 0:
            poisoned = items + [
                InventoryItem("unpriced_activity", Quantity.point(1.0), "kg")
            ]
            with pytest.raises(AccountingError) as err:
                compute_footprint(poisoned, db)
            assert "unpriced_activity" in err.value.missing_activities


def test_chunking_coverage():
    """Random documents: full coverage and offset-exact chunk texts (100 runs)."""
    rng = np.random.default_rng(303)
    alphabet = list("abcdefghijklmnopqrstuvwxyz \n")
    for _ in range(100):
        n = int(rng.integers(1, 5000))
        body = "".join(rng.choice(alphabet, size=n))
        doc = Document("d1", "t", SourceKind.RAW_TEXT, body, "2026-01-01T00:00:00+00:00")
        chunk_size = int(rng.integers(2, 1200))
        overlap = int(rng.integers(0, chunk_size))

        chunks = segment(doc, chunk_size, overlap)
        covered = np.zeros(n, dtype=bool)
        for chunk in chunks:
            assert chunk.text == body[chunk.start_offset : chunk.end_offset]
            covered[chunk.start_offset : chunk.end_offset] = True
        assert covered.all()


def test_cosine_properties():
    """Symmetry, range, and positive-scale invariance (1,000 pairs, 1e-9)."""
    rng = np.random.default_rng(404)
    for _ in range(1000):
        dims = int(rng.integers(2, 65))
        a = rng.normal(size=dims)
        b = rng.normal(size=dims)
        s = cosine_similarity(a, b)
        assert -1.0 <= s <= 1.0
        assert abs(s - cosine_similarity(b, a)) <= 1e-9
        alpha = float(rng.uniform(0.01, 100.0))
        beta = float(rng.uniform(0.01, 100.0))
        assert abs(cosine_similarity(alpha * a, beta * b) - s) <= 1e-9


_PERSISTENCE_QUERIES = [
    "electricity use per ton of aluminum",
    "natural gas in the casthouse",
    "alumina consumption and purity",
    "anode carbon per cell",
    "fluoride addition to the bath",
    "transport distance by rail",
    "smelting temperature target",
    "current efficiency of the potlines",
    "bath ratio discipline",
    "emission factor sourcing",
    "grid average supply factor",
    "weighbridge production denominator",
    "dry scrubber fluoride recovery",
    "anode baking furnace",
    "port silo stockpile",
    "demand response curtailment",
    "calibration of current transducers",
    "packing coke consumption",
    "dross recovery loop",
    "verification engagement scope",
]


def test_persistence_round_trips(tmp_path, aluminum_catalog):
    """Catalog and index reloads preserve every top-K answer (20 queries)."""
    assert len(_PERSISTENCE_QUERIES) == 20
    encoder = LexicalEncoder()
    chunks = aluminum_catalog.chunk_all(1000, 200)
    index = build_index(chunks, encoder)

    catalog_path = tmp_path / "catalog.json"
    index_path = tmp_path / "index.json"
    aluminum_catalog.save(catalog_path)
    index.save(index_path)

    loaded_catalog = Catalog.load(catalog_path)
    loaded_index = VectorIndex.load(index_path)
    rebuilt_index = build_index(loaded_catalog.chunk_all(1000, 200), encoder)

    for query in _PERSISTENCE_QUERIES:
        q = encoder.embed(query)
        before = index.top_k(q, k=10)
        assert loaded_index.top_k(q, k=10) == before
        assert rebuilt_index.top_k(q, k=10) == before
        for hit in before:
            chunk = loaded_catalog.resolve_chunk(hit.chunk_id)
            assert chunk.text == aluminum_catalog.resolve_chunk(hit.chunk_id).text
