"""Any input to a reader ends in a valid object or a staged error.

Each reader of outside input is fed generated JSON values, text and bytes,
and valid documents with one value, at any depth, replaced or removed. The
run is derandomized, so every CI run tries the same examples.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fixtures
from carbonrag import (
    CarbonRagError,
    Catalog,
    LexicalEncoder,
    RemoteEncoder,
    RunConfig,
    ScriptedMockBackend,
    VectorIndex,
    parse_extraction,
)
from carbonrag.accounting import EmissionFactorDb, FACTOR_CSV_HEADER
from carbonrag.cli import _parse_fact_entries, _read_training_pairs
from carbonrag.embedding import DualTowerEncoder, load_encoder
from carbonrag.evaluation import Benchmark, MetricsReport, load_benchmark
from carbonrag.quantity import Quantity

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated(draw, valid):
    """``valid`` with one value, at any depth, replaced by any JSON value or removed."""
    doc = copy.deepcopy(draw(st.sampled_from(valid)))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    if parent is None:
        return draw(_JSON)
    if draw(st.booleans()):
        parent[key] = draw(_JSON)
    else:
        del parent[key]
    return doc


def _values(*valid):
    return st.one_of(st.sampled_from(valid), _mutated(valid), _JSON)


def _files(*valid):
    """Bytes of a JSON file: valid, mutated, any value, any text or bytes."""
    return st.one_of(
        _values(*valid).map(lambda v: json.dumps(v).encode()),
        st.text().map(str.encode),
        st.binary(),
    )


_FACT = {"key": "electricity_use", "value": {"lower": 1, "upper": 2}, "unit": "kWh"}
_REPORT = {
    "industry": "steel",
    "irr_pct": 50.0,
    "id_pct": None,
    "ad": {"at_lower_pct": -1.0, "at_upper_pct": 2.0, "ad_pct": 2.0},
    "retrieved_count": 1,
    "truth_count": 2,
    "per_fact": [
        {
            "fact_key": "electricity_use",
            "retrieved": True,
            "deviation_pct": 1.5,
            "true_value": 10.0,
            "true_unit": "kWh",
            "extracted_value": {"lower": 1.0, "upper": 2.0},
            "extracted_unit": "kWh",
        }
    ],
    "footprint": {
        "total_kgco2e": 3.0,
        "functional_unit": "1 t",
        "scope": "cradle_to_gate",
        "per_item": [
            {
                "activity": "electricity_use",
                "contribution_kgco2e": {"lower": 1.0, "upper": 3.0},
                "lifecycle_stage": "raw_material",
            }
        ],
    },
    "true_footprint": 3.0,
    "warnings": ["q1: missing_fact"],
    "metadata": {"k": 5},
    "generated_at": "",
}
_MANIFEST = {"format": "carbonrag-index", "version": 1, "ids": ["d:00000000-00000005"]}


def _load_index(path, data):
    """An archive holding ``data`` as its manifest text when ``data`` is a
    string; ``data`` itself as the file when it is bytes."""
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        with open(path, "wb") as fh:
            np.savez(fh, matrix=np.array([[1.0, 0.0]]), manifest=np.array(data))
    return VectorIndex.load(path)


def _load_report(path, data):
    path.write_bytes(data)
    report = MetricsReport.load(path)
    report.summary_text()
    return report


def _from_file(loader):
    def run(path, data):
        path.write_bytes(data)
        return loader(path)

    return run


def _csv_text(rows):
    return "\n".join([",".join(FACTOR_CSV_HEADER), *(",".join(row) for row in rows)]).encode()


# name -> (inputs, run(path, input), the type of a valid result)
_READERS = {
    "catalog": (
        _files([{"doc_id": "a", "title": "t", "source": "raw_text", "body": "", "fetched_at": ""}]),
        _from_file(Catalog.load),
        Catalog,
    ),
    "index": (
        st.one_of(_values(_MANIFEST).map(json.dumps), st.text(), st.binary()),
        _load_index,
        VectorIndex,
    ),
    "encoder": (
        _files(
            {"kind": "lexical_baseline", "dims": 8, "seed": 0},
            {"kind": "toy_dual_tower", "dims": 2, "seed": 0, "matrix": [[1, 0.5], [0, 2]]},
            {"kind": "remote", "endpoint": "http://localhost:9/embed", "dims": 4},
        ),
        _from_file(load_encoder),
        (LexicalEncoder, DualTowerEncoder, RemoteEncoder),
    ),
    "config": (
        _files({"encoder": "lexical", "k": 3, "chunk_size": 400, "overlap": 5, "backend": None}),
        _from_file(RunConfig.from_file),
        RunConfig,
    ),
    "benchmark": (_files(fixtures.benchmark_obj()), _from_file(load_benchmark), Benchmark),
    "report": (_files(_REPORT), _load_report, MetricsReport),
    "mock script": (
        _files({"q": "answer"}),
        _from_file(ScriptedMockBackend.from_file),
        ScriptedMockBackend,
    ),
    "facts": (
        _files({"facts": [_FACT]}, [{**_FACT, "activity": "x"}]),
        _from_file(_parse_fact_entries),
        list,
    ),
    "training pairs": (
        _files([{"text_a": "a", "text_b": "b", "related": True}]),
        _from_file(_read_training_pairs),
        list,
    ),
    "factor csv": (
        st.one_of(
            st.lists(st.lists(st.text(max_size=6), max_size=5), max_size=3).map(_csv_text),
            st.text().map(str.encode),
            st.binary(),
        ),
        _from_file(EmissionFactorDb.from_csv),
        EmissionFactorDb,
    ),
    "answer text": (
        st.one_of(
            st.text(),
            _values({"facts": [_FACT]}).map(lambda v: f"Answer: ```json\n{json.dumps(v)}\n``` {{"),
        ),
        lambda _, text: parse_extraction(text, ["electricity_use"]),
        tuple,
    ),
    "quantity": (
        _values(1.5, {"lower": 1, "upper": 2}),
        lambda _, value: Quantity.from_json_value(value),
        Quantity,
    ),
    "run config fields": (
        st.dictionaries(st.sampled_from(RunConfig.field_names()), _JSON, max_size=4),
        lambda _, fields: RunConfig(**fields),
        RunConfig,
    ),
}


@pytest.fixture(scope="module")
def work_file(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "input.json"


@pytest.mark.parametrize("name", list(_READERS))
@settings(
    derandomize=True,
    database=None,
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_input_gives_a_valid_object_or_a_staged_error(name, data, work_file):
    inputs, run, kind = _READERS[name]
    value = data.draw(inputs)
    try:
        result = run(work_file, value)
    except CarbonRagError as exc:
        assert exc.stage_name
    except ValueError:
        # The quantity reader's contract: each caller turns it into a staged
        # error or a parse warning.
        assert name == "quantity"
    else:
        assert isinstance(result, kind)

