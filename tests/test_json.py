"""The package's one JSON dialect: the reader refuses what is JSON but not
text, and the writer writes nothing the reader would refuse."""

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonrag._json import dump_json, lone_surrogate, parse_json, read_json, write_json
from carbonrag.errors import ConfigError, FormatError


class TestLoneSurrogates:
    @pytest.mark.parametrize(
        "data, surrogate",
        [
            (b'["x\\ud800"]', "\\ud800"),
            (b'{"a": {"b\\uDFFF": 1}}', "\\udfff"),
            (b'[[["ok", "\\udc00 after a low half"]]]', "\\udc00"),
            (b'"\\ud83d"', "\\ud83d"),  # a high half with no low half after it
            (b'{"ids": ["c\\udc00"]}', "\\udc00"),
        ],
    )
    def test_are_the_callers_error(self, data, surrogate):
        with pytest.raises(ConfigError) as err:
            parse_json(data, "config c.json", ConfigError)
        assert str(err.value) == f"config c.json holds a lone surrogate '{surrogate}', which is not text"

    @pytest.mark.parametrize(
        "data, value",
        [
            (b'"\\ud83d\\ude00"', "\U0001f600"),  # a pair is one character
            (b'"\\\\ud800"', "\\ud800"),  # an escaped backslash, then text
            ('"\U0001f600 CO₂"'.encode(), "\U0001f600 CO₂"),
        ],
    )
    def test_text_that_only_looks_like_one_is_read(self, data, value):
        assert parse_json(data, "doc", FormatError).value == value


# Pieces of a JSON string's text: plain and non-ASCII chars, \\u escapes of
# any code unit (surrogates drawn more often), a pair, an escaped backslash
# before text that reads like an escape, and raw surrogates, which strict
# UTF-8 bytes cannot hold.
_STRING_PIECES = st.one_of(
    st.sampled_from(["a", "é", "\U0001f600", "\\\\", "ud800", "\\ud83d\\ude00"]),
    st.integers(0, 0xFFFF).map("\\u{:04x}".format),
    st.integers(0xD800, 0xDFFF).map("\\u{:04X}".format),
    st.integers(0xD800, 0xDFFF).map(chr),
)


@settings(max_examples=500, deadline=None)
@given(pieces=st.lists(_STRING_PIECES, max_size=6), as_key=st.booleans())
def test_a_skipped_surrogate_search_would_have_found_none(pieces, as_key):
    """Searching every value for a lone surrogate gives the same value or error."""
    text = "".join(pieces).join(['{"', '": 0}'] if as_key else ['["', '"]'])
    data = text.encode("utf-8", "surrogatepass")
    try:
        value = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError:  # an encoded surrogate is not UTF-8
        with pytest.raises(FormatError, match="^doc is not JSON: 'utf-8' codec"):
            parse_json(data, "doc", FormatError)
        return
    surrogate = lone_surrogate(value)
    if surrogate is None:
        assert parse_json(data, "doc", FormatError).value == value
    else:
        with pytest.raises(FormatError) as err:
            parse_json(data, "doc", FormatError)
        assert str(err.value) == f"doc holds a lone surrogate {surrogate!r}, which is not text"


@pytest.mark.parametrize(
    "data, key",
    [
        (b'{"k": 5, "k": 50}', "'k'"),
        (b'[{"a": 1}, {"b": {"x": 1, "y": 2, "x": 3}}]', "'x'"),
        ('{"\\u00e9": 1, "é": 2}'.encode(), "'é'"),  # one key, escaped and not
    ],
)
def test_a_repeated_key_is_the_callers_error(data, key):
    """Plain ``json.loads`` would keep the last value and say nothing."""
    with pytest.raises(ConfigError) as err:
        parse_json(data, "config c.json", ConfigError)
    assert str(err.value) == f"config c.json is not JSON: duplicate key {key}"


class TestWriteJson:
    def test_writes_what_the_reader_reads_in_dict_order(self, tmp_path):
        path = tmp_path / "out.json"
        obj = {"z": [1, 2.5, None], "a": {"CO₂": "électricité \U0001f600"}, "m": True}
        write_json(path, "report", obj)
        text = path.read_text(encoding="utf-8")
        assert text.startswith('{\n  "z": [\n    1,') and text.endswith("}\n")
        assert "CO₂" in text  # written as itself, not as an escape
        assert list(read_json(path, "report", FormatError).value) == ["z", "a", "m"]
        assert read_json(path, "report", FormatError).value == obj

    @pytest.mark.parametrize(
        "obj, reason",
        [
            ({"id_pct": float("nan")}, "Out of range float values are not JSON compliant"),
            ([1.0, float("inf")], "Out of range float values are not JSON compliant"),
            ({"endpoint": "\ud800"}, "surrogates not allowed"),
            ({"\udcff": 1}, "surrogates not allowed"),
        ],
        ids=["nan", "inf", "surrogate value", "surrogate key"],
    )
    def test_refuses_what_the_reader_would_refuse(self, tmp_path, obj, reason):
        path = tmp_path / "out.json"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(FormatError, match=reason) as err:
            write_json(path, "report", obj)
        assert err.value.stage == "save"
        assert str(err.value).startswith(f"cannot write report {path}: ")
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class _Unit(str, enum.Enum):
    TONNE = "t"
    CO2E = "kgCO₂e"


# Every ASCII char but DEL, which includes the quote and the backslash.
_ASCII = "".join(map(chr, range(0x7F)))
_NOT_PLAIN = ["\x7f", "é", "₂", "\U0001f600", _Unit.TONNE, _Unit.CO2E, ("t", 1)]


def _values(strings, *, tuples: bool = False):
    """Nested lists and dicts, and tuples if asked, whose keys and strings
    are drawn from ``strings``."""
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False)
        | strings
    )

    def containers(children):
        lists = st.lists(children, max_size=4)
        options = lists | st.dictionaries(strings, children, max_size=4)
        return options | lists.map(tuple) if tuples else options

    return st.recursive(scalars, containers, max_leaves=16)


_PLAIN_VALUES = _values(st.text(_ASCII, max_size=12))
_ANY_VALUES = _values(
    st.text(_ASCII + "\x7fé₂\U0001f600", max_size=12) | st.sampled_from(_Unit), tuples=True
)


def _oracle(value, indent):
    text = json.dumps(value, ensure_ascii=False, allow_nan=False, indent=indent)
    return text if indent is None else text + "\n"


class TestDumpJson:
    """``dump_json`` writes what ``json.dumps(ensure_ascii=False)`` writes, for
    plain ASCII values and for values with non-ASCII text, DEL, enums or tuples."""

    @settings(max_examples=300, deadline=None)
    @given(value=_PLAIN_VALUES, indent=st.sampled_from([2, None]))
    def test_plain_ascii_values_match_the_non_ascii_escaper(self, value, indent):
        assert dump_json(value, indent=indent) == _oracle(value, indent)

    @settings(max_examples=300, deadline=None)
    @given(
        value=_ANY_VALUES,
        odd=st.sampled_from(_NOT_PLAIN),
        at_key=st.booleans(),
        indent=st.sampled_from([2, None]),
    )
    def test_any_other_value_matches_it_too(self, value, odd, at_key, indent):
        if at_key and not isinstance(odd, tuple):
            value = {odd: value}
        else:
            value = [value, odd]
        assert dump_json(value, indent=indent) == _oracle(value, indent)

    def test_del_is_written_as_itself(self):
        assert dump_json(["a\x7fb"], indent=None) == '["a\x7fb"]'
