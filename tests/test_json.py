"""The package's one JSON reader refuses what is JSON but not text."""

import pytest

from carbonrag._json import parse_json
from carbonrag.errors import ConfigError, FormatError


class TestLoneSurrogates:
    @pytest.mark.parametrize(
        "data, surrogate",
        [
            (b'["x\\ud800"]', "\\ud800"),
            (b'{"a": {"b\\uDFFF": 1}}', "\\udfff"),
            (b'[[["ok", "\\udc00 after a low half"]]]', "\\udc00"),
            (b'"\\ud83d"', "\\ud83d"),  # a high half with no low half after it
            ('{"ids": ["c\\udc00"]}', "\\udc00"),  # a string argument, escaped
            ('["raw \ud800"]', "\\ud800"),  # a string argument that holds one itself
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
            ('"\U0001f600 CO₂"', "\U0001f600 CO₂"),
        ],
    )
    def test_text_that_only_looks_like_one_is_read(self, data, value):
        assert parse_json(data, "doc", FormatError).value == value


@pytest.mark.parametrize(
    "data, key",
    [
        (b'{"k": 5, "k": 50}', "'k'"),
        (b'[{"a": 1}, {"b": {"x": 1, "y": 2, "x": 3}}]', "'x'"),
        ('{"\\u00e9": 1, "é": 2}', "'é'"),  # one key, escaped and not
    ],
)
def test_a_repeated_key_is_the_callers_error(data, key):
    """Plain ``json.loads`` would keep the last value and say nothing."""
    with pytest.raises(ConfigError) as err:
        parse_json(data, "config c.json", ConfigError)
    assert str(err.value) == f"config c.json is not JSON: duplicate key {key}"
