"""Row rendering: round trips and byte identity."""

import json

import pytest

from repro.errors import ConfigError
from repro.reporting.rows import (
    ROW_FORMATS,
    all_columns,
    parse_rows,
    render_rows,
    rows_to_csv,
    rows_to_json,
    rows_to_jsonl,
)

ROWS = [
    {"scenario": "s", "label": "s[a=1]", "a": 1, "p99_ms": 4.25},
    {"scenario": "s", "label": "s[a=2]", "a": 2, "p99_ms": 6.5, "extra": "x"},
]


class TestRendering:
    @pytest.mark.parametrize("fmt", ROW_FORMATS)
    def test_every_format_ends_with_exactly_one_newline(self, fmt):
        text = render_rows(ROWS, fmt)
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_json_is_sorted_key_deterministic(self):
        text = rows_to_json(ROWS)
        assert json.loads(text) == [dict(row) for row in ROWS]
        assert text.index('"a"') < text.index('"label"') < text.index('"p99_ms"')

    def test_jsonl_one_compact_object_per_line(self):
        lines = rows_to_jsonl(ROWS).splitlines()
        assert len(lines) == 2
        assert all(": " not in line for line in lines)
        assert json.loads(lines[1])["extra"] == "x"

    def test_csv_header_unions_ragged_columns(self):
        header = rows_to_csv(ROWS).splitlines()[0]
        assert header == "scenario,label,a,p99_ms,extra"

    def test_all_columns_first_appearance_order(self):
        assert all_columns(ROWS) == ["scenario", "label", "a", "p99_ms", "extra"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            render_rows(ROWS, "yaml")
        with pytest.raises(ConfigError):
            parse_rows("", "yaml")


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ("json", "jsonl"))
    def test_json_formats_round_trip_values_exactly(self, fmt):
        assert parse_rows(render_rows(ROWS, fmt), fmt) == ROWS

    @pytest.mark.parametrize("fmt", ROW_FORMATS)
    def test_parse_then_rerender_is_byte_identical(self, fmt):
        text = render_rows(ROWS, fmt)
        assert render_rows(parse_rows(text, fmt), fmt) == text
