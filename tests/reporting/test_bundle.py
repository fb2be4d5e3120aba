"""Bundle writer/loader: byte identity, digests, schema-skew refusal."""

import json

import pytest

from repro.errors import ReportingError
from repro.reporting.bundle import (
    BUNDLE_SCHEMA_VERSION,
    MANIFEST_NAME,
    load_bundle,
    validate_bundle,
    write_bundle,
)
from repro.reporting.rows import ROW_FORMATS, render_rows
from repro.runtime.spec_hash import source_digest

ROWS = [
    {"scenario": "s", "label": "s[a=1]", "a": 1, "p99_ms": 4.25},
    {"scenario": "s", "label": "s[a=2]", "a": 2, "p99_ms": 6.5},
]
SUMMARY = [{"scenario": "s", "label": "s[a=1]", "metric": "p99_ms", "mean": 4.25}]


def _write(directory, **overrides):
    kwargs = dict(
        kind="matrix",
        name="s",
        rows=ROWS,
        seeds=[1, 2],
        spec_hashes=["b" * 64, "a" * 64],
        summary=SUMMARY,
        meta={"note": "test"},
    )
    kwargs.update(overrides)
    return write_bundle(directory, **kwargs)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ROW_FORMATS)
    def test_load_and_rerender_is_byte_identical(self, tmp_path, fmt):
        directory = _write(tmp_path / "b", fmt=fmt)
        bundle = load_bundle(directory)
        on_disk = (directory / f"rows.{fmt}").read_text(encoding="utf-8")
        assert render_rows(bundle.rows, bundle.manifest["rows"]["format"]) == on_disk

    def test_repeat_writes_are_byte_identical(self, tmp_path):
        first = _write(tmp_path / "one")
        second = _write(tmp_path / "two")
        for name in ("manifest.json", "rows.json", "summary.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_loaded_payloads(self, tmp_path):
        bundle = load_bundle(_write(tmp_path / "b"))
        assert bundle.kind == "matrix"
        assert bundle.name == "s"
        assert bundle.rows == ROWS
        assert bundle.summary == SUMMARY
        assert bundle.manifest["seeds"] == [1, 2]
        # Hashes are stored sorted and deduplicated.
        assert bundle.manifest["spec_hashes"] == ["a" * 64, "b" * 64]

    def test_manifest_has_no_timestamps(self, tmp_path):
        manifest = json.loads(
            (_write(tmp_path / "b") / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        rendered = json.dumps(manifest)
        assert "time" not in rendered and "date" not in rendered

    def test_manifest_records_source_digest(self, tmp_path):
        """The manifest names the code that wrote the rows."""
        manifest = validate_bundle(_write(tmp_path / "b"))
        assert manifest["source_digest"] == source_digest()

    def test_extra_files_are_digested(self, tmp_path):
        directory = _write(tmp_path / "b", extra_files={"trace.jsonl": b"{}\n"})
        manifest = validate_bundle(directory)
        assert "trace.jsonl" in manifest["files"]


class TestValidationRefusals:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ReportingError, match="not a bundle"):
            validate_bundle(tmp_path)

    def test_version_skew_refused(self, tmp_path):
        directory = _write(tmp_path / "b")
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["schema"] = BUNDLE_SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ReportingError, match="unsupported bundle schema"):
            validate_bundle(directory)

    def test_schema_1_bundle_refused(self, tmp_path):
        """Schema 1 stamped a package version instead of the source digest;
        the version is checked before the keys, so the refusal names it."""
        directory = _write(tmp_path / "b")
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["schema"] = 1
        del manifest["source_digest"]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ReportingError, match="unsupported bundle schema 1"):
            validate_bundle(directory)

    def test_corrupted_rows_file_refused(self, tmp_path):
        directory = _write(tmp_path / "b")
        rows_path = directory / "rows.json"
        # Same length, different bytes: only the digest catches it.
        payload = bytearray(rows_path.read_bytes())
        payload[0:1] = b" "
        rows_path.write_bytes(bytes(payload))
        with pytest.raises(ReportingError, match="digest mismatch"):
            validate_bundle(directory)

    def test_truncated_file_refused(self, tmp_path):
        directory = _write(tmp_path / "b")
        rows_path = directory / "rows.json"
        rows_path.write_bytes(rows_path.read_bytes()[:-5])
        with pytest.raises(ReportingError, match="size mismatch"):
            validate_bundle(directory)

    def test_missing_payload_file_refused(self, tmp_path):
        directory = _write(tmp_path / "b")
        (directory / "summary.json").unlink()
        with pytest.raises(ReportingError, match="missing"):
            validate_bundle(directory)

    def test_missing_required_key_refused(self, tmp_path):
        directory = _write(tmp_path / "b")
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        del manifest["spec_hashes"]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ReportingError, match="spec_hashes"):
            validate_bundle(directory)

    def test_unknown_kind_refused(self, tmp_path):
        with pytest.raises(ReportingError, match="unknown bundle kind"):
            write_bundle(tmp_path / "b", kind="mystery", name="x", rows=[])

    def test_unknown_row_format_refused(self, tmp_path):
        with pytest.raises(ReportingError, match="unknown row format"):
            write_bundle(tmp_path / "b", kind="matrix", name="x", rows=[], fmt="xml")

    def test_duplicate_extra_file_name_refused(self, tmp_path):
        with pytest.raises(ReportingError, match="duplicate"):
            _write(tmp_path / "b", extra_files={"rows.json": b""})
