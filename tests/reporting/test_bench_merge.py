"""Merge-update semantics of the BENCH records (``merge_bench_record``)."""

import json

from repro.reporting.bench import merge_bench_record


def _write(path, record):
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def _read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_owned_key_missing_from_the_update_is_dropped(tmp_path):
    # A note written only when cpu_count == 1 must not outlive the
    # single-CPU host it described, while a key another recorder owns
    # (``hyperscale_machines``) survives the same merge.
    target = tmp_path / "BENCH_custom.json"
    _write(
        target,
        {"cpu_count": 1, "note": "cpu_count is 1", "hyperscale_machines": 50000},
    )
    merged = merge_bench_record(target, {"cpu_count": 2}, owned=("cpu_count", "note"))
    assert merged == {"cpu_count": 2, "hyperscale_machines": 50000}
    assert _read(target) == merged
