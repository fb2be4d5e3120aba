"""Tests for the fleet command lines.

``python -m repro.fleet`` builds the default fleet from its flags; the
catalog's fleet scenarios run through ``python -m repro.experiments.matrix``.
"""

import json

import pytest

from repro.experiments import matrix
from repro.fleet import cli

TINY_ARGS = [
    "--machines", "24", "--stages", "2", "--buckets", "2", "--samples", "8",
    "--calibration-qps", "300,900", "--calibration-duration", "0.4",
    "--calibration-warmup", "0.1",
]


class TestCli:
    def test_list_prints_fleet_catalog(self, capsys):
        assert matrix.main(["--list"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        kinds = {row[0]: row[1] for row in rows if row and row[0].startswith("fleet-")}
        assert kinds["fleet-staged-rollout"] == kinds["fleet-guardrail-breach"] == "fleet"

    def test_default_fleet_json_output(self, capsys):
        assert cli.main(TINY_ARGS + ["--out", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        stages = [row["stage"] for row in rows]
        assert stages == ["bake", "stage-1", "stage-2", "total"]
        assert rows[-1]["machines"] == 24
        assert rows[-1]["status"] == "completed"

    def test_serial_and_parallel_output_is_byte_identical(self, capsys):
        assert cli.main(TINY_ARGS + ["--out", "json", "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert cli.main(TINY_ARGS + ["--out", "json", "--workers", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_csv_output_has_header(self, capsys):
        assert cli.main(TINY_ARGS + ["--out", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("stage,fraction,buckets")
        assert len(lines) == 5  # header + bake + 2 stages + total

    def test_table_output_mentions_stages(self, capsys):
        assert cli.main(TINY_ARGS) == 0
        out = capsys.readouterr().out
        assert "stage-1" in out and "reclaimed_core_hours" in out

    def test_catalog_scenario_runs_through_matrix(self, capsys):
        assert matrix.main(["--run", "fleet-guardrail-breach", "--out", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["status"] == "halted"

    def test_unknown_scenario_exits_nonzero_with_suggestion(self, capsys):
        assert matrix.main(["--run", "fleet-guardrail-breech"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "fleet-guardrail-breach" in err

    def test_scenario_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--scenario", "fleet-guardrail-breach"])
        assert excinfo.value.code == 2
        assert "--scenario" in capsys.readouterr().err

    def test_too_few_machines_exits_cleanly(self, capsys):
        assert cli.main(["--machines", "2"]) == 2
        assert "at least three machines" in capsys.readouterr().err

    def test_zero_stages_exits_cleanly(self, capsys):
        assert cli.main(TINY_ARGS + ["--stages", "0"]) == 2
        assert "at least one stage" in capsys.readouterr().err

    def test_bad_calibration_qps_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--calibration-qps", "300,oops"])
        assert excinfo.value.code == 2
        assert "--calibration-qps" in capsys.readouterr().err


class TestFailureIsolation:
    """A fleet scenario raising mid-batch on the matrix CLI yields exit 1, an
    error table, and the completed scenarios' rows — never a bare traceback."""

    @pytest.fixture()
    def boom_scenario(self):
        from repro.experiments import matrix

        def boom_fleet(seed=7):
            raise RuntimeError("injected fleet failure")

        matrix.register(
            matrix.Scenario(
                name="boom-fleet",
                description="always raises, for failure-isolation tests",
                builder=boom_fleet,
                kind="fleet",
            )
        )
        yield "boom-fleet"
        matrix._REGISTRY.pop("boom-fleet", None)

    def test_partial_results_flushed_with_error_table(self, boom_scenario, capsys):
        code = matrix.main(["--run", f"{boom_scenario},fleet-guardrail-breach"])
        assert code == 1
        out = capsys.readouterr().out
        assert "halted" in out  # the healthy scenario still ran and printed
        assert "1 of 2 scenarios failed" in out
        assert "RuntimeError: injected fleet failure" in out

    def test_unknown_name_still_rejected_before_running(self, boom_scenario, capsys):
        # Caller mistakes keep their pre-run exit-2 contract even in a batch.
        assert matrix.main(["--run", f"{boom_scenario},no-such-fleet"]) == 2
