"""The shared CLI contract and the ``python -m repro.reporting`` entry point."""

import json
from pathlib import Path

import pytest

import repro.reporting as reporting
from repro.cli import (
    EXIT_FAILURES,
    EXIT_OK,
    EXIT_USAGE,
    parse_grid,
    resolve_output,
)
from repro.errors import ConfigError
from repro.experiments import matrix
from repro.fleet import cli as fleet_cli
from repro.reporting.bundle import load_bundle

FAST_ARGS = ["--duration", "0.3", "--warmup", "0.1"]
CAMPAIGN_ARGS = (
    ["--scenario", "no-isolation", "--seeds", "2", "--grid", "bully_threads=24"]
    + FAST_ARGS
)


class TestResolveOutput:
    def test_stdout_defaults_to_table(self):
        assert resolve_output(None, None) == ("table", None)

    def test_legacy_format_keyword_goes_to_stdout(self):
        assert resolve_output("json", None) == ("json", None)
        assert resolve_output("jsonl", None) == ("jsonl", None)

    def test_path_infers_format_from_extension(self):
        assert resolve_output("out/rows.csv", None) == ("csv", Path("out/rows.csv"))
        assert resolve_output("r.jsonl", None) == ("jsonl", Path("r.jsonl"))

    def test_explicit_format_overrides_extension(self):
        assert resolve_output("rows.dat", "json") == ("json", Path("rows.dat"))

    def test_conflicting_keyword_and_format_rejected(self):
        with pytest.raises(ConfigError, match="conflicts"):
            resolve_output("json", "csv")

    def test_uninferable_extension_rejected(self):
        with pytest.raises(ConfigError, match="cannot infer"):
            resolve_output("rows.dat", None)

    def test_matching_keyword_and_format_accepted(self):
        assert resolve_output("csv", "csv") == ("csv", None)


class TestParseGrid:
    def test_values_are_parsed_as_numbers(self):
        assert parse_grid(["a=1,2.5,x"]) == {"a": (1, 2.5, "x")}

    def test_malformed_entry_rejected(self):
        with pytest.raises(ConfigError, match="--grid"):
            parse_grid(["oops"])


class TestCampaignCli:
    def test_campaign_emits_validated_bundle(self, tmp_path, capsys):
        bundle_dir = tmp_path / "bundle"
        code = reporting.main(CAMPAIGN_ARGS + ["--bundle", str(bundle_dir)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "2 of 2 replicates" in out
        bundle = load_bundle(bundle_dir)
        assert bundle.kind == "campaign"
        assert len(bundle.manifest["seeds"]) == 2
        assert bundle.summary, "campaign bundles carry the aggregated CI table"

    def test_campaign_summary_to_file_with_format_inference(self, tmp_path, capsys):
        out_path = tmp_path / "summary.csv"
        code = reporting.main(
            CAMPAIGN_ARGS
            + ["--bundle", str(tmp_path / "b"), "--out", str(out_path)]
        )
        assert code == EXIT_OK
        header = out_path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "scenario,label,metric,n,mean,stddev,ci95,ci95_lo,ci95_hi"

    def test_campaign_is_worker_invariant(self, tmp_path, capsys):
        for workers, name in (("1", "serial"), ("4", "parallel")):
            code = reporting.main(
                CAMPAIGN_ARGS
                + ["--bundle", str(tmp_path / name), "--workers", workers]
            )
            assert code == EXIT_OK
        capsys.readouterr()
        for name in ("manifest.json", "rows.json", "summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes()

    def test_unknown_scenario_is_a_usage_error(self, tmp_path, capsys):
        code = reporting.main(
            ["--scenario", "nope", "--bundle", str(tmp_path / "b")]
        )
        assert code == EXIT_USAGE
        assert "unknown scenario" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_repeated_grid_value_is_a_usage_error(self, tmp_path, capsys):
        code = reporting.main(
            ["--scenario", "no-isolation", "--seeds", "2", "--grid", "bully_threads=24,24",
             "--bundle", str(tmp_path / "b")] + FAST_ARGS
        )
        assert code == EXIT_USAGE
        assert "repeats a value" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_fig8_campaign_bundle_validates(self, tmp_path, capsys):
        bundle_dir = tmp_path / "fig8"
        code = reporting.main(
            ["--scenario", "fig8", "--seeds", "2", "--qps", "600", "--duration", "0.5",
             "--warmup", "0.1", "--workers", "2", "--bundle", str(bundle_dir)]
        )
        assert code == EXIT_OK
        assert "2 of 2 replicates x 5 variants" in capsys.readouterr().out
        assert reporting.main(["--validate", str(bundle_dir)]) == EXIT_OK
        assert "kind=campaign name=fig8" in capsys.readouterr().out

    def test_validate_action(self, tmp_path, capsys):
        bundle_dir = tmp_path / "bundle"
        assert reporting.main(CAMPAIGN_ARGS + ["--bundle", str(bundle_dir)]) == EXIT_OK
        capsys.readouterr()
        assert reporting.main(["--validate", str(bundle_dir)]) == EXIT_OK
        assert "kind=campaign" in capsys.readouterr().out

    def test_validate_rejects_tampered_bundle(self, tmp_path, capsys):
        bundle_dir = tmp_path / "bundle"
        assert reporting.main(CAMPAIGN_ARGS + ["--bundle", str(bundle_dir)]) == EXIT_OK
        rows = bundle_dir / "rows.json"
        rows.write_bytes(rows.read_bytes()[:-2])
        assert reporting.main(["--validate", str(bundle_dir)]) == EXIT_USAGE
        assert "mismatch" in capsys.readouterr().err

    def test_trajectory_action(self, tmp_path, capsys):
        assert (
            reporting.main(CAMPAIGN_ARGS + ["--bundle", str(tmp_path / "b")])
            == EXIT_OK
        )
        capsys.readouterr()
        code = reporting.main(["--trajectory", str(tmp_path), "--out", "json"])
        assert code == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)
        assert row["kind"] == "campaign" and row["name"] == "no-isolation"


class TestBundleFlagOnRunCli:
    def test_matrix_bundle_matches_stdout_rows(self, tmp_path, capsys):
        bundle_dir = tmp_path / "bundle"
        code = matrix.main(
            ["--run", "no-isolation", "--grid", "bully_threads=24", "--qps", "500",
             "--duration", "0.3", "--warmup", "0.1", "--seed", "5",
             "--out", "json", "--bundle", str(bundle_dir)]
        )
        assert code == EXIT_OK
        stdout_rows = json.loads(capsys.readouterr().out)
        bundle = load_bundle(bundle_dir)
        assert bundle.kind == "matrix"
        assert bundle.rows == stdout_rows
        assert len(bundle.manifest["spec_hashes"]) == 1

    def test_matrix_out_path_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "rows.jsonl"
        code = matrix.main(
            ["--run", "no-isolation", "--grid", "bully_threads=24", "--qps", "500",
             "--duration", "0.3", "--warmup", "0.1", "--seed", "5",
             "--out", str(out_path)]
        )
        assert code == EXIT_OK
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["bully_threads"] == 24

    def test_matrix_conflicting_out_and_format_is_usage_error(self, capsys):
        code = matrix.main(
            ["--run", "no-isolation", "--out", "json", "--format", "csv"]
        )
        assert code == EXIT_USAGE

    def test_fleet_bundle_validates(self, tmp_path, capsys):
        bundle_dir = tmp_path / "bundle"
        code = fleet_cli.main(
            ["--machines", "120", "--stages", "2", "--out", "json",
             "--bundle", str(bundle_dir)]
        )
        assert code == EXIT_OK
        bundle = load_bundle(bundle_dir)
        assert bundle.kind == "fleet"
        assert bundle.manifest["seeds"] == [7]
        assert bundle.rows[-1]["stage"] == "total"

    def test_exit_code_constants_are_the_documented_contract(self):
        assert (EXIT_OK, EXIT_FAILURES, EXIT_USAGE) == (0, 1, 2)
