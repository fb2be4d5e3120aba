"""Tests for the scenario matrix engine and its CLI."""

import json

import pytest

from repro.cli import parse_grid
from repro.config.schema import ClusterScenario, ExperimentSpec, FleetSpec, SecondaryJobSpec
from repro.config.validation import (
    validate_cluster_scenario,
    validate_experiment,
    validate_fleet,
)
from repro.errors import ConfigError
from repro.experiments import matrix
from repro.experiments import scenarios as sc
from repro.reporting.bundle import validate_bundle
from repro.runtime import ExperimentRunner, ResultCache, spec_hash

FAST = dict(qps=500.0, duration=0.5, warmup=0.1, seed=5)


class TestCatalog:
    def test_catalog_is_large_enough(self):
        names = matrix.scenario_names()
        assert len(names) >= 20

    def test_catalog_has_multi_secondary_composites(self):
        composites = [s for s in matrix.iter_scenarios() if s.multi_secondary]
        assert len(composites) >= 3
        # Composites genuinely co-locate more than one secondary job.
        for scenario in composites:
            variant = scenario.expand(**FAST)[0]
            assert len(variant.spec.secondary_jobs()) >= 2

    def test_every_scenario_expands_to_valid_specs(self):
        kinds = {
            "experiment": (ExperimentSpec, validate_experiment),
            "cluster": (ClusterScenario, validate_cluster_scenario),
            "fleet": (FleetSpec, validate_fleet),
        }
        for scenario in matrix.iter_scenarios():
            variants = scenario.expand(**FAST)
            assert len(variants) == scenario.variant_count()
            spec_type, validate = kinds[scenario.kind]
            for variant in variants:
                assert isinstance(variant.spec, spec_type)
                validate(variant.spec)

    def test_fig9_expands_to_three_valid_cluster_specs(self):
        variants = matrix.expand("fig9", qps=500.0, duration=0.5, warmup=0.1, seed=5)
        assert [v.axis_values for v in variants] == [
            (("run", "standalone"),),
            (("run", "cpu-bound secondary"),),
            (("run", "disk-bound secondary"),),
        ]
        for variant in variants:
            validate_cluster_scenario(variant.spec)
            assert variant.spec.node.workload.qps == 500.0
            assert variant.spec.seed == variant.spec.node.seed == 5
            assert variant.spec.node.hdfs is not None  # HDFS runs on every machine
        standalone, cpu_bound, disk_bound = (v.spec.node for v in variants)
        assert standalone.perfiso is None and standalone.cpu_bully is None
        assert cpu_bound.perfiso.cpu.buffer_cores == 8 and cpu_bound.cpu_bully is not None
        assert disk_bound.disk_bully is not None
        assert disk_bound.perfiso.io_throttle is not None

    def test_fleet_scenarios_are_registered(self):
        fleet = [s for s in matrix.iter_scenarios() if s.kind == "fleet"]
        assert len(fleet) >= 4
        names = {s.name for s in fleet}
        assert {"fleet-staged-rollout", "fleet-guardrail-breach"} <= names
        # Fleet scenarios cover the new diversity axes: rollout staging,
        # placement strategy and fleet size.
        axes = {axis for s in fleet for axis in s.axis_names}
        assert {"machines", "strategy", "stages"} <= axes

    def test_trace_driven_scenarios_are_registered(self):
        trace_driven = [
            s for s in matrix.iter_scenarios() if "trace-driven" in s.tags
        ]
        assert len(trace_driven) >= 8
        names = {s.name for s in trace_driven}
        assert {
            "diurnal-cycle",
            "diurnal-trough-reclamation",
            "flash-crowd-blind-isolation",
            "bursty-blind-isolation",
            "replayed-trace-standalone",
            "controller-showdown",
        } <= names
        # Every trace-driven variant carries a time-varying arrival model.
        for scenario in trace_driven:
            for variant in scenario.expand(duration=0.5, warmup=0.1, seed=5):
                assert variant.spec.workload.arrival_kind != "constant"

    def test_every_scenario_has_description_and_tier(self):
        for scenario in matrix.iter_scenarios():
            assert scenario.description

    def test_paper_core_scenarios_are_registered(self):
        names = set(matrix.scenario_names())
        assert {
            "standalone",
            "no-isolation",
            "blind-isolation",
            "static-cores",
            "cpu-cycles",
        } <= names

    def test_no_entry_re_derives_another_entrys_specs(self):
        """Each experiment is defined once, at the catalog defaults.

        A builder that no figure uses must produce a spec that no other such
        builder produces, and an entry that is neither the first registered
        over its builder nor a figure must have a spec no other entry has.
        Figures stay exempt: their ``run`` axis reuses the builders above.
        """
        matrix.load_catalog()
        entries = list(matrix._REGISTRY.values())  # registration order
        specs = {e.name: {spec_hash(v.spec) for v in e.expand()} for e in entries}
        figure_builders = {e.builder for e in entries if "figure" in e.tags}
        by_builder = {}
        for entry in entries:
            by_builder.setdefault(entry.builder, []).append(entry)
        produced = {
            builder: set().union(*(specs[e.name] for e in group))
            for builder, group in by_builder.items()
            if builder not in figure_builders
        }
        duplicates = []
        for builder, hashes in produced.items():
            others = set().union(*(h for other, h in produced.items() if other is not builder))
            if not hashes - others:
                duplicates += [e.name for e in by_builder[builder]]
        for entry in entries:
            if "figure" in entry.tags or by_builder[entry.builder][0] is entry:
                continue
            others = set().union(*(specs[o.name] for o in entries if o is not entry))
            if not specs[entry.name] - others:
                duplicates.append(entry.name)
        assert duplicates == []

    def test_duplicate_registration_is_an_error(self):
        with pytest.raises(ConfigError, match="already registered"):
            matrix.register(matrix.get_scenario("standalone"))

    def test_axis_must_match_builder_signature(self):
        with pytest.raises(ConfigError, match="does not accept"):
            matrix.Scenario(
                name="broken",
                description="axis without a parameter",
                builder=sc.standalone,
                axes=(("bogus_axis", (1, 2)),),
            )

    def test_unknown_scenario_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            matrix.get_scenario("does-not-exist")


class TestExpansion:
    def test_no_axes_yields_one_variant_labelled_by_name(self):
        variants = matrix.expand("standalone", **FAST)
        assert len(variants) == 1
        assert variants[0].label == "standalone"
        assert variants[0].spec.workload.qps == FAST["qps"]

    def test_axis_grid_expansion_and_labels(self):
        variants = matrix.expand("no-isolation", **FAST)
        assert [v.label for v in variants] == [
            "no-isolation[bully_threads=24]",
            "no-isolation[bully_threads=48]",
        ]
        assert [v.spec.cpu_bully.threads for v in variants] == [24, 48]

    def test_grid_override_replaces_axis_values(self):
        variants = matrix.expand("no-isolation", grid={"bully_threads": (4, 8, 12)}, **FAST)
        assert [v.spec.cpu_bully.threads for v in variants] == [4, 8, 12]

    def test_two_dimensional_grid_is_a_cartesian_product(self):
        variants = matrix.expand(
            "fig4", grid={"run": ("mid-secondary", "high-secondary")},
            duration=0.5, warmup=0.1, seed=5,
        )
        assert len(variants) == 4
        combos = {(v.spec.workload.qps, v.spec.cpu_bully.threads) for v in variants}
        assert combos == {(2000.0, 24), (2000.0, 48), (4000.0, 24), (4000.0, 48)}

    def test_unknown_grid_axis_is_an_error(self):
        with pytest.raises(ConfigError, match="no axis"):
            matrix.expand("standalone", grid={"bogus": (1,)})

    def test_unknown_common_parameter_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown common parameter"):
            matrix.get_scenario("standalone").expand(bogus=1)

    def test_builder_keywords_are_forwarded(self):
        (variant,) = matrix.expand(
            "controller-showdown",
            grid={"workload": ("flash_crowd",), "policy": ("pid",)},
            slo_ms=20.0,
            **FAST,
        )
        assert variant.spec.perfiso.slo_p99 == pytest.approx(0.020)
        with pytest.raises(ConfigError, match="unknown common parameter"):
            matrix.expand("standalone", slo_ms=20.0)

    def test_repeated_grid_value_is_an_error(self):
        with pytest.raises(ConfigError, match="repeats a value"):
            matrix.expand("no-isolation", grid={"bully_threads": (24, 24)}, **FAST)
        with pytest.raises(ConfigError, match="repeats a value"):
            matrix.expand("fig5", grid=parse_grid(["qps=2000,2000.0"]))

    def test_integer_grid_value_hashes_like_the_float_default(self):
        """``--grid qps=2000`` builds the ``qps=2000.0`` default variant's spec."""
        (given,) = matrix.expand("fig5", grid=parse_grid(["qps=2000", "run=blind-8"]))
        (default,) = [v for v in matrix.expand("fig5") if v.label == given.label]
        assert spec_hash(given.spec) == spec_hash(default.spec)

    def test_empty_grid_axis_is_an_error(self):
        with pytest.raises(ConfigError, match="has no values"):
            matrix.expand("no-isolation", grid={"bully_threads": ()}, **FAST)

    def test_common_params_not_in_signature_are_skipped(self):
        # ``diurnal`` owns its QPS (the phase axis decides it); forwarding
        # qps must not crash and must not leak into the spec.
        variants = matrix.expand(
            "diurnal", qps=999.0, duration=0.5, warmup=0.1, seed=5
        )
        assert {v.spec.workload.qps for v in variants} == set(sc.DIURNAL_PHASES.values())


class TestExecution:
    def test_run_scenario_rows_in_grid_order(self):
        runner = ExperimentRunner(max_workers=1, cache=ResultCache())
        result = matrix.run_scenario("no-isolation", runner=runner, **FAST)
        rows = result.rows()
        assert [row["bully_threads"] for row in rows] == [24, 48]
        for row in rows:
            assert row["p99_ms"] > 0
            assert "progress:cpu-bully" in row

    def test_rerun_is_served_from_cache(self):
        runner = ExperimentRunner(max_workers=1, cache=ResultCache())
        first = matrix.run_scenario("standalone", runner=runner, **FAST)
        second = matrix.run_scenario("standalone", runner=runner, **FAST)
        assert first.cache_hits == 0
        assert second.cache_hits == 1
        assert first.rows() == second.rows()

    def test_results_identical_across_worker_counts(self):
        serial = matrix.run_scenario(
            "no-isolation", runner=ExperimentRunner(max_workers=1, cache=ResultCache()), **FAST
        )
        parallel = matrix.run_scenario(
            "no-isolation", runner=ExperimentRunner(max_workers=4, cache=ResultCache()), **FAST
        )
        assert serial.rows() == parallel.rows()

    def test_cluster_scenario_rejects_telemetry(self, tmp_path):
        from repro.telemetry import TelemetrySession

        session = TelemetrySession.to_path(str(tmp_path / "t.jsonl"), source="test")
        try:
            with pytest.raises(ConfigError, match="cluster scenario"):
                matrix.run_scenario(
                    "fig9", telemetry=session, grid={"run": ("standalone",)},
                    duration=0.2, warmup=0.1,
                )
        finally:
            session.close()

    def test_multi_secondary_composite_runs_and_reports_breakdown(self):
        runner = ExperimentRunner(max_workers=1, cache=ResultCache())
        result = matrix.run_scenario(
            "mixed-bully", runner=runner, grid={"bully_threads": (24,)}, **FAST
        )
        (row,) = result.rows()
        assert row["progress:cpu-bully"] > 0
        assert row["progress:disk-bully"] > 0


class TestCli:
    def test_list_prints_catalog(self, capsys):
        assert matrix.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "standalone" in out and "mixed-bully" in out
        assert "multi-secondary composites" in out

    def test_run_table_output(self, capsys):
        code = matrix.main(
            ["--run", "standalone", "--qps", "500", "--duration", "0.5",
             "--warmup", "0.1", "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "standalone" in out and "p99_ms" in out

    def test_run_json_output_parses(self, capsys):
        code = matrix.main(
            ["--run", "no-isolation", "--grid", "bully_threads=24", "--qps", "500",
             "--duration", "0.5", "--warmup", "0.1", "--seed", "5", "--out", "json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["bully_threads"] == 24

    def test_run_csv_output_has_header_and_rows(self, capsys):
        code = matrix.main(
            ["--run", "no-isolation", "--qps", "500", "--duration", "0.5",
             "--warmup", "0.1", "--seed", "5", "--out", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("scenario,label,bully_threads")
        assert len(lines) == 3

    def test_workers_flag_matches_serial_output(self, capsys):
        argv = ["--run", "no-isolation", "--qps", "500", "--duration", "0.5",
                "--warmup", "0.1", "--seed", "5", "--out", "json"]
        assert matrix.main(argv + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert matrix.main(argv + ["--workers", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_unknown_scenario_exits_nonzero(self, capsys):
        assert matrix.main(["--run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_scenario_suggests_close_matches(self, capsys):
        assert matrix.main(["--run", "standalon"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert "'standalone'" in err

    def test_unrecognisable_name_gets_no_suggestion(self):
        with pytest.raises(ConfigError) as excinfo:
            matrix.get_scenario("zzzzqqqq")
        assert "did you mean" not in str(excinfo.value)

    def test_seed_flag_threads_into_expanded_specs(self, capsys):
        code = matrix.main(
            ["--run", "standalone", "--qps", "500", "--duration", "0.5",
             "--warmup", "0.1", "--seed", "123", "--out", "json"]
        )
        assert code == 0
        capsys.readouterr()
        assert matrix.expand("standalone", seed=123)[0].spec.seed == 123

    def test_list_shows_fleet_scenarios(self, capsys):
        assert matrix.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fleet-staged-rollout" in out
        assert "fleet)" in out  # the catalog footer counts fleet scenarios

    def test_list_shows_figure_scenarios(self, capsys):
        assert matrix.main(["--list"]) == 0
        names = {line.split()[0] for line in capsys.readouterr().out.splitlines() if line.strip()}
        assert {"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "headline"} <= names

    def test_fig9_bundle_validates(self, tmp_path, capsys):
        bundle_dir = tmp_path / "fig9"
        code = matrix.main(
            ["--run", "fig9", "--grid", "run=standalone", "--qps", "300",
             "--duration", "0.2", "--warmup", "0.1", "--seed", "5", "--out", "json",
             "--bundle", str(bundle_dir)]
        )
        assert code == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["run"] == "standalone" and row["tla_p99_ms"] > 0
        manifest = validate_bundle(bundle_dir)
        assert manifest["seeds"] == [5]
        assert manifest["rows"]["count"] == 1

    def test_showdown_cli_rejects_a_repeated_controller(self, capsys):
        from repro.experiments import showdown

        code = showdown.main(
            ["--controllers", "blind,blind", "--workloads", "flash_crowd",
             "--duration", "0.3", "--warmup", "0.1"]
        )
        assert code == 2
        assert "repeats a value" in capsys.readouterr().err

    def test_bad_grid_syntax_exits_nonzero(self, capsys):
        assert matrix.main(["--run", "no-isolation", "--grid", "oops"]) == 2
        assert "--grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, reason",
        [("bogus=1", "has no axis 'bogus'"), ("qps=2000,2000.0", "repeats a value")],
    )
    def test_grid_the_scenario_rejects_exits_2_before_any_run(self, grid, reason, capsys):
        assert matrix.main(["--run", "fig5", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert reason in captured.err


class TestCliFailureIsolation:
    """One scenario blowing up mid-batch must not take the batch down."""

    @pytest.fixture()
    def boom_scenario(self):
        def boom_builder(qps=500.0, duration=0.5, warmup=0.1, seed=5):
            raise RuntimeError("injected mid-batch failure")

        matrix.register(
            matrix.Scenario(
                name="boom-test",
                description="always raises, for failure-isolation tests",
                builder=boom_builder,
            )
        )
        yield "boom-test"
        matrix._REGISTRY.pop("boom-test", None)

    def test_failure_isolated_and_partial_results_flushed(self, boom_scenario, capsys):
        code = matrix.main(
            ["--run", f"standalone,{boom_scenario}", "--qps", "500",
             "--duration", "0.5", "--warmup", "0.1", "--seed", "5"]
        )
        assert code == 1
        out = capsys.readouterr().out
        # The healthy scenario's rows were still printed in full...
        assert "standalone" in out and "p99_ms" in out
        # ...and the failure shows up once, in the error table.
        assert "1 of 2 scenarios failed" in out
        assert "RuntimeError: injected mid-batch failure" in out

    def test_failure_first_does_not_starve_later_scenarios(self, boom_scenario, capsys):
        code = matrix.main(
            ["--run", f"{boom_scenario},standalone", "--qps", "500",
             "--duration", "0.5", "--warmup", "0.1", "--seed", "5", "--out", "csv"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "standalone" in out  # ran despite the earlier crash
        assert "boom-test" in out and "RuntimeError" in out


class TestSecondaryJobSpec:
    def test_exactly_one_tenant_spec_required(self):
        from repro.config.schema import CpuBullySpec, DiskBullySpec

        with pytest.raises(ConfigError):
            SecondaryJobSpec("empty")
        with pytest.raises(ConfigError):
            SecondaryJobSpec(
                "both", cpu_bully=CpuBullySpec(), disk_bully=DiskBullySpec()
            )

    def test_kind_and_tenant_spec(self):
        from repro.config.schema import MlTrainingSpec

        job = SecondaryJobSpec("trainer", ml_training=MlTrainingSpec())
        assert job.kind == "ml_training"
        assert job.tenant_spec.threads == MlTrainingSpec().threads
        assert job.memory_bytes == MlTrainingSpec().memory_bytes

    def test_duplicate_job_names_rejected_at_validation(self):
        from repro.config.schema import CpuBullySpec

        spec = sc.standalone(**FAST).replace(
            cpu_bully=CpuBullySpec(threads=4),
            extra_secondaries=(SecondaryJobSpec("cpu-bully", cpu_bully=CpuBullySpec(threads=2)),),
        )
        with pytest.raises(ConfigError, match="unique"):
            validate_experiment(spec)

    def test_combined_bully_threads_validated(self):
        from repro.config.schema import CpuBullySpec

        spec = sc.standalone(**FAST).replace(
            cpu_bully=CpuBullySpec(threads=200),
            extra_secondaries=(
                SecondaryJobSpec("extra", cpu_bully=CpuBullySpec(threads=200)),
            ),
        )
        with pytest.raises(ConfigError, match="implausibly large"):
            validate_experiment(spec)

    def test_singleton_jobs_keep_historical_names(self):
        spec = sc.disk_bound_with_throttling(**FAST)
        assert [job.name for job in spec.secondary_jobs()] == ["disk-bully", "hdfs"]
