"""Tests for the experiment harnesses (scenario builders, runner, reporting)."""

import pytest

from repro.config.schema import BlindIsolationSpec, CpuCycleSpec
from repro.config.validation import validate_experiment
from repro.errors import ConfigError
from repro.experiments import figures
from repro.experiments import scenarios as sc
from repro.experiments.reporting import format_figure, format_table
from repro.experiments.single_machine import SingleMachineExperiment
from repro.runtime import ExperimentRunner, ResultCache


class TestScenarioBuilders:
    def test_all_builders_produce_valid_specs(self):
        builders = [
            sc.standalone(),
            sc.no_isolation(24),
            sc.no_isolation(48),
            sc.blind_isolation(8),
            sc.blind_isolation(4),
            sc.static_cores(16),
            sc.cpu_cycles(0.25),
            sc.disk_bound_with_throttling(),
        ]
        for spec in builders:
            validate_experiment(spec)

    def test_standalone_has_no_secondary(self):
        spec = sc.standalone()
        assert spec.cpu_bully is None and spec.perfiso is None

    def test_blind_isolation_config(self):
        spec = sc.blind_isolation(buffer_cores=4, bully_threads=24)
        assert spec.perfiso.cpu == BlindIsolationSpec(buffer_cores=4)
        assert spec.cpu_bully.threads == 24

    def test_cycles_config(self):
        spec = sc.cpu_cycles(0.45)
        assert isinstance(spec.perfiso.cpu, CpuCycleSpec)
        assert spec.perfiso.cpu.cpu_fraction == pytest.approx(0.45)

    def test_disk_bound_scenario_has_io_tenants(self):
        spec = sc.disk_bound_with_throttling()
        assert spec.disk_bully is not None
        assert spec.hdfs is not None
        assert spec.perfiso.io_throttle.enabled

    def test_workload_parameters_threaded_through(self):
        spec = sc.standalone(qps=1234, duration=7.0, warmup=2.0, seed=17)
        assert spec.workload.qps == 1234
        assert spec.workload.duration == 7.0
        assert spec.seed == 17


class TestSingleMachineExperiment:
    def test_short_standalone_run_produces_sane_results(self):
        spec = sc.standalone(qps=600, duration=1.0, warmup=0.2, seed=5)
        result = SingleMachineExperiment(spec, "standalone").run()
        assert result.queries_completed > 300
        assert result.queries_dropped == 0
        assert 0 < result.latency.p50 < result.latency.p99 < 0.2
        assert 0.0 < result.cpu.primary < 0.5
        assert result.cpu.idle > 0.5
        assert result.secondary_progress == 0

    def test_results_are_reproducible_for_a_seed(self):
        spec = sc.standalone(qps=400, duration=0.8, warmup=0.2, seed=9)
        first = SingleMachineExperiment(spec, "a").run()
        second = SingleMachineExperiment(spec, "b").run()
        assert first.latency.p99 == pytest.approx(second.latency.p99)
        assert first.queries_completed == second.queries_completed

    def test_different_seeds_differ(self):
        first = SingleMachineExperiment(sc.standalone(qps=400, duration=0.8, seed=1)).run()
        second = SingleMachineExperiment(sc.standalone(qps=400, duration=0.8, seed=2)).run()
        assert first.latency.p99 != pytest.approx(second.latency.p99)

    def test_colocated_run_tracks_controller_activity(self):
        spec = sc.blind_isolation(4, bully_threads=16, qps=600, duration=1.0, warmup=0.2, seed=5)
        result = SingleMachineExperiment(spec, "blind").run()
        assert result.controller_polls > 100
        assert result.secondary_progress > 0
        assert result.cpu.secondary > 0.1
        assert result.secondary_core_history

    def test_summary_is_flat_and_complete(self):
        spec = sc.standalone(qps=400, duration=0.6, warmup=0.2, seed=5)
        summary = SingleMachineExperiment(spec).run().summary()
        for key in ("p50_ms", "p99_ms", "primary_cpu_pct", "idle_cpu_pct", "drop_rate_pct"):
            assert key in summary


class TestMultiSecondaryExperiment:
    def test_extra_secondaries_all_run_under_the_controller(self):
        from repro.config.schema import CpuBullySpec, SecondaryJobSpec

        spec = sc.blind_isolation(
            8, bully_threads=16, qps=600, duration=1.0, warmup=0.2, seed=5
        ).replace(
            extra_secondaries=(
                SecondaryJobSpec("bully-b", cpu_bully=CpuBullySpec(threads=8)),
                SecondaryJobSpec("bully-c", cpu_bully=CpuBullySpec(threads=4)),
            )
        )
        experiment = SingleMachineExperiment(spec, "three-bullies")
        result = experiment.run()
        assert [s.name for s in experiment.assembly.secondaries] == [
            "cpu-bully", "bully-b", "bully-c"
        ]
        assert set(result.secondary_breakdown) == {"cpu-bully", "bully-b", "bully-c"}
        for entry in result.secondary_breakdown.values():
            assert entry["progress"] > 0
            assert entry["cpu_seconds"] > 0
        assert result.secondary_progress == pytest.approx(
            sum(e["progress"] for e in result.secondary_breakdown.values())
        )

    def test_adding_an_extra_secondary_does_not_perturb_existing_streams(self):
        """Random streams are keyed by name, so adding an extra job cannot
        perturb anyone else's draws.  The open-loop arrival schedule is a pure
        function of the "arrivals" stream, so the submission count must be
        identical with and without the extra secondary (latency may of course
        change if the new job actually contends for cores)."""
        from repro.config.schema import CpuBullySpec, SecondaryJobSpec

        base = sc.standalone(qps=500, duration=0.8, warmup=0.2, seed=7)
        alone = SingleMachineExperiment(base, "alone").run()
        crowded = SingleMachineExperiment(
            base.replace(
                extra_secondaries=(
                    SecondaryJobSpec("guest", cpu_bully=CpuBullySpec(threads=8)),
                )
            ),
            "crowded",
        ).run()
        assert crowded.queries_submitted == alone.queries_submitted
        assert crowded.secondary_breakdown["guest"]["progress"] > 0

    def test_mixed_kind_extras(self):
        from repro.config.schema import DiskBullySpec, MlTrainingSpec, SecondaryJobSpec

        spec = sc.standalone(qps=500, duration=0.8, warmup=0.2, seed=5).replace(
            extra_secondaries=(
                SecondaryJobSpec("io-job", disk_bully=DiskBullySpec(threads=2)),
                SecondaryJobSpec("trainer", ml_training=MlTrainingSpec(threads=8)),
            )
        )
        result = SingleMachineExperiment(spec, "mixed").run()
        assert result.secondary_breakdown["io-job"]["progress"] > 0
        assert result.secondary_breakdown["trainer"]["progress"] > 0


class TestFig8Approaches:
    """Figure 8 as the ``fig8`` scenario: its ``run`` axis picks the approaches."""

    def test_selected_approaches_only(self):
        figure = figures.fig8_comparison(
            qps=500, duration=0.8, warmup=0.2, seed=4,
            grid={"run": ("standalone", "no_isolation", "blind_isolation")},
            runner=ExperimentRunner(max_workers=1, cache=ResultCache()),
        )
        assert [row["approach"] for row in figure.rows] == [
            "standalone", "no_isolation", "blind_isolation"
        ]
        relative = {row["approach"]: row["relative_progress_pct"] for row in figure.rows}
        assert relative["no_isolation"] == pytest.approx(100.0)
        assert 0 < relative["blind_isolation"] <= 105.0
        assert len(figure.rows) == 3

    def test_unknown_approach_rejected(self):
        with pytest.raises(ConfigError, match="unknown figure run"):
            figures.fig8_comparison(qps=500, duration=0.5, grid={"run": ("warp_drive",)})


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 3.25}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_figure_includes_notes(self):
        text = format_figure("Fig X", [{"x": 1}], notes=["a note"])
        assert "Fig X" in text and "a note" in text

    def test_large_numbers_comma_separated(self):
        text = format_table([{"count": 12345.0}])
        assert "12,345" in text
