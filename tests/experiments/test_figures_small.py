"""Smoke tests for the per-figure harnesses on very small workloads.

The benchmark suite runs the figure harnesses at realistic scale; these tests
only verify the plumbing — that every harness produces the expected rows and
columns — so they use tiny durations and loads.
"""

import numpy as np
import pytest

from repro.experiments import figures
from repro.fleet.model import ModeCalibration, mode_curve_matrix, quantile_grid


@pytest.fixture(scope="module")
def fig5_small():
    return figures.fig5_blind_isolation(
        grid={"qps": (500.0,), "run": ("standalone", "blind-8")},
        duration=0.6, warmup=0.2, seed=3,
    )


class TestFigureHarnessPlumbing:
    def test_fig5_rows_and_columns(self, fig5_small):
        assert fig5_small.figure_id == "fig5"
        assert len(fig5_small.rows) == 1
        row = fig5_small.rows[0]
        for column in ("workload", "qps", "p99_ms", "p99_delta_ms", "buffer_cores"):
            assert column in row
        assert row["buffer_cores"] == 8

    def test_row_lookup_helpers(self, fig5_small):
        row = fig5_small.row(workload="blind-8-buffers")
        assert row["qps"] == 500.0
        assert fig5_small.column("qps") == [500.0]
        with pytest.raises(KeyError):
            fig5_small.row(workload="missing")

    def test_headline_harness(self):
        figure = figures.headline_utilization(qps=500.0, duration=0.6, warmup=0.2, seed=3)
        assert len(figure.rows) == 2
        configs = {row["configuration"] for row in figure.rows}
        assert configs == {"standalone", "colocated+blind-isolation"}
        colocated = figure.row(configuration="colocated+blind-isolation")
        assert colocated["busy_cpu_pct"] > figure.row(configuration="standalone")["busy_cpu_pct"]

    def test_fig6_and_fig7_structures(self):
        fig6 = figures.fig6_static_cores(grid={"qps": (400.0,), "run": ("standalone", "cores-8")},
                                         duration=0.5, warmup=0.1, seed=2)
        assert fig6.rows[0]["secondary_cores"] == 8
        fig7 = figures.fig7_cpu_cycles(grid={"qps": (400.0,), "run": ("standalone", "cycles-25")},
                                       duration=0.5, warmup=0.1, seed=2)
        assert fig7.rows[0]["cpu_fraction_pct"] == pytest.approx(25.0)
        assert "drop_rate_pct" in fig7.rows[0]


class TestFig10Draws:
    """Figure 10's per-bucket draw varies per bucket and seed, not per load.

    Runs on a synthetic calibration, so no single-machine simulation runs.
    """

    @staticmethod
    def _mode() -> ModeCalibration:
        rng = np.random.default_rng(0)
        grid = quantile_grid()
        curves = tuple(
            tuple(float(v) for v in np.quantile(rng.lognormal(np.log(median), 0.4, 2000), grid))
            for median in (0.004, 0.008)
        )
        return ModeCalibration(
            qps=(1000.0, 2000.0),
            quantiles=curves,
            busy_cpu=(0.55, 0.66),
            secondary_cpu=(0.3, 0.2),
            progress_per_s=(1.0, 0.5),
        )

    def _draw(self, seed: int, bucket: int):
        mode = self._mode()
        return figures._fig10_bucket(mode_curve_matrix(mode), mode, 1500.0, seed, bucket)

    def test_same_load_other_bucket_differs(self):
        first, _ = self._draw(seed=7, bucket=0)
        second, _ = self._draw(seed=7, bucket=1)
        assert not np.array_equal(first, second)

    def test_same_bucket_reproduces(self):
        first, busy_a = self._draw(seed=7, bucket=3)
        second, busy_b = self._draw(seed=7, bucket=3)
        assert first.size == 1000
        assert np.array_equal(first, second)
        assert busy_a == busy_b == pytest.approx(0.605)

    def test_other_seed_differs(self):
        first, _ = self._draw(seed=7, bucket=0)
        second, _ = self._draw(seed=8, bucket=0)
        assert not np.array_equal(first, second)


class TestFig10Rows:
    """A short Figure 10 run: one row per bucket, every column filled."""

    def test_produces_full_time_series(self):
        figure = figures.fig10_production(
            duration=600.0, bucket=120.0, calibration_duration=0.8, seed=3
        )
        assert figure.figure_id == "fig10"
        assert figure.column("time_s") == [0.0, 120.0, 240.0, 360.0, 480.0]
        for row in figure.rows:
            assert set(row) == {"time_s", "row_qps", "tla_p99_ms", "cpu_utilization_pct"}
            assert row["row_qps"] > 0.0 and row["tla_p99_ms"] > 0.0
