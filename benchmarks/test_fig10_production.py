"""Figure 10: an hour of the 650-machine production cluster under diurnal load."""

from conftest import run_once

from repro.experiments import figures
from repro.experiments.reporting import print_figure


def test_fig10_production(benchmark):
    figure = run_once(
        benchmark,
        figures.fig10_production,
        duration=3600.0,
        bucket=300.0,
        calibration_duration=2.0,
        seed=7,
    )
    print_figure(
        "Figure 10 — production cluster over one hour (per 5-minute bucket)",
        figure.rows,
        columns=["time_s", "row_qps", "tla_p99_ms", "cpu_utilization_pct"],
        notes=figure.notes,
    )

    # One row per 5-minute bucket of the hour.
    assert len(figure.rows) == 12
    qps = [row["row_qps"] for row in figure.rows]
    p99 = [row["tla_p99_ms"] for row in figure.rows]
    cpu = [row["cpu_utilization_pct"] for row in figure.rows]

    # The load follows a diurnal pattern (it actually varies).
    assert max(qps) > 1.3 * min(qps)
    # Paper: CPU utilisation averages ~70% over the hour thanks to the
    # colocated training job; we accept a broad band around that.
    mean_cpu = sum(cpu) / len(cpu)
    assert 50.0 <= mean_cpu <= 95.0
    # Paper: the TLA P99 stays flat (tens of milliseconds) despite the
    # colocated batch job and the varying load.
    assert max(p99) < 80.0
    assert max(p99) - min(p99) < 40.0
