"""Determinism regression: serial, 1-worker and N-worker runs are identical.

This is the guard for the parallel runtime: a given ``ExperimentSpec`` + seed
must produce bit-identical results no matter how the batch is executed —
directly in-process, through the runner with one worker, or fanned across
worker processes.  The figure harnesses inherit the same guarantee, which the
figure-level test below checks end to end.
"""

import numpy as np

from repro.config.schema import (
    BlindIsolationSpec,
    CpuBullySpec,
    ExperimentSpec,
    PerfIsoSpec,
    WorkloadSpec,
)
from repro.experiments import figures
from repro.experiments.single_machine import SingleMachineExperiment
from repro.runtime import ExperimentRunner, ExperimentTask, ResultCache


def _specs():
    """Two small specs, one with an active controller + bully."""
    workload = WorkloadSpec(qps=350.0, duration=0.8, warmup=0.2, trace_queries=2000)
    plain = ExperimentSpec(workload=workload, seed=11)
    isolated = ExperimentSpec(
        workload=workload,
        seed=11,
        cpu_bully=CpuBullySpec(threads=8),
        perfiso=PerfIsoSpec(cpu=BlindIsolationSpec(buffer_cores=4)),
    )
    return [plain, isolated]


def _fingerprint(result):
    """Every numeric output a figure row could be built from."""
    return (
        result.latency,
        result.cpu,
        result.queries_submitted,
        result.queries_completed,
        result.queries_dropped,
        result.secondary_progress,
        result.secondary_cpu_seconds,
        result.controller_polls,
        result.controller_updates,
        tuple(result.secondary_core_history),
    )


class TestRunDeterminism:
    def test_serial_one_worker_and_n_workers_agree(self):
        specs = _specs()
        direct = [SingleMachineExperiment(spec).run() for spec in specs]

        tasks = [ExperimentTask(spec) for spec in specs]
        one_worker = ExperimentRunner(max_workers=1, cache=ResultCache()).run_batch(tasks)
        four_workers = ExperimentRunner(max_workers=4, cache=ResultCache()).run_batch(tasks)

        for base, serial, parallel in zip(direct, one_worker, four_workers):
            assert not serial.from_cache and not parallel.from_cache
            assert _fingerprint(base) == _fingerprint(serial.result)
            assert _fingerprint(base) == _fingerprint(parallel.result)
            assert np.array_equal(serial.latency_samples, parallel.latency_samples)

    def test_figure_rows_bit_identical_serial_vs_parallel(self):
        """Identical seeds yield bit-identical figure output either way."""
        kwargs = dict(
            grid={"qps": (350.0,), "run": ("standalone", "blind-4")},
            duration=0.6, warmup=0.2, seed=11,
        )
        serial = figures.fig5_blind_isolation(
            runner=ExperimentRunner(max_workers=1, cache=ResultCache()), **kwargs
        )
        parallel = figures.fig5_blind_isolation(
            runner=ExperimentRunner(max_workers=4, cache=ResultCache()), **kwargs
        )
        assert serial.rows == parallel.rows

class TestTraceDrivenDeterminism:
    """Trace-driven arrival models keep the worker-count guarantee.

    The bursty state path draws from its own named stream and trace replay is
    pure data, so a time-varying workload must be bit-identical run directly,
    through one worker, or fanned across processes.
    """

    def _specs(self):
        from repro.experiments import scenarios as sc

        short = dict(duration=0.8, warmup=0.2, seed=11)
        return [
            sc.bursty_blind_isolation(burst_qps=900.0, base_qps=300.0, **short),
            sc.controller_showdown(
                policy="blind", workload="trace", base_qps=300.0, peak_qps=900.0, **short
            ),
            sc.diurnal_cycle(
                phase_offset=0.25, peak_qps=700.0, trough_qps=250.0, **short
            ),
        ]

    def test_serial_one_worker_and_n_workers_agree(self):
        specs = self._specs()
        direct = [SingleMachineExperiment(spec).run() for spec in specs]

        tasks = [ExperimentTask(spec) for spec in specs]
        one_worker = ExperimentRunner(max_workers=1, cache=ResultCache()).run_batch(tasks)
        four_workers = ExperimentRunner(max_workers=4, cache=ResultCache()).run_batch(tasks)

        for base, serial, parallel in zip(direct, one_worker, four_workers):
            assert not serial.from_cache and not parallel.from_cache
            assert _fingerprint(base) == _fingerprint(serial.result)
            assert _fingerprint(base) == _fingerprint(parallel.result)
            assert np.array_equal(serial.latency_samples, parallel.latency_samples)
            assert base.extra == serial.result.extra == parallel.result.extra
