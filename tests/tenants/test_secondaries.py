"""Tests for the secondary tenants: CPU bully, disk bully, HDFS, ML training."""

import pytest

from repro.config.schema import CpuBullySpec, DiskBullySpec, HdfsSpec, MlTrainingSpec
from repro.errors import TenantError
from repro.hostos.process import TenantCategory
from repro.tenants.cpu_bully import CpuBullyTenant
from repro.tenants.disk_bully import DiskBullyTenant
from repro.tenants.hdfs import HdfsTenant
from repro.tenants.ml_training import MlTrainingTenant
from repro.units import MB, millis


class TestCpuBully:
    def test_uses_all_cores_when_unrestricted(self, engine, kernel):
        bully = CpuBullyTenant(kernel, CpuBullySpec(threads=8, memory_bytes=1024))
        bully.start()
        # CPU time is charged at slice boundaries, so run for a whole number
        # of scheduler quanta to make the expected total exact.
        horizon = kernel.scheduler.spec.quantum * 2
        engine.run(until=horizon)
        cores = kernel.machine.logical_cores
        assert bully.cpu_seconds() == pytest.approx(horizon * cores, rel=0.05)
        assert bully.progress() > 0

    def test_respects_job_affinity(self, engine, kernel):
        job = kernel.create_job_object("secondary")
        job.set_cpu_affinity(frozenset({0, 1}))
        bully = CpuBullyTenant(kernel, CpuBullySpec(threads=8, memory_bytes=1024))
        bully.attach_to_job(job)
        bully.start()
        horizon = kernel.scheduler.spec.quantum * 2
        engine.run(until=horizon)
        assert bully.cpu_seconds() == pytest.approx(horizon * 2, rel=0.1)

    def test_progress_scales_with_iteration_cost(self, engine, kernel):
        bully = CpuBullyTenant(kernel, CpuBullySpec(threads=2, iteration_cost=millis(10), memory_bytes=1024))
        bully.start()
        engine.run(until=0.1)
        assert bully.progress() == pytest.approx(bully.cpu_seconds() / millis(10))

    def test_double_start_rejected(self, kernel):
        bully = CpuBullyTenant(kernel, CpuBullySpec(threads=1, memory_bytes=1024))
        bully.start()
        with pytest.raises(TenantError):
            bully.start()

    def test_category_is_secondary(self, kernel):
        bully = CpuBullyTenant(kernel, CpuBullySpec(threads=1, memory_bytes=1024))
        bully.start()
        assert bully.process.category == TenantCategory.SECONDARY


class TestDiskBully:
    def test_generates_hdd_traffic(self, engine, kernel, rng):
        bully = DiskBullyTenant(kernel, DiskBullySpec(threads=2, memory_bytes=1024), rng=rng)
        bully.start()
        engine.run(until=0.5)
        assert bully.requests_completed > 0
        assert bully.progress() == bully.bytes_completed

    def test_mixed_read_write(self, engine, kernel, rng):
        bully = DiskBullyTenant(
            kernel, DiskBullySpec(threads=4, read_fraction=0.33, memory_bytes=1024), rng=rng
        )
        bully.start()
        engine.run(until=1.0)
        volume = kernel.machine.hdd
        reads = sum(d.bytes_read for d in volume.disks)
        writes = sum(d.bytes_written for d in volume.disks)
        assert reads > 0 and writes > 0
        assert writes > reads

    def test_process_accessor_requires_start(self, kernel, rng):
        bully = DiskBullyTenant(kernel, DiskBullySpec(memory_bytes=1024), rng=rng)
        with pytest.raises(TenantError):
            _ = bully.process


class TestHdfs:
    def test_bandwidth_limits_registered(self, engine, kernel, rng):
        hdfs = HdfsTenant(kernel, HdfsSpec(memory_bytes=1024), rng=rng)
        hdfs.start()
        datanode_limit = kernel.iostack.get_limits(f"{hdfs.name}-datanode", "hdd")[0]
        client_limit = kernel.iostack.get_limits(f"{hdfs.name}-client", "hdd")[0]
        assert datanode_limit == pytest.approx(20 * MB)
        assert client_limit == pytest.approx(60 * MB)

    def test_replication_throughput_respects_cap(self, engine, kernel, rng):
        hdfs = HdfsTenant(kernel, HdfsSpec(memory_bytes=1024), rng=rng)
        hdfs.start()
        engine.run(until=2.0)
        assert hdfs.replication_bytes > 0
        assert hdfs.replication_bytes / 2.0 <= 25 * MB  # 20 MB/s cap plus burst allowance

    def test_progress_counts_both_streams(self, engine, kernel, rng):
        hdfs = HdfsTenant(kernel, HdfsSpec(memory_bytes=1024), rng=rng)
        hdfs.start()
        engine.run(until=1.0)
        assert hdfs.progress() == hdfs.replication_bytes + hdfs.client_bytes

    def test_two_processes_created(self, kernel, rng):
        hdfs = HdfsTenant(kernel, HdfsSpec(memory_bytes=1024), rng=rng)
        hdfs.start()
        assert len(hdfs.processes()) == 2

    def test_killed_processes_stop_issuing_io(self, engine, big_kernel, rng):
        spec = HdfsSpec(memory_bytes=1024)
        hdfs = HdfsTenant(big_kernel, spec, rng=rng)
        hdfs.start()
        engine.run(until=0.5)
        for process in hdfs.processes():
            big_kernel.kill_process(process)
        killed_at = hdfs.progress()
        engine.run(until=2.0)
        # Each stream's in-flight request may still complete; no new one starts.
        assert killed_at > 0
        assert hdfs.progress() <= killed_at + 2 * spec.request_bytes


class TestMlTraining:
    def test_consumes_cpu_and_reads_input(self, engine, kernel, rng):
        ml = MlTrainingTenant(kernel, MlTrainingSpec(threads=4, memory_bytes=1024), rng=rng)
        ml.start()
        engine.run(until=0.5)
        assert ml.cpu_seconds() > 0
        assert ml.progress() > 0
        assert ml.input_bytes_read > 0

    def test_respects_job_affinity(self, engine, kernel, rng):
        job = kernel.create_job_object("secondary")
        job.set_cpu_affinity(frozenset({0}))
        ml = MlTrainingTenant(kernel, MlTrainingSpec(threads=4, memory_bytes=1024), rng=rng)
        ml.attach_to_job(job)
        ml.start()
        horizon = kernel.scheduler.spec.quantum * 2
        engine.run(until=horizon)
        assert ml.cpu_seconds() == pytest.approx(horizon, rel=0.1)

    def test_double_start_rejected(self, kernel, rng):
        ml = MlTrainingTenant(kernel, MlTrainingSpec(memory_bytes=1024), rng=rng)
        ml.start()
        with pytest.raises(TenantError):
            ml.start()
