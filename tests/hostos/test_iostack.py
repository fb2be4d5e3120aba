"""Tests for the kernel I/O stack and its token-bucket throttling."""

import pytest

from repro.errors import ResourceError
from repro.hostos.process import TenantCategory
from repro.units import MB


@pytest.fixture
def process(kernel):
    return kernel.create_process("batch", TenantCategory.SECONDARY)


class TestSubmission:
    def test_unlimited_request_completes(self, engine, kernel, process):
        done = []
        kernel.iostack.submit(process, "hdd", "write", 64 * 1024, callback=lambda r: done.append(r))
        engine.run()
        assert len(done) == 1
        assert kernel.iostack.completions("batch", "hdd") == 1
        assert kernel.iostack.completed_bytes("batch", "hdd") == 64 * 1024

    def test_process_per_volume_accounting(self, engine, kernel, process):
        kernel.iostack.submit(process, "hdd", "write", 1024)
        kernel.iostack.submit(process, "ssd", "read", 2048)
        engine.run()
        assert kernel.iostack.completions("batch", "hdd") == 1
        assert kernel.iostack.completions("batch", "ssd") == 1
        assert kernel.iostack.completed_bytes("batch", "ssd") == 2048

    def test_os_overhead_charged_per_request(self, engine, kernel, process):
        before = kernel.accounting.busy_seconds(TenantCategory.SYSTEM)
        kernel.iostack.submit(process, "hdd", "write", 1024)
        engine.run()
        assert kernel.accounting.busy_seconds(TenantCategory.SYSTEM) > before


class TestThrottling:
    def test_bandwidth_limit_paces_throughput(self, engine, kernel, process):
        kernel.iostack.set_bandwidth_limit("batch", "hdd", 1 * MB)
        completed = []
        chunk = 256 * 1024
        for _ in range(8):  # 2 MB total at 1 MB/s => ~2 s
            kernel.iostack.submit(process, "hdd", "write", chunk,
                                  callback=lambda r: completed.append(engine.now))
        engine.run()
        assert len(completed) == 8
        assert completed[-1] > 1.5

    def test_unthrottled_is_much_faster(self, engine, kernel, process):
        completed = []
        for _ in range(8):
            kernel.iostack.submit(process, "hdd", "write", 256 * 1024,
                                  callback=lambda r: completed.append(engine.now))
        engine.run()
        assert completed[-1] < 0.5

    def test_iops_limit_paces_request_rate(self, engine, kernel, process):
        kernel.iostack.set_iops_limit("batch", "hdd", 10.0)
        completed = []
        for _ in range(10):
            kernel.iostack.submit(process, "hdd", "write", 4096,
                                  callback=lambda r: completed.append(engine.now))
        engine.run()
        # 10 requests at 10 IOPS takes on the order of a second (burst allowance aside).
        assert completed[-1] > 0.5

    def test_limits_can_be_removed(self, engine, kernel, process):
        kernel.iostack.set_bandwidth_limit("batch", "hdd", 1 * MB)
        kernel.iostack.set_bandwidth_limit("batch", "hdd", None)
        assert kernel.iostack.get_limits("batch", "hdd") == (None, None)
        completed = []
        kernel.iostack.submit(process, "hdd", "write", 1024 * 1024,
                              callback=lambda r: completed.append(engine.now))
        engine.run()
        assert completed and completed[0] < 0.5

    def test_limits_are_per_process(self, engine, kernel, process):
        other = kernel.create_process("other", TenantCategory.SECONDARY)
        kernel.iostack.set_bandwidth_limit("batch", "hdd", 1 * MB)
        times = {"batch": [], "other": []}
        for _ in range(3):
            kernel.iostack.submit(process, "hdd", "write", 1 * MB,
                                  callback=lambda r: times["batch"].append(engine.now))
            kernel.iostack.submit(other, "hdd", "write", 1 * MB,
                                  callback=lambda r: times["other"].append(engine.now))
        engine.run()
        assert max(times["other"]) < max(times["batch"])

    def test_invalid_limits_rejected(self, kernel):
        with pytest.raises(ResourceError):
            kernel.iostack.set_bandwidth_limit("batch", "hdd", 0)
        with pytest.raises(ResourceError):
            kernel.iostack.set_iops_limit("batch", "hdd", -1)

    def test_throttle_delay_counter(self, engine, kernel, process):
        kernel.iostack.set_bandwidth_limit("batch", "hdd", 1 * MB)
        for _ in range(4):
            kernel.iostack.submit(process, "hdd", "write", 1 * MB)
        engine.run()
        assert kernel.iostack.throttle_delays > 0
