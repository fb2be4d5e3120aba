"""Tests for disk devices and striped volumes."""

import pytest

from repro.config.schema import DiskSpec, VolumeSpec
from repro.errors import ResourceError
from repro.hardware.disk import DiskDevice, StripedVolume
from repro.units import MB


def make_volume(engine, count=4, kind="ssd", stripe=64 * 1024):
    disk = DiskSpec(kind=kind, base_latency=1e-4, bandwidth_bytes_per_s=100 * MB, max_queue_depth=2)
    return StripedVolume(engine, VolumeSpec(name=kind, disk=disk, count=count, stripe_bytes=stripe))


class TestDiskDevice:
    def test_service_time_scales_with_size(self, engine):
        disk = DiskDevice(engine, DiskSpec(base_latency=1e-3, bandwidth_bytes_per_s=1e6), "d0")
        assert disk.service_time(1000) == pytest.approx(2e-3)
        assert disk.service_time(2000) > disk.service_time(1000)

    def test_completion_callback_fires(self, engine):
        disk = DiskDevice(engine, DiskSpec(), "d0")
        done = []
        disk.submit_chunk(4096, "read", lambda delay: done.append(delay))
        engine.run()
        assert len(done) == 1
        assert disk.completed_requests == 1
        assert disk.bytes_read == 4096

    def test_queueing_beyond_depth(self, engine):
        spec = DiskSpec(base_latency=1e-3, bandwidth_bytes_per_s=1e9, max_queue_depth=1)
        disk = DiskDevice(engine, spec, "d0")
        delays = []
        for _ in range(3):
            disk.submit_chunk(1024, "write", lambda delay: delays.append(delay))
        assert disk.queue_depth == 2
        engine.run()
        assert len(delays) == 3
        # Later requests waited for earlier ones.
        assert delays[-1] > 0

    def test_invalid_op_rejected(self, engine):
        disk = DiskDevice(engine, DiskSpec(), "d0")
        with pytest.raises(ResourceError):
            disk.submit_chunk(1024, "append", lambda delay: None)


class TestStripedVolume:
    def test_small_request_single_chunk(self, engine):
        volume = make_volume(engine)
        done = []
        volume.submit("svc", "primary", "read", 4096, callback=lambda r: done.append(r))
        engine.run()
        assert len(done) == 1
        assert done[0].latency is not None and done[0].latency > 0
        assert volume.completed_requests == 1

    def test_large_request_striped_across_disks(self, engine):
        volume = make_volume(engine, count=4)
        done = []
        volume.submit("svc", "primary", "write", 1024 * 1024, callback=lambda r: done.append(r))
        engine.run()
        assert len(done) == 1
        busy_disks = [d for d in volume.disks if d.completed_requests > 0]
        assert len(busy_disks) == 4

    def test_striping_is_faster_than_single_disk(self, engine):
        striped = make_volume(engine, count=4)
        single = make_volume(engine, count=1)
        results = {}
        striped.submit("svc", "primary", "read", 4 * 1024 * 1024,
                       callback=lambda r: results.__setitem__("striped", r.latency))
        single.submit("svc", "primary", "read", 4 * 1024 * 1024,
                      callback=lambda r: results.__setitem__("single", r.latency))
        engine.run()
        assert results["striped"] < results["single"]

    def test_invalid_size_rejected(self, engine):
        volume = make_volume(engine)
        with pytest.raises(ResourceError):
            volume.submit("svc", "primary", "read", 0)

    def test_round_robin_spreads_small_requests(self, engine):
        volume = make_volume(engine, count=2)
        for _ in range(4):
            volume.submit("svc", "primary", "read", 1024)
        engine.run()
        counts = [d.completed_requests for d in volume.disks]
        assert counts == [2, 2]
