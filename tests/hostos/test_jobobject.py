"""Tests for job objects."""

import pytest

from repro.errors import SchedulerError
from repro.hostos.jobobject import JobObject
from repro.hostos.process import OsProcess, TenantCategory


def make_process(name="batch"):
    return OsProcess(pid=1, name=name, category=TenantCategory.SECONDARY, created_at=0.0)


class TestMembership:
    def test_assign_sets_backlink(self):
        job = JobObject("secondary")
        process = make_process()
        job.assign(process)
        assert process.job is job
        assert process in job.processes

    def test_double_assign_same_job_ok(self):
        job = JobObject("secondary")
        process = make_process()
        job.assign(process)
        job.assign(process)
        assert job.processes.count(process) == 1

    def test_assign_to_second_job_rejected(self):
        process = make_process()
        JobObject("a").assign(process)
        with pytest.raises(SchedulerError):
            JobObject("b").assign(process)

    def test_remove(self):
        job = JobObject("secondary")
        process = make_process()
        job.assign(process)
        job.remove(process)
        assert process.job is None
        assert process not in job.processes


class TestKnobs:
    def test_affinity_notifies_listeners(self):
        job = JobObject("secondary")
        calls = []
        job.add_listener(lambda j: calls.append(j.cpu_affinity))
        job.set_cpu_affinity(frozenset({1, 2}))
        assert calls == [frozenset({1, 2})]

    def test_unchanged_affinity_does_not_notify(self):
        job = JobObject("secondary")
        calls = []
        job.set_cpu_affinity(frozenset({1}))
        job.add_listener(lambda j: calls.append(True))
        job.set_cpu_affinity(frozenset({1}))
        assert calls == []

    def test_empty_affinity_allowed(self):
        job = JobObject("secondary")
        job.set_cpu_affinity(frozenset())
        assert job.cpu_affinity == frozenset()

    def test_affinity_is_a_core_bitmask(self):
        job = JobObject("secondary")
        assert job.cpu_affinity is None
        job.set_cpu_affinity([5, 0, 3])
        assert job.affinity_mask == 0b101001
        assert job.cpu_affinity == frozenset({0, 3, 5})
        job.set_cpu_affinity(None)
        assert job.cpu_affinity is None

    def test_negative_core_rejected(self):
        with pytest.raises(SchedulerError):
            JobObject("secondary").set_cpu_affinity(frozenset({-1}))

    def test_cpu_rate_validation(self):
        job = JobObject("secondary")
        with pytest.raises(SchedulerError):
            job.set_cpu_rate(0.0)
        with pytest.raises(SchedulerError):
            job.set_cpu_rate(1.5)
        job.set_cpu_rate(0.25)
        assert job.cpu_rate_fraction == 0.25

    def test_clearing_rate_unthrottles(self):
        job = JobObject("secondary")
        job.set_cpu_rate(0.1)
        job.throttled = True
        job.set_cpu_rate(None)
        assert not job.throttled

    def test_live_threads_empty_without_threads(self):
        job = JobObject("secondary")
        job.assign(make_process())
        assert job.live_threads() == []
