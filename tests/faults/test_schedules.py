"""Property-based tests (hypothesis) for the deterministic fault schedules.

The invariants the whole fault subsystem rests on:

* crash/restart episodes are well-formed — ordered, non-overlapping,
  ``down < up``, capped at ``max_crashes``, first crash inside the horizon;
* a schedule is a pure function of (spec, seed, identity) — two draws agree
  byte-for-byte, and extending the horizon only ever *appends* episodes, so
  shard partitioning and worker count can never change what a machine sees;
* an empty fault plan is a no-op — ``is_noop`` holds and a single-machine
  run carrying one is byte-identical to a run with no plan at all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.schema import (
    DegradedCoreSpec,
    ExperimentSpec,
    FaultPlanSpec,
    MachineFaultSpec,
    WorkloadSpec,
)
from repro.faults import (
    FAULTS_STREAM,
    fault_seed,
    machine_crash_episodes,
    machine_is_degraded,
)
from repro.simulation.randomness import stable_seed

machine_fault_specs = st.builds(
    MachineFaultSpec,
    crash_rate_per_hour=st.floats(min_value=0.1, max_value=500.0),
    mean_downtime=st.floats(min_value=1.0, max_value=600.0),
    max_crashes=st.integers(min_value=1, max_value=12),
)

identities = st.tuples(
    st.integers(min_value=0, max_value=2**31),  # seed
    st.sampled_from(("row-ml", "row-analytics", "row-storage")),  # group
    st.integers(min_value=0, max_value=5000),  # machine index
)


class TestCrashEpisodes:
    @settings(max_examples=200, deadline=None)
    @given(
        spec=machine_fault_specs,
        identity=identities,
        horizon=st.floats(min_value=1.0, max_value=100_000.0),
    )
    def test_episodes_are_well_formed(self, spec, identity, horizon):
        seed, group, index = identity
        episodes = machine_crash_episodes(
            spec, seed=seed, group=group, machine_index=index, horizon=horizon
        )
        assert len(episodes) <= spec.max_crashes
        previous_up = 0.0
        for down, up in episodes:
            assert down < up  # every outage has positive length
            assert down >= previous_up  # episodes never overlap
            assert down < horizon  # crashes only start inside the horizon
            previous_up = up

    @settings(max_examples=200, deadline=None)
    @given(spec=machine_fault_specs, identity=identities)
    def test_schedule_is_deterministic(self, spec, identity):
        seed, group, index = identity
        draws = [
            machine_crash_episodes(
                spec, seed=seed, group=group, machine_index=index, horizon=7200.0
            )
            for _ in range(2)
        ]
        assert draws[0] == draws[1]

    @settings(max_examples=200, deadline=None)
    @given(
        spec=machine_fault_specs,
        identity=identities,
        short=st.floats(min_value=1.0, max_value=5_000.0),
        extra=st.floats(min_value=0.0, max_value=50_000.0),
    )
    def test_longer_horizon_only_appends(self, spec, identity, short, extra):
        """The worker-count-independence lemma: a shard that truncates a
        machine's timeline at its own window sees exactly the prefix of the
        full-run schedule, never different draws."""
        seed, group, index = identity
        kwargs = dict(spec=spec, seed=seed, group=group, machine_index=index)
        prefix = machine_crash_episodes(horizon=short, **kwargs)
        full = machine_crash_episodes(horizon=short + extra, **kwargs)
        assert full[: len(prefix)] == prefix
        # Every appended episode starts at or past the short horizon.
        assert all(down >= short for down, _ in full[len(prefix) :])


class TestDegradedMembership:
    @settings(max_examples=200, deadline=None)
    @given(
        identity=identities,
        fraction=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_membership_is_deterministic(self, identity, fraction):
        seed, group, index = identity
        spec = DegradedCoreSpec(
            slowdown=2.0, start=0.0, duration=10.0, fraction_of_machines=fraction
        )
        draws = {
            machine_is_degraded(spec, seed=seed, group=group, machine_index=index)
            for _ in range(3)
        }
        assert len(draws) == 1

    @settings(max_examples=50, deadline=None)
    @given(identity=identities)
    def test_full_fraction_degrades_everyone(self, identity):
        seed, group, index = identity
        spec = DegradedCoreSpec(
            slowdown=2.0, start=0.0, duration=10.0, fraction_of_machines=1.0
        )
        assert machine_is_degraded(spec, seed=seed, group=group, machine_index=index)


class TestSeedStream:
    def test_fault_seed_is_stable_and_keyed(self):
        assert fault_seed("machine-crash", 7, "row-ml", 0) == fault_seed(
            "machine-crash", 7, "row-ml", 0
        )
        assert fault_seed("machine-crash", 7, "row-ml", 0) != fault_seed(
            "machine-crash", 7, "row-ml", 1
        )
        assert fault_seed("machine-crash", 7, "row-ml", 0) != fault_seed(
            "degraded-core", 7, "row-ml", 0
        )

    def test_fault_seed_is_the_faults_stream_stable_seed(self):
        """Fault schedules, and so the fault-plan goldens, depend on this value."""
        seed = fault_seed("machine-crash", 7, "row-ml", 0)
        assert seed == stable_seed(FAULTS_STREAM, "machine-crash", 7, "row-ml", 0)
        assert seed == 9486551658126784576


class TestZeroFaultPlan:
    def test_empty_plan_is_noop(self):
        assert FaultPlanSpec().is_noop
        assert not FaultPlanSpec(
            machines=MachineFaultSpec(crash_rate_per_hour=1.0)
        ).is_noop

    def test_noop_plan_run_is_byte_identical_to_no_plan(self):
        """The zero-overhead contract at the behaviour level: an empty fault
        plan must not perturb a single random draw."""
        from repro.experiments.single_machine import SingleMachineExperiment

        workload = WorkloadSpec(qps=400.0, duration=0.5, warmup=0.1)
        plain = ExperimentSpec(workload=workload, seed=11)
        noop = ExperimentSpec(workload=workload, seed=11, faults=FaultPlanSpec())
        assert SingleMachineExperiment(plain).run().summary() == (
            SingleMachineExperiment(noop).run().summary()
        )

    def test_default_spec_hash_omits_unset_fields(self):
        """An unset (``None``) field, ``faults`` among them, is not encoded,
        so the default spec's cache key and golden spec hash stay pinned."""
        from repro.runtime.spec_hash import spec_hash

        spec = ExperimentSpec()
        assert (
            spec_hash(spec)
            == "681c6fc68a835ebcca1fa06e678bc7e2e13ccf381bdc458a8b9b50ddc3c7bf43"
        )
