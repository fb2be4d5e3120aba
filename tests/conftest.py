"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings as hypothesis_settings

# Named hypothesis profiles.  CI exports HYPOTHESIS_PROFILE=ci: derandomized
# (example generation is seeded per test, so a slow shared runner can never
# surface a new falsifying example that local runs then fail to reproduce)
# and with the deadline disabled (wall-clock flake under noisy-neighbour CI
# CPU is not a property violation).  Local runs keep the default profile and
# its randomized exploration.
hypothesis_settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
hypothesis_settings.register_profile("default", hypothesis_settings())
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# Make the fleet test helpers importable as ``fleet_testing`` from anywhere
# (tests/fleet has no conftest of its own: a third conftest.py would collide
# with the flat module names pytest gives tests/conftest.py and
# benchmarks/conftest.py).
_FLEET = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fleet")
if _FLEET not in sys.path:
    sys.path.insert(0, _FLEET)

from repro.config.schema import (  # noqa: E402
    ExperimentSpec,
    IndexServeSpec,
    MachineSpec,
    SchedulerSpec,
    WorkloadSpec,
)
from repro.hardware.machine import Machine  # noqa: E402
from repro.hostos.syscalls import Kernel  # noqa: E402
from repro.simulation.engine import SimulationEngine  # noqa: E402
from repro.simulation.randomness import RandomStreams  # noqa: E402


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/experiments/goldens/*.json and tests/fleet/goldens/*.json "
        "from the current simulator output instead of comparing against them",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    return request.config.getoption("--update-goldens")


@pytest.fixture
def engine() -> SimulationEngine:
    return SimulationEngine()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(42)


@pytest.fixture
def small_machine_spec() -> MachineSpec:
    """A small machine (8 logical cores) to keep scheduler tests fast."""
    return MachineSpec(sockets=1, cores_per_socket=4, threads_per_core=2)


@pytest.fixture
def machine(engine, small_machine_spec, rng) -> Machine:
    return Machine(engine, small_machine_spec, name="test-machine", rng=rng)


@pytest.fixture
def big_machine(engine, rng) -> Machine:
    """The paper's 48-logical-core server."""
    return Machine(engine, MachineSpec(), name="big-machine", rng=rng)


@pytest.fixture
def kernel(engine, machine) -> Kernel:
    return Kernel(engine, machine, SchedulerSpec())


@pytest.fixture
def big_kernel(engine, big_machine) -> Kernel:
    return Kernel(engine, big_machine, SchedulerSpec())


def make_fast_experiment_spec(
    qps: float = 600.0,
    duration: float = 1.0,
    warmup: float = 0.2,
    seed: int = 5,
    **overrides,
) -> ExperimentSpec:
    """A small, quick experiment specification for integration tests."""
    spec = ExperimentSpec(
        workload=WorkloadSpec(qps=qps, duration=duration, warmup=warmup, trace_queries=2000),
        indexserve=IndexServeSpec(),
        seed=seed,
    )
    return spec.replace(**overrides) if overrides else spec


@pytest.fixture
def fast_spec() -> ExperimentSpec:
    return make_fast_experiment_spec()


# ----------------------------------------------------------------- fleet tests
@pytest.fixture(scope="session")
def fleet_runner():
    """One runner (and cache) shared by every fleet test in the session.

    Calibration runs are the expensive part of a fleet simulation; sharing
    the cache means the tiny calibration specs are simulated exactly once.
    """
    from repro.runtime import ExperimentRunner, ResultCache

    return ExperimentRunner(max_workers=2, cache=ResultCache())


@pytest.fixture
def tiny_fleet_spec():
    from fleet_testing import make_tiny_fleet_spec

    return make_tiny_fleet_spec()
