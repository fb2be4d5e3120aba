"""Parallel experiment runtime.

Simulations are embarrassingly parallel — each single machine or cluster
owns its engine, kernels and named random streams, and is a pure function of
its ``ExperimentSpec`` or ``ClusterScenario`` — so the figure harnesses fan
whole batches of specs across worker processes instead of running them back
to back.  Three properties the harnesses rely on:

* **Deterministic ordering** — results come back in task order regardless of
  which worker finished first, so figure rows are byte-identical whether a
  batch ran serially or across N processes.
* **Batch deduplication** — identical specs inside one batch (every figure
  re-runs the standalone baseline) execute exactly once.
* **Shared caching** — results are stored in a content-addressed
  :class:`~repro.runtime.cache.ResultCache` keyed on the spec hash, so
  different harnesses (the figure scenarios, Figure 10's calibration, the
  benchmarks) reuse each other's runs.

A fan-out builds its worker pool and shuts it down before it returns, unless
it runs inside :meth:`ExperimentRunner.scope`: every fan-out in a scope
reuses one pool, whose workers are joined when the scope exits.  A fleet run
is one scope, so its calibration and every stage's shards fork workers once.
"""

from __future__ import annotations

import copy
import dataclasses
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..cluster.simulated import ClusterResult, SimulatedCluster
from ..config.schema import ClusterScenario, ExperimentSpec
from ..errors import ConfigError
from ..experiments.single_machine import SingleMachineExperiment, SingleMachineResult
from .cache import ResultCache, default_cache
from .spec_hash import spec_hash, versioned_namespace

__all__ = [
    "ExperimentTask",
    "RunOutcome",
    "ExperimentRunner",
    "default_runner",
    "reset_default_runner",
]

#: Environment variable overriding the worker count (0 or 1 forces serial).
WORKERS_ENV = "REPRO_RUNNER_WORKERS"

#: The cache namespace of each kind of spec the runner simulates.
_NAMESPACES = {ExperimentSpec: "single-machine", ClusterScenario: "cluster"}

#: Any spec the runner simulates, and its result.
Spec = Union[ExperimentSpec, ClusterScenario]
Result = Union[SingleMachineResult, ClusterResult]


@dataclass(frozen=True)
class ExperimentTask:
    """One single-machine or cluster run requested from the runner.

    ``scenario`` is a presentation label only — it does not participate in the
    cache key, so the same spec run under different labels is computed once.
    """

    spec: Spec
    scenario: str = "custom"


@dataclass
class RunOutcome:
    """A completed (or cache-served) run."""

    result: Result
    #: A single machine's post-warm-up latency samples (seconds) — what
    #: calibration interpolates.  Empty for a cluster run.
    latency_samples: np.ndarray = field(default_factory=lambda: np.empty(0))
    key: str = ""
    from_cache: bool = False


def _execute(payload: Tuple[Spec, str]) -> Tuple[Result, np.ndarray]:
    """Worker entry point: run one spec and return its result and samples."""
    spec, scenario = payload
    if isinstance(spec, ClusterScenario):
        return SimulatedCluster(spec, name=scenario).run(), np.empty(0)
    experiment = SingleMachineExperiment(spec, scenario=scenario)
    result = experiment.run()
    return result, experiment.assembly.collector.samples()


def _call(payload: Tuple[Callable[..., Any], tuple]) -> Any:
    fn, args = payload
    return fn(*args)


class ExperimentRunner:
    """Executes experiment batches across worker processes with caching."""

    #: A dead worker (OOM kill, segfault, fork bomb victim) breaks the whole
    #: :class:`ProcessPoolExecutor`, not just its own task.  The batch retries
    #: on a fresh pool this many times with capped exponential backoff, then
    #: degrades to serial execution rather than losing the batch.
    POOL_ATTEMPTS = 3
    POOL_BACKOFF_BASE = 0.1
    POOL_BACKOFF_CAP = 2.0
    #: Tasks go to the pool in about this many chunks per worker, so hundreds
    #: of short tasks (fleet shards) stop paying one round trip apiece; a
    #: batch of at most ``workers * 8`` tasks still goes one task at a time,
    #: and a larger one leaves any worker a tail of at most one chunk.
    CHUNKS_PER_WORKER = 8

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        use_cache: bool = True,
    ) -> None:
        if max_workers is None:
            env = os.environ.get(WORKERS_ENV)
            if env:
                try:
                    max_workers = int(env)
                except ValueError:
                    raise ConfigError(
                        f"{WORKERS_ENV} must be an integer, got {env!r}"
                    ) from None
            else:
                max_workers = os.cpu_count() or 1
        self._max_workers = max(1, int(max_workers))
        self._cache = cache if cache is not None else default_cache()
        self._use_cache = use_cache
        #: Broken pools survived via retry or serial fallback (observability).
        self.pool_failures = 0
        # Worker processes are forked so they inherit the imported simulator
        # and the parent's sys.path.  Fork is only safe on Linux (macOS
        # advertises it but fork-without-exec can abort inside system
        # frameworks); everywhere else we run serially rather than depend on
        # spawn re-imports finding the package.
        self._mp_context = (
            multiprocessing.get_context("fork")
            if sys.platform.startswith("linux")
            and "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        #: The open scope, which shuts its pool down, and that pool, built
        #: at the scope's first parallel fan-out (see :meth:`scope`).
        self._scope: Optional[ExitStack] = None
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------ properties
    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def cache(self) -> ResultCache:
        return self._cache

    def _parallel(self, pending: int) -> bool:
        return pending > 1 and self._max_workers > 1 and self._mp_context is not None

    @contextmanager
    def scope(self) -> Iterator[None]:
        """Share one worker pool among every fan-out inside the block.

        The pool is built at the block's first parallel fan-out, with
        ``max_workers`` workers, and shut down with its workers joined when
        the block exits, on success or on error, so none outlives it: a
        parent reading ``RUSAGE_CHILDREN`` afterwards counts every worker,
        and a later block's workers see the parent as it is then.  A nested
        scope uses the outer one's pool.
        """
        if self._scope is not None:
            yield
            return
        self._scope = ExitStack()
        try:
            yield
        finally:
            scope, self._scope, self._pool = self._scope, None, None
            scope.close()

    def _fan_out(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> List[Any]:
        """The one execution strategy: process pool when it pays, else serial.

        The pool is the open scope's; outside a scope the fan-out is a scope
        of its own, whose pool is sized to the batch.  A
        :class:`BrokenProcessPool` (a worker died mid-batch) discards the
        pool and retries on a fresh one with capped exponential backoff; if
        every attempt dies the batch runs serially — slower, but it
        completes, and a worker that crashes deterministically then raises
        the real error in-process where it is debuggable.
        """
        if not self._parallel(len(payloads)):
            return [fn(payload) for payload in payloads]
        workers = min(self._max_workers, len(payloads))
        chunksize = -(-len(payloads) // (workers * self.CHUNKS_PER_WORKER))
        pool_workers = self._max_workers if self._scope is not None else workers
        with self.scope():
            for attempt in range(self.POOL_ATTEMPTS):
                if self._pool is None:
                    self._pool = self._scope.enter_context(
                        ProcessPoolExecutor(
                            max_workers=pool_workers, mp_context=self._mp_context
                        )
                    )
                try:
                    return list(self._pool.map(fn, payloads, chunksize=chunksize))
                except BrokenProcessPool:
                    self.pool_failures += 1
                    self._pool = None
                    self._scope.close()
                    delay = min(
                        self.POOL_BACKOFF_BASE * (2**attempt), self.POOL_BACKOFF_CAP
                    )
                    if delay > 0:
                        time.sleep(delay)
            return [fn(payload) for payload in payloads]

    # --------------------------------------------------------------- mapping
    def map(self, fn: Callable[..., Any], items: Sequence[tuple]) -> List[Any]:
        """Run ``fn(*args)`` for every args-tuple with deterministic ordering.

        ``fn`` must be a module-level callable and its arguments and return
        value picklable.  This is a plain ordered fan-out for work that is
        not a simulation spec (the fleet's shards): every payload runs, no
        key is computed, nothing is cached, and every result is its own
        object.  Inside :meth:`scope` it runs on the scope's pool, so a
        fleet run's stages fork no workers of their own.
        """
        return self._fan_out(_call, [(fn, tuple(args)) for args in items])

    # --------------------------------------------------------------- batches
    def run_batch(self, tasks: Sequence[ExperimentTask]) -> List[RunOutcome]:
        """Run every task, returning outcomes in task order.

        Cache hits are served without simulating; identical specs appearing
        multiple times in the batch are simulated once.  Each kind of spec
        is keyed in its own cache namespace.
        """
        keys = [
            spec_hash(task.spec, namespace=versioned_namespace(_NAMESPACES[type(task.spec)]))
            for task in tasks
        ]
        cached: Dict[str, Tuple[Result, np.ndarray]] = {}
        pending: Dict[str, ExperimentTask] = {}
        for task, key in zip(tasks, keys):
            if key in cached or key in pending:
                continue
            hit = self._cache.get(key) if self._use_cache else None
            if hit is not None:
                cached[key] = hit
            else:
                pending[key] = task

        computed = self._execute_pending(pending)
        for key, value in computed.items():
            if self._use_cache:
                self._cache.put(key, value)

        outcomes: List[RunOutcome] = []
        for task, key in zip(tasks, keys):
            from_cache = key in cached
            result, samples = cached[key] if from_cache else computed[key]
            outcomes.append(
                RunOutcome(
                    # Relabel for the requesting harness, on a deep copy: the
                    # stored payload is shared by every future cache hit, so
                    # no caller may ever receive an aliased mutable field.
                    result=dataclasses.replace(
                        copy.deepcopy(result), scenario=task.scenario
                    ),
                    latency_samples=samples.copy(),
                    key=key,
                    from_cache=from_cache,
                )
            )
        return outcomes

    def run(self, spec: Spec, scenario: str = "custom") -> Result:
        """Convenience wrapper: run (or fetch) one experiment."""
        return self.run_batch([ExperimentTask(spec, scenario)])[0].result

    # ------------------------------------------------------------- internals
    def _execute_pending(
        self, pending: Dict[str, ExperimentTask]
    ) -> Dict[str, Tuple[Result, np.ndarray]]:
        if not pending:
            return {}
        keys = list(pending)
        payloads = [(pending[key].spec, pending[key].scenario) for key in keys]
        return dict(zip(keys, self._fan_out(_execute, payloads)))


_default: Optional[ExperimentRunner] = None


def default_runner() -> ExperimentRunner:
    """The process-wide runner used by the figure harnesses by default."""
    global _default
    if _default is None:
        _default = ExperimentRunner()
    return _default


def reset_default_runner() -> None:
    """Forget the process-wide runner (used by tests and benchmarks)."""
    global _default
    _default = None
