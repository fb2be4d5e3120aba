"""Parallel experiment runtime.

Single-machine experiments are embarrassingly parallel — each one owns its
engine, kernel and named random streams, and is a pure function of its
``ExperimentSpec`` — so the figure harnesses fan whole batches of specs
across worker processes instead of running them back to back.  Three
properties the harnesses rely on:

* **Deterministic ordering** — results come back in task order regardless of
  which worker finished first, so figure rows are byte-identical whether a
  batch ran serially or across N processes.
* **Batch deduplication** — identical specs inside one batch (every figure
  re-runs the standalone baseline) execute exactly once.
* **Shared caching** — results are stored in a content-addressed
  :class:`~repro.runtime.cache.ResultCache` keyed on the spec hash, so
  different harnesses (the figure scenarios, Figure 10's calibration, the
  benchmarks) reuse each other's runs.
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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config.schema import ExperimentSpec
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

#: Cache-miss sentinel so a legitimately cached ``None`` is still a hit.
_MISS = object()


def _single_machine_namespace() -> str:
    """Version-stamped cache namespace for single-machine experiment runs."""
    return versioned_namespace("single-machine")


@dataclass(frozen=True)
class ExperimentTask:
    """One single-machine run requested from the runner.

    ``scenario`` is a presentation label only — it does not participate in the
    cache key, so the same spec run under different labels is computed once.
    """

    spec: ExperimentSpec
    scenario: str = "custom"


@dataclass
class RunOutcome:
    """A completed (or cache-served) single-machine run."""

    result: SingleMachineResult
    #: Post-warm-up latency samples (seconds) — what calibration interpolates.
    latency_samples: np.ndarray = field(default_factory=lambda: np.empty(0))
    key: str = ""
    from_cache: bool = False


def _execute_single_machine(
    payload: Tuple[ExperimentSpec, str],
) -> Tuple[SingleMachineResult, np.ndarray]:
    """Worker entry point: run one experiment and return result + samples."""
    spec, scenario = payload
    experiment = SingleMachineExperiment(spec, scenario=scenario)
    result = experiment.run()
    return result, experiment.primary.collector.samples()


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

    # ------------------------------------------------------------ properties
    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def cache(self) -> ResultCache:
        return self._cache

    def _parallel(self, pending: int) -> bool:
        return pending > 1 and self._max_workers > 1 and self._mp_context is not None

    def _fan_out(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> List[Any]:
        """The one execution strategy: process pool when it pays, else serial.

        A :class:`BrokenProcessPool` (a worker died mid-batch) is retried on
        a fresh pool with capped exponential backoff; if every attempt dies
        the batch runs serially — slower, but it completes, and a worker that
        crashes deterministically then raises the real error in-process where
        it is debuggable.
        """
        if not self._parallel(len(payloads)):
            return [fn(payload) for payload in payloads]
        workers = min(self._max_workers, len(payloads))
        chunksize = -(-len(payloads) // (workers * self.CHUNKS_PER_WORKER))
        for attempt in range(self.POOL_ATTEMPTS):
            try:
                with ProcessPoolExecutor(
                    max_workers=workers, mp_context=self._mp_context
                ) as pool:
                    return list(pool.map(fn, payloads, chunksize=chunksize))
            except BrokenProcessPool:
                self.pool_failures += 1
                delay = min(
                    self.POOL_BACKOFF_BASE * (2**attempt), self.POOL_BACKOFF_CAP
                )
                if delay > 0:
                    time.sleep(delay)
        return [fn(payload) for payload in payloads]

    # --------------------------------------------------------------- mapping
    def map(
        self,
        fn: Callable[..., Any],
        items: Sequence[tuple],
        cache_namespace: Optional[str] = None,
    ) -> List[Any]:
        """Run ``fn(*args)`` for every args-tuple with deterministic ordering.

        ``fn`` must be a module-level callable and its arguments and return
        value picklable.  Used for coarse-grained work that is not a
        single-machine experiment (e.g. full cluster simulations, fleet
        shards).  Without a ``cache_namespace`` (or on a ``use_cache=False``
        runner) this is a plain ordered fan-out: every payload runs, no key
        is computed, and every result is its own object.  With one, each call
        is cached under the hash of ``(fn, args)`` in that namespace —
        only sound when ``fn`` is a deterministic function of its arguments
        — identical payloads in one batch execute once, and every keyed
        result is handed out as a deep copy.
        """
        payloads = [(fn, tuple(args)) for args in items]
        if cache_namespace is None or not self._use_cache:
            return self._fan_out(_call, payloads)
        keys: List[Optional[str]] = []
        for _, args in payloads:
            try:
                keys.append(
                    spec_hash(
                        [fn.__module__, fn.__qualname__, list(args)],
                        namespace=cache_namespace,
                    )
                )
            except TypeError:
                # Unencodable argument: run this payload as-is, uncached.
                keys.append(None)

        results: List[Any] = [_MISS] * len(payloads)
        pending: List[int] = []
        first: Dict[str, int] = {}
        for index, key in enumerate(keys):
            if key is not None:
                if key in first:
                    continue  # duplicate payload: computed once, copied below
                first[key] = index
                hit = self._cache.get(key, default=_MISS)
                if hit is not _MISS:
                    results[index] = hit
                    continue
            pending.append(index)

        values = self._fan_out(_call, [payloads[index] for index in pending])
        for index, value in zip(pending, values):
            results[index] = value
            if keys[index] is not None:
                self._cache.put(keys[index], value)

        # Every keyed value is shared with the cache (and with any duplicate
        # payloads), so no caller may receive it un-copied.
        return [
            results[index] if key is None else copy.deepcopy(results[first[key]])
            for index, key in enumerate(keys)
        ]

    # --------------------------------------------------------------- batches
    def run_batch(self, tasks: Sequence[ExperimentTask]) -> List[RunOutcome]:
        """Run every task, returning outcomes in task order.

        Cache hits are served without simulating; identical specs appearing
        multiple times in the batch are simulated once.
        """
        namespace = _single_machine_namespace()
        keys = [spec_hash(task.spec, namespace=namespace) for task in tasks]
        cached: Dict[str, Tuple[SingleMachineResult, np.ndarray]] = {}
        pending: Dict[str, ExperimentTask] = {}
        for task, key in zip(tasks, keys):
            if key in cached or key in pending:
                continue
            hit = self._cache.get(key, default=_MISS) if self._use_cache else _MISS
            if hit is not _MISS:
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

    def run(self, spec: ExperimentSpec, scenario: str = "custom") -> SingleMachineResult:
        """Convenience wrapper: run (or fetch) one experiment."""
        return self.run_batch([ExperimentTask(spec, scenario)])[0].result

    # ------------------------------------------------------------- internals
    def _execute_pending(
        self, pending: Dict[str, ExperimentTask]
    ) -> Dict[str, Tuple[SingleMachineResult, np.ndarray]]:
        if not pending:
            return {}
        keys = list(pending)
        payloads = [(pending[key].spec, pending[key].scenario) for key in keys]
        return dict(zip(keys, self._fan_out(_execute_single_machine, payloads)))


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
