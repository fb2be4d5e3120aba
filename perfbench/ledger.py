"""The per-layer ledger: spans around layer entry points plus a cProfile.

The traced pass wraps the public entry points of each layer from outside the
program, records a span per call (name, start, end, parent, run id), and
profiles the same run with ``cProfile``.  Self time is summed per package of
``src/repro``; time in C, builtin, numpy or stdlib code is charged to the
layer of the ``repro`` function that called it.

Spans and profile read the wall clock: the traced run is serial and single
threaded, so that is its CPU time plus any time the host took the processor
away.  The process CPU clock is a system call per profiler event and doubles
the traced run's length.

No wrapper changes an argument or a return value, and ``_simulate_shard`` is
never wrapped: its module and qualified name are part of every shard's cache
key.  This module imports ``repro`` only inside :meth:`Tracer.install`, so the
parent process can read :data:`LAYER_METRICS` without importing the program.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pickle
import pstats
import time
import uuid
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every per-layer metric: its kind (``count`` metrics must repeat exactly at
#: one seed; ``time`` metrics are profiled seconds or derived from them), the
#: end-to-end metrics it should move, the workload where it should move them,
#: and the workload where it should not.  Units and directions are in
#: ``BENCHMARK.json``.
LAYER_METRICS: Dict[str, Tuple[str, str, str, str]] = {
    "simulation.events": ("count", "wall_s, sim_s_per_s", "fig8", "hyperscale-warm"),
    "simulation.events_per_s": ("time", "wall_s, sim_s_per_s", "fig8", "hyperscale-warm"),
    "simulation.self_s": ("time", "wall_s, sim_s_per_s", "fig8", "hyperscale-warm"),
    "hostos.self_s": (
        "time", "wall_s, sim_s_per_s",
        "fig8; hyperscale-cold by at most the calibration share", "hyperscale-warm",
    ),
    "hostos.share_pct": (
        "time", "wall_s, sim_s_per_s",
        "fig8; hyperscale-cold by at most the calibration share", "hyperscale-warm",
    ),
    "hostos.spawn_thread_calls": ("count", "wall_s, sim_s_per_s", "fig8", "hyperscale-warm"),
    "hostos.effective_affinity_calls": ("count", "wall_s, sim_s_per_s", "fig8", "hyperscale-warm"),
    "hostos.dispatch_calls": ("count", "wall_s, sim_s_per_s", "fig8", "hyperscale-warm"),
    "hardware.self_s": ("time", "wall_s", "fig8", "hyperscale-cold, hyperscale-warm"),
    "hardware.disk_submits": ("count", "wall_s", "fig8", "hyperscale-cold, hyperscale-warm"),
    "tenants.self_s": ("time", "wall_s", "fig8", "hyperscale-warm"),
    "tenants.queries_completed": ("count", "wall_s", "fig8", "hyperscale-warm"),
    "tenants.queries_dropped": ("count", "wall_s", "fig8", "hyperscale-warm"),
    "core.self_s": ("time", "wall_s", "fig8", "hyperscale-warm"),
    "core.controller_updates": ("count", "wall_s", "fig8", "hyperscale-warm"),
    "workloads.self_s": ("time", "wall_s", "fig8", "hyperscale-warm"),
    "metrics.self_s": ("time", "wall_s", "fig8", "hyperscale-warm"),
    "experiments.self_s": ("time", "wall_s", "fig8", "hyperscale-warm"),
    "runtime.spec_hash_s": (
        "time", "wall_s, machines_per_s", "hyperscale-warm most, hyperscale-cold less", "fig8",
    ),
    "runtime.spec_hash_calls": (
        "count", "wall_s, machines_per_s", "hyperscale-warm most, hyperscale-cold less", "fig8",
    ),
    "runtime.deepcopy_s": (
        "time", "wall_s, machines_per_s", "hyperscale-warm most, hyperscale-cold less", "fig8",
    ),
    "runtime.self_s": (
        "time", "wall_s, machines_per_s", "hyperscale-warm most, hyperscale-cold less", "fig8",
    ),
    "runtime.cache_hits": (
        "count", "wall_s, peak_rss_mb", "hyperscale-warm (reads), hyperscale-cold (writes)", "fig8",
    ),
    "runtime.cache_misses": (
        "count", "wall_s, peak_rss_mb", "hyperscale-warm (reads), hyperscale-cold (writes)", "fig8",
    ),
    "runtime.cache_stores": (
        "count", "wall_s, peak_rss_mb", "hyperscale-warm (reads), hyperscale-cold (writes)", "fig8",
    ),
    "runtime.cache_hit_pct": (
        "count", "wall_s, peak_rss_mb", "hyperscale-warm (reads), hyperscale-cold (writes)", "fig8",
    ),
    "runtime.payload_mb": ("count", "wall_s, peak_rss_mb", "hyperscale-cold", "fig8"),
    "fleet.placement_s": ("time", "wall_s", "hyperscale-cold, hyperscale-warm equally", "fig8"),
    "fleet.shards_s": ("time", "wall_s", "hyperscale-cold", "hyperscale-warm"),
    "fleet.shard_tasks": ("count", "wall_s", "hyperscale-cold", "hyperscale-warm"),
    "fleet.machine_buckets": ("count", "wall_s", "hyperscale-cold", "hyperscale-warm"),
    "fleet.calibrate_s": (
        "time", "wall_s (cold), setup_s (warm)", "hyperscale-cold", "hyperscale-warm wall_s",
    ),
    "fleet.rollout_s": ("time", "wall_s", "hyperscale-cold, hyperscale-warm", "fig8"),
    "fleet.self_s": ("time", "wall_s", "hyperscale-cold, hyperscale-warm", "fig8"),
    "trace.overhead_pct": ("time", "none", "all", "none"),
}

#: Layers whose profiled self time the ledger reports as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "simulation", "hostos", "hardware", "tenants", "core",
    "workloads", "metrics", "experiments", "runtime", "fleet",
)

#: Layer charged with the benchmark's own code: the harness and its wrappers.
BENCH_LAYER = "bench"
BENCH_ROOT = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: Functions whose exact call counts the ledger reports: (file under
#: ``src/repro``, function name) -> metric.
CALL_COUNTS = {
    ("hostos/syscalls.py", "spawn_thread"): "hostos.spawn_thread_calls",
    ("hostos/thread.py", "effective_affinity"): "hostos.effective_affinity_calls",
    ("hostos/scheduler.py", "_dispatch"): "hostos.dispatch_calls",
    ("hardware/disk.py", "submit"): "hardware.disk_submits",
}

clock = time.perf_counter

Func = Tuple[str, int, str]


class Tracer:
    """Spans and counters around the layers' entry points, plus a profile."""

    def __init__(self, src_root: str) -> None:
        self.src_root = os.path.join(os.path.abspath(src_root), "repro") + os.sep
        self.run_id = uuid.uuid4().hex
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.counts: Dict[str, int] = dict.fromkeys(
            (
                "simulation.events",
                "tenants.queries_completed",
                "tenants.queries_dropped",
                "core.controller_updates",
                "fleet.shard_tasks",
            ),
            0,
        )
        #: (payloads, results) of every fan-out, pickled after profiling stops.
        self._fanned: List[Tuple[Any, Any]] = []
        self.profile = cProfile.Profile()

    # ------------------------------------------------------------ wrapping
    def _wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._open

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = before(*args, **kwargs) if before is not None else None
            span = {
                "name": name,
                "start": clock(),
                "end": None,
                "parent": stack[-1] if stack else None,
                "run": self.run_id,
            }
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span["end"] = clock()
            if after is not None:
                after(span, token, result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        from repro.experiments.single_machine import SingleMachineExperiment
        from repro.fleet import simulate
        from repro.fleet.model import FleetModel
        from repro.runtime import cache, runner
        from repro.simulation.engine import SimulationEngine

        counts = self.counts

        def after_map(span, _token, _result, _runner, fn, items, *args, **kwargs):
            if fn is simulate._simulate_shard:
                span["shards"] = True
                counts["fleet.shard_tasks"] += len(items)

        def after_fan_out(_span, _token, results, _runner, _fn, payloads):
            if payloads:
                self._fanned.append((payloads, results))

        def after_experiment(_span, _token, result, *args, **kwargs):
            counts["tenants.queries_completed"] += result.queries_completed
            counts["tenants.queries_dropped"] += result.queries_dropped
            counts["core.controller_updates"] += result.controller_updates

        def after_engine(_span, before, _result, engine, *args, **kwargs):
            counts["simulation.events"] += engine.events_executed - before

        self._wrap(simulate.FleetSimulation, "run", "fleet.run")
        self._wrap(FleetModel, "calibrate", "fleet.calibrate")
        self._wrap(simulate, "plan_placement", "fleet.placement")
        self._wrap(runner.ExperimentRunner, "map", "runtime.map", after=after_map)
        self._wrap(runner.ExperimentRunner, "run_batch", "runtime.run_batch")
        self._wrap(runner.ExperimentRunner, "_fan_out", "runtime.fan_out", after=after_fan_out)
        self._wrap(runner, "spec_hash", "runtime.spec_hash")
        self._wrap(cache.ResultCache, "get", "runtime.cache_get")
        self._wrap(cache.ResultCache, "put", "runtime.cache_put")
        self._wrap(
            SingleMachineExperiment, "run", "experiments.single_machine", after=after_experiment
        )
        self._wrap(
            SimulationEngine,
            "run",
            "simulation.run",
            before=lambda engine, *args, **kwargs: engine.events_executed,
            after=after_engine,
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- running
    def run(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``fn`` traced; returns its result and the traced wall time."""
        self.install()
        start = time.perf_counter()
        try:
            result = self.profile.runcall(fn)
        finally:
            wall = time.perf_counter() - start
            self.uninstall()
        return result, wall

    def span_seconds(self, name: str, where: Optional[Callable[[Dict], bool]] = None) -> float:
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and (where is None or where(span))
        )

    def payload_bytes(self) -> int:
        """Pickled size of everything the runner fanned out, and its results."""
        return sum(
            len(pickle.dumps(payloads, protocol=pickle.HIGHEST_PROTOCOL))
            + len(pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL))
            for payloads, results in self._fanned
        )

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **span}, sort_keys=True) + "\n")

    # ------------------------------------------------------------- profile
    def layer_of(self, filename: str) -> Optional[str]:
        """The ``src/repro`` package a source file belongs to, the benchmark's
        own layer, or ``None`` for foreign code."""
        if filename.startswith(BENCH_ROOT):
            return BENCH_LAYER
        if not filename.startswith(self.src_root):
            return None
        head, sep, _ = filename[len(self.src_root):].partition(os.sep)
        return head if sep else "repro"

    def self_seconds_by_layer(self) -> Dict[str, float]:
        """Profiled self time per layer, foreign code charged to its callers.

        A function outside ``src/repro`` splits its self time over its callers
        in proportion to the time each call edge took, transitively, until it
        reaches ``repro`` or benchmark code.  Time with neither as a caller
        belongs to the benchmark.
        """
        stats = pstats.Stats(self.profile).stats
        share: Dict[Func, Dict[str, float]] = {}
        foreign: List[Func] = []
        for func in stats:
            layer = self.layer_of(func[0])
            if layer is not None:
                share[func] = {layer: 1.0}
            else:
                foreign.append(func)
                share[func] = {}
        for _ in range(500):
            moved = 0.0
            for func in foreign:
                callers = stats[func][4]
                weights = {caller: edge[2] for caller, edge in callers.items()}
                total = sum(weights.values())
                if total <= 0.0:
                    weights = {caller: edge[0] for caller, edge in callers.items()}
                    total = sum(weights.values())
                mixed: Dict[str, float] = defaultdict(float)
                for caller, weight in weights.items():
                    for layer, part in share[caller].items():
                        mixed[layer] += part * weight / total
                old = share[func]
                moved = max(
                    moved, max((abs(mixed[k] - old.get(k, 0.0)) for k in mixed), default=0.0)
                )
                share[func] = dict(mixed)
            if moved < 1e-9:
                break
        seconds: Dict[str, float] = defaultdict(float)
        for func, entry in stats.items():
            tt = entry[2]
            placed = 0.0
            for layer, part in share[func].items():
                seconds[layer] += tt * part
                placed += part
            seconds[BENCH_LAYER] += tt * max(0.0, 1.0 - placed)
        return dict(seconds)

    def call_counts(self) -> Dict[str, int]:
        counts = {metric: 0 for metric in CALL_COUNTS.values()}
        for (filename, _, name), entry in pstats.Stats(self.profile).stats.items():
            if filename.startswith(self.src_root):
                metric = CALL_COUNTS.get((filename[len(self.src_root):], name))
                if metric is not None:
                    counts[metric] += entry[1]
        return counts

    def deepcopy_seconds(self) -> float:
        """Cumulative time of ``copy.deepcopy`` calls made by the runtime layer."""
        total = 0.0
        for (filename, _, name), entry in pstats.Stats(self.profile).stats.items():
            if name == "deepcopy" and os.path.basename(filename) == "copy.py":
                for caller, edge in entry[4].items():
                    if self.layer_of(caller[0]) == "runtime":
                        total += edge[3]
        return total
