"""One repetition of one workload, in a fresh process.

Usage: ``python3 perfbench/rep.py WORKLOAD SEED MODE [ARG]`` with
``PYTHONPATH`` naming the program's ``src`` directory.  ``run.py`` starts one
of these per repetition so that each starts from the state a user's fresh
invocation has: no query-trace memo, spec-hash memo, default runner or warm
cache carries over between repetitions.  The warm fleet primes its cache in
set-up on purpose, and that priming counts as set-up.

Modes:

* ``time`` -- the timed run on the workload's own worker count, untraced.
  ARG is a budget in seconds: a ``Workload.repeatable`` workload re-runs
  until its timed runs add up to the budget, any other runs once;
* ``serial`` -- one run on one worker: the untraced reference of the traced
  pass;
* ``trace`` -- one worker, under :class:`ledger.Tracer`; ARG is the path the
  spans are written to.

Prints one JSON object on its last line of standard output: ``wall_s`` lists
the timed runs, and
``setup_end`` is the system-wide monotonic clock at the first timed call, so
the parent can measure set-up from the moment it started this process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _cache_counts(cache, before) -> dict:
    """The cache's own counters since ``before`` = (hits, misses, stores)."""
    hits, misses, stores = (
        now - then for now, then in zip((cache.hits, cache.misses, cache.stores), before)
    )
    return {
        "runtime.cache_hits": hits,
        "runtime.cache_misses": misses,
        "runtime.cache_stores": stores,
        "runtime.cache_hit_pct": 100.0 * hits / (hits + misses) if hits + misses else 0.0,
    }


def main(argv) -> dict:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    from workloads import WORKLOADS, fingerprint

    workload = WORKLOADS[name]
    workers = workload.workers if mode == "time" else 1
    state = workload.setup(seed, workers)
    cache = state["runner"].cache
    before = (cache.hits, cache.misses, cache.stores)
    record = {
        "workers": workers,
        "work": workload.work,
        "work_unit": workload.work_unit,
    }
    if mode == "trace":
        from ledger import Tracer

        tracer = Tracer(os.environ["PERFBENCH_SRC"])
        record["setup_end"] = time.monotonic()
        output, wall = tracer.run(lambda: workload.run(state))
        walls, failures = [wall], workload.check(state, output)
        record["layers"] = tracer.self_seconds_by_layer()
        counts = dict(tracer.counts)
        counts.update(tracer.call_counts())
        counts["runtime.spec_hash_calls"] = sum(
            1 for span in tracer.spans if span["name"] == "runtime.spec_hash"
        )
        counts["runtime.payload_mb"] = tracer.payload_bytes() / 1e6
        record["times"] = {
            "runtime.spec_hash_s": tracer.span_seconds("runtime.spec_hash"),
            "runtime.deepcopy_s": tracer.deepcopy_seconds(),
            "fleet.placement_s": tracer.span_seconds("fleet.placement"),
            "fleet.shards_s": tracer.span_seconds("runtime.map", lambda s: s.get("shards")),
            "fleet.calibrate_s": tracer.span_seconds("fleet.calibrate"),
            "fleet.run_s": tracer.span_seconds("fleet.run"),
        }
        tracer.write_spans(argv[3])
    else:
        budget = float(argv[3]) if mode == "time" and workload.repeatable else 0.0
        record["setup_end"] = time.monotonic()
        walls, failures = [], []
        while not walls or sum(walls) < budget:
            start = time.perf_counter()
            output = workload.run(state)
            walls.append(time.perf_counter() - start)
            failures.extend(workload.check(state, output))
        counts = {}
    counts.update(_cache_counts(cache, before))
    counts["fleet.machine_buckets"] = getattr(output, "machine_buckets", 0)
    record.update(
        wall_s=walls,
        peak_rss_mb=_peak_rss_mb(),
        counts=counts,
        failures=failures,
        fingerprint=fingerprint(workload.summary(output)),
    )
    return record


if __name__ == "__main__":
    try:
        result = main(sys.argv[1:])
    except Exception:
        traceback.print_exc()
        result = {"failures": ["repetition raised:\n" + traceback.format_exc()]}
    print(json.dumps(result, sort_keys=True))
