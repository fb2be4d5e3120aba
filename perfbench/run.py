"""The repository's benchmark: one workload, timed or traced, with its checks.

Run from the repository root::

    python3 perfbench/run.py --workload fig8 --seed 1 --seconds 25 --trace 0

``--trace 0`` runs fresh-process repetitions of the workload for about
``--seconds`` seconds (at least three timed runs) with tracing off, checks
every output, and reports the median of each end-to-end metric.  ``--trace 1`` is the
per-layer ledger: one untraced serial reference run and two traced serial runs
(see ``ledger.py``), whose exact counts must agree.  Metric names, units and
directions come from ``BENCHMARK.json``; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The workloads (``workloads.py``) are batch jobs run as a closed loop: one
client and one job at a time, at most two worker processes.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from ledger import BENCH_LAYER, LAYER_METRICS, SELF_TIME_LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where traced runs write their spans (ignored by git).
SPANS_DIR = os.path.join(ROOT, ".perfbench")

#: Every run ends well inside the 180 s a run may take.
DEADLINE_S = 165.0
#: Timed runs per workload run, at the least.
MIN_RUNS = 3
#: Share of the traced wall time that the program's own layers must cover.
#: The rest is the benchmark's harness and wrappers; a lower share means the
#: profile charged program time to the harness.
MIN_LAYER_COVERAGE = 0.8
#: Units of the end-to-end figures printed but not recorded: the throughputs
#: are ``work / wall_s`` for one workload each, and ``failed_pct`` is carried
#: by the result's ``attempted`` and ``failed``.
PRINTED_UNITS = {"sim_s_per_s": "sim_s/s", "machines_per_s": "1/s", "failed_pct": "%"}
TRACED_RUNS = 2


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> Dict[str, str]:
    """A hermetic environment: the checkout's sources, no user cache or
    worker overrides, a fixed hash seed so exact counts repeat, and one BLAS
    thread so a run uses no more processors than its workers."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(
        PYTHONPATH=SRC,
        PERFBENCH_SRC=SRC,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _spawn(workload: str, seed: int, mode: str, deadline: float, arg: Optional[str] = None):
    """Run one repetition in a fresh process group and return its record."""
    command = [sys.executable, os.path.join(HERE, "rep.py"), workload, str(seed), mode]
    if arg is not None:
        command.append(arg)
    started = time.monotonic()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        stdout = ""
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"failures": [f"{mode} repetition exited {process.returncode} without a result"]}
    if "setup_end" in record:
        record["setup_s"] = record["setup_end"] - started
    return record


def _quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _git_commit() -> Optional[str]:
    """HEAD's commit, from a loose ref or ``packed-refs``; None without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
                for line in handle:
                    commit, _, name = line.strip().partition(" ")
                    if name == ref:
                        return commit
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of every program source file, for checkouts without git."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _host_stamp(workers: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpu_count": cpus,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workers": workers,
        "workers_exceed_cpus": workers > (cpus or 1),
    }


def _compare(records: List[dict], failures: List[str]) -> None:
    """Same code, same seed: fingerprints and exact counts must repeat."""
    fingerprints = {record["fingerprint"] for record in records}
    if len(fingerprints) > 1:
        failures.append(f"output fingerprints differ across repetitions: {sorted(fingerprints)}")
    reference = records[0]["counts"]
    for record in records[1:]:
        for name, value in record["counts"].items():
            if reference.get(name) != value:
                failures.append(f"count {name} is not exact: {reference.get(name)} vs {value}")


def _timed(workload: str, seed: int, seconds: int, begun: float):
    records: List[dict] = []
    deadline = begun + DEADLINE_S
    started = time.monotonic()
    longest = 0.0
    while (
        sum(len(record.get("wall_s", ())) for record in records) < MIN_RUNS
        or time.monotonic() - started < seconds
    ):
        now = time.monotonic()
        if records and now + longest > deadline:
            break
        budget = max(0.0, seconds - (now - started))
        records.append(_spawn(workload, seed, "time", deadline, f"{budget:.3f}"))
        longest = max(longest, time.monotonic() - now)
    return records


def _traced(workload: str, seed: int, begun: float):
    deadline = begun + DEADLINE_S
    reference = _spawn(workload, seed, "serial", deadline)
    traced = [
        _spawn(
            workload, seed, "trace", deadline,
            os.path.join(SPANS_DIR, f"spans-{workload}-{seed}-{index}.jsonl"),
        )
        for index in range(TRACED_RUNS)
    ]
    return reference, traced


def _layer_metrics(reference: dict, traced: List[dict]) -> Dict[str, float]:
    def median(pick):
        return statistics.median(pick(record) for record in traced)

    counts = traced[0]["counts"]
    metrics: Dict[str, float] = {name: float(value) for name, value in counts.items()}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = median(lambda r: r["layers"].get(layer, 0.0))
    metrics["hostos.share_pct"] = 100.0 * median(
        lambda r: r["layers"].get("hostos", 0.0) / sum(r["layers"].values())
    )
    for name in traced[0]["times"]:
        metrics[name] = median(lambda r: r["times"][name])
    metrics["fleet.rollout_s"] = metrics.pop("fleet.run_s") - (
        metrics["fleet.calibrate_s"] + metrics["fleet.placement_s"] + metrics["fleet.shards_s"]
    )
    untraced = reference["wall_s"][0]
    metrics["simulation.events_per_s"] = counts["simulation.events"] / untraced
    metrics["trace.overhead_pct"] = 100.0 * (median(lambda r: r["wall_s"][0]) / untraced - 1.0)
    return metrics


def _select(declared: List[dict], computed: Dict[str, float]) -> Dict[str, dict]:
    missing = [entry["name"] for entry in declared if entry["name"] not in computed]
    if missing:
        _fail(f"BENCHMARK.json names metrics this benchmark does not compute: {missing}")
    return {
        entry["name"]: {"value": computed[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    begun = time.monotonic()
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        _fail(f"cannot read BENCHMARK.json: {error}")
    workloads = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    if args.workload not in workloads:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    if args.seed < 0 or args.seconds < 1:
        _fail("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail(f"no program sources under {SRC}; run from a full checkout")
    if sorted(LAYER_METRICS) != sorted(entry["name"] for entry in spec["per_layer"]):
        _fail("BENCHMARK.json per_layer and ledger.LAYER_METRICS name different metrics")
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    print(f"workload {args.workload} (seed {args.seed}): {workloads[args.workload]}")
    failures: List[str] = []
    if args.trace:
        reference, traced = _traced(args.workload, args.seed, begun)
        records = [reference] + traced
    else:
        records = _timed(args.workload, args.seed, args.seconds, begun)
    attempted = failed = 0
    for index, record in enumerate(records):
        runs = max(1, len(record.get("wall_s", ())))
        attempted += runs
        if record["failures"]:
            failed += runs
            failures.extend(f"repetition {index + 1}: {text}" for text in record["failures"])
    good = [record for record in records if not record["failures"]]
    if not good:
        print("\n".join(failures), file=sys.stderr)
        _fail("every repetition failed")

    if args.trace:
        good_traced = [record for record in traced if not record["failures"]]
        if reference["failures"] or not good_traced:
            print("\n".join(failures), file=sys.stderr)
            _fail("the traced pass failed")
        _compare(good_traced, failures)
        if reference["fingerprint"] != good_traced[0]["fingerprint"]:
            failures.append("tracing changed the workload's outputs")
        for record in good_traced:
            wall = record["wall_s"][0]
            covered = sum(
                seconds for layer, seconds in record["layers"].items() if layer != BENCH_LAYER
            )
            print(f"program layers cover {covered:.3f} s of the traced {wall:.3f} s")
            if not MIN_LAYER_COVERAGE * wall <= covered <= wall:
                failures.append(
                    f"program layers' self times sum to {covered:.3f} s, outside "
                    f"[{MIN_LAYER_COVERAGE:.0%}, 100%] of the traced {wall:.3f} s"
                )
        metrics = _select(spec["per_layer"], _layer_metrics(reference, good_traced))
        print(f"{'metric':34} {'value':>14} {'unit':6} {'kind':5}  moves / on workload / not on")
        for name, entry in metrics.items():
            kind, moves, on, not_on = LAYER_METRICS[name]
            print(
                f"{name:34} {entry['value']:14.4f} {entry['unit']:6} {kind:5}  "
                f"{moves} / {on} / {not_on}"
            )
        workers = 1
    else:
        _compare(good, failures)
        samples = {
            "wall_s": [wall for record in good for wall in record["wall_s"]],
            "setup_s": [record["setup_s"] for record in good],
            "peak_rss_mb": [record["peak_rss_mb"] for record in good],
        }
        computed = {name: statistics.median(values) for name, values in samples.items()}
        work, unit = good[0]["work"], good[0]["work_unit"]
        computed[f"{unit}_per_s"] = work / computed["wall_s"]
        computed["failed_pct"] = 100.0 * failed / attempted
        metrics = _select(spec["end_to_end"], computed)
        units = dict(PRINTED_UNITS, **{entry["name"]: entry["unit"] for entry in spec["end_to_end"]})
        for name, value in computed.items():
            spread = ""
            if name in samples:
                q1, q3 = _quartiles(samples[name])
                spread = f"  (median; q1 {q1:.4f}, q3 {q3:.4f}, n={len(samples[name])})"
            print(f"{name:14} {value:12.4f} {units[name]}{spread}")
        workers = good[0]["workers"]

    print(f"fingerprint {good[0]['fingerprint']}")
    host = _host_stamp(workers)
    if host["workers_exceed_cpus"]:
        print(f"WARNING: {workers} workers on {host['cpu_count']} CPUs; do not compare these figures")
    print("host " + json.dumps(host, sort_keys=True))
    for text in failures:
        print(f"FAILED: {text}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
