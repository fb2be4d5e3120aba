"""Disk devices and striped volumes.

The paper's servers carry two striped volumes: 4x SSD (exclusive to the
primary's index) and 4x HDD (logging plus everything the secondary does).
Requests are modelled with a base latency plus a size-proportional transfer
time, a bounded number of in-flight requests per device, and FIFO queueing
beyond that.  Striped volumes split large requests across member disks.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

import numpy as np

from ..config.schema import DiskSpec, VolumeSpec
from ..errors import ResourceError
from ..simulation.engine import SimulationEngine
from ..simulation.events import EventPriority
from ..simulation.randomness import BatchedDraws

__all__ = ["IoRequest", "DiskDevice", "StripedVolume", "jitter_source"]

_READ = "read"
_WRITE = "write"
_VALID_OPS = (_READ, _WRITE)


def jitter_source(rng: np.random.Generator) -> BatchedDraws:
    """Batched ``uniform(0.8, 1.2)`` service-time jitter draws.

    Every device sharing one RNG must also share one source, so the draws
    are handed out in exactly the order the devices used to pull them one by
    one from the generator — batching is invisible to the simulation output.
    """
    return BatchedDraws(lambda size: rng.uniform(0.8, 1.2, size))


class IoRequest:
    """One logical I/O request against a volume."""

    __slots__ = (
        "owner",
        "category",
        "op",
        "size_bytes",
        "volume",
        "callback",
        "submit_time",
        "start_time",
        "complete_time",
        "chunks_pending",
    )

    def __init__(
        self,
        owner: str,
        category: str,
        op: str,
        size_bytes: int,
        volume: str,
        callback: Optional[Callable[["IoRequest"], None]],
        submit_time: float,
    ) -> None:
        if op not in _VALID_OPS:
            raise ResourceError(f"I/O op must be one of {_VALID_OPS}, got {op!r}")
        if size_bytes <= 0:
            raise ResourceError("I/O request size must be positive")
        self.owner = owner
        self.category = category
        self.op = op
        self.size_bytes = int(size_bytes)
        self.volume = volume
        self.callback = callback
        self.submit_time = submit_time
        self.start_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        self.chunks_pending = 0

    @property
    def latency(self) -> Optional[float]:
        """End-to-end latency, available once the request completed."""
        if self.complete_time is None:
            return None
        return self.complete_time - self.submit_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IoRequest({self.owner}, {self.op}, {self.size_bytes}B on {self.volume}, "
            f"submitted t={self.submit_time:.6f})"
        )


class DiskDevice:
    """A single disk with bounded in-flight requests and FIFO overflow queue."""

    def __init__(
        self,
        engine: SimulationEngine,
        spec: DiskSpec,
        name: str,
        rng: Optional[np.random.Generator] = None,
        jitter: Optional[BatchedDraws] = None,
    ) -> None:
        # Completions go through the engine's unchecked push, once per chunk:
        # schedule()'s delay check and argument packing cost more.
        self._engine = engine
        self._spec = spec
        self._name = name
        if jitter is None and rng is not None:
            jitter = jitter_source(rng)
        self._jitter = jitter
        self._in_service = 0
        self._queue: Deque[tuple] = deque()
        # statistics
        self.completed_requests = 0
        self.bytes_read = 0
        self.bytes_written = 0

    @property
    def name(self) -> str:
        return self._name

    @property
    def spec(self) -> DiskSpec:
        return self._spec

    @property
    def queue_depth(self) -> int:
        """Requests waiting (not yet in service)."""
        return len(self._queue)

    def service_time(self, size_bytes: int) -> float:
        """Deterministic part of the service time for a chunk of this size."""
        return self._spec.base_latency + size_bytes / self._spec.bandwidth_bytes_per_s

    def submit_chunk(
        self, size_bytes: int, op: str, done: Callable[[float], None]
    ) -> None:
        """Queue one chunk; ``done(queue_delay)`` fires when it completes."""
        if op not in _VALID_OPS:
            raise ResourceError(f"I/O op must be one of {_VALID_OPS}, got {op!r}")
        entry = (self._engine._now, size_bytes, op, done)
        if self._in_service < self._spec.max_queue_depth:
            self._start(entry)
        else:
            self._queue.append(entry)

    # ------------------------------------------------------------- internals
    def _start(self, entry: tuple) -> None:
        enqueue_time, size_bytes, op, done = entry
        self._in_service += 1
        spec = self._spec
        duration = spec.base_latency + size_bytes / spec.bandwidth_bytes_per_s
        if self._jitter is not None:
            # Mild service-time variability: +/-20 % uniform jitter, which is
            # enough to avoid artificial synchronisation between devices.
            duration *= self._jitter.next()
        if op == _READ:
            self.bytes_read += size_bytes
        else:
            self.bytes_written += size_bytes
        now = self._engine._now
        self._engine.push(
            now + duration, self._complete, (done, now - enqueue_time), EventPriority.HARDWARE
        )

    def _complete(self, done: Callable[[float], None], queue_delay: float) -> None:
        self._in_service -= 1
        self.completed_requests += 1
        if self._queue:
            self._start(self._queue.popleft())
        done(queue_delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiskDevice({self._name}, {self._spec.kind}, queued={len(self._queue)})"


class StripedVolume:
    """A RAID-0 style striped set of identical disks.

    Requests larger than one stripe are split into up to ``len(disks)`` chunks
    issued in parallel, one per member disk; the request completes when all
    chunks have completed.  Member disks are also rotated per request so
    small requests spread evenly.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        spec: VolumeSpec,
        rng: Optional[np.random.Generator] = None,
        jitter: Optional[BatchedDraws] = None,
    ) -> None:
        self._engine = engine
        self._spec = spec
        # Every member disk draws its service-time jitter from one shared,
        # batched source so the values land on requests in exactly the order
        # they would with per-request draws from the shared generator.  A
        # machine passes one source spanning all its volumes.
        if jitter is None and rng is not None:
            jitter = jitter_source(rng)
        self._disks: List[DiskDevice] = [
            DiskDevice(engine, spec.disk, f"{spec.name}{index}", rng, jitter=jitter)
            for index in range(spec.count)
        ]
        self._next_disk = 0
        # statistics
        self.completed_requests = 0

    @property
    def name(self) -> str:
        return self._spec.name

    @property
    def spec(self) -> VolumeSpec:
        return self._spec

    @property
    def disks(self) -> List[DiskDevice]:
        return list(self._disks)

    @property
    def queue_depth(self) -> int:
        return sum(disk.queue_depth for disk in self._disks)

    def submit(
        self,
        owner: str,
        category: str,
        op: str,
        size_bytes: int,
        callback: Optional[Callable[[IoRequest], None]] = None,
    ) -> IoRequest:
        """Submit a request; ``callback(request)`` fires on completion."""
        now = self._engine._now
        spec = self._spec
        request = IoRequest(owner, category, op, size_bytes, spec.name, callback, now)
        request.start_time = now
        disks = self._disks
        next_disk = self._next_disk
        if size_bytes <= spec.stripe_bytes:
            # Single-chunk fast path (the overwhelmingly common request size).
            request.chunks_pending = 1
            self._next_disk = (next_disk + 1) % len(disks)
            disks[next_disk].submit_chunk(
                size_bytes, op, lambda _delay, r=request: self._chunk_done(r)
            )
            return request
        chunks = self._split(size_bytes)
        request.chunks_pending = len(chunks)
        for chunk_size in chunks:
            disk = disks[self._next_disk]
            self._next_disk = (self._next_disk + 1) % len(disks)
            disk.submit_chunk(chunk_size, op, lambda _delay, r=request: self._chunk_done(r))
        return request

    # ------------------------------------------------------------- internals
    def _split(self, size_bytes: int) -> List[int]:
        stripe = self._spec.stripe_bytes
        if size_bytes <= stripe:
            return [size_bytes]
        chunk_count = min(len(self._disks), -(-size_bytes // stripe))
        base = size_bytes // chunk_count
        chunks = [base] * chunk_count
        chunks[0] += size_bytes - base * chunk_count
        return chunks

    def _chunk_done(self, request: IoRequest) -> None:
        request.chunks_pending -= 1
        if request.chunks_pending > 0:
            return
        request.complete_time = self._engine._now
        self.completed_requests += 1
        if request.callback is not None:
            request.callback(request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StripedVolume({self._spec.name}, disks={len(self._disks)})"
