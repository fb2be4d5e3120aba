"""Named, reproducible random-number streams.

Every stochastic component of the simulator (query arrivals, service times,
cache misses, disk seeks, ...) draws from its own named stream derived from a
single experiment seed.  This guarantees that adding a new consumer of
randomness does not perturb the draws seen by existing components, which keeps
experiments comparable across library versions.

Draws keyed by identity rather than by one experiment's master seed — fleet
shards, fault schedules — are seeded with :func:`stable_seed`, a digest of
their identifying parts.  This module imports nothing from the package, so
any layer can use it without an import cycle.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

__all__ = ["RandomStreams", "BatchedDraws", "stable_seed"]


def stable_seed(*parts: object) -> int:
    """A process-independent integer seed derived from ``parts``.

    ``hash()`` is salted per process (PYTHONHASHSEED), so seeds are derived
    from a cryptographic digest of the parts' reprs instead — the same spec
    must draw the same samples in every process and on every run.  Callers
    lead with a name of their own ("fleet-shard", the faults stream) so
    their seeds never collide.
    """
    text = "\x1f".join(repr(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Master seed for the experiment.  Two :class:`RandomStreams` built from
        the same seed hand out identical streams for identical names.
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The master seed this factory was built from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            generator = np.random.default_rng(self._derive(name))
            self._streams[name] = generator
        return generator

    def spawn(self, name: str) -> "RandomStreams":
        """Return a child factory whose streams are independent of this one.

        Used by multi-machine simulations so every machine gets its own family
        of streams while remaining a pure function of the master seed.
        """
        return RandomStreams(self._derive(name) % (2**63))

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(f"{self._seed}/{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={sorted(self._streams)})"


class BatchedDraws:
    """Batched draws from one RNG stream, served one value at a time.

    ``draw(size)`` must pull ``size`` values from the generator exactly as
    ``size`` successive scalar draws would (true for every numpy
    ``Generator`` distribution method), so consumers receive the identical
    value sequence they would have seen drawing per use — only the
    per-draw Python/numpy call overhead is amortised.  The first batch is
    drawn lazily, so merely constructing the wrapper consumes no RNG state.

    Consumers that used to share one generator must share one wrapper too
    (see the machine-wide disk-jitter source): the wrapper hands values out
    in call order, which then matches the old global draw order exactly.
    """

    __slots__ = ("_draw", "_batch", "_index")

    BATCH = 256

    def __init__(self, draw) -> None:
        #: ``draw(size) -> ndarray`` pulling ``size`` values from the stream.
        self._draw = draw
        self._batch = None
        self._index = 0

    def next(self) -> float:
        batch = self._batch
        index = self._index
        if batch is None or index == len(batch):
            # Python floats: every consumer does scalar arithmetic on them,
            # which costs numpy-scalar overhead per draw otherwise.
            batch = self._draw(self.BATCH).tolist()
            self._batch = batch
            index = 0
        self._index = index + 1
        return batch[index]
