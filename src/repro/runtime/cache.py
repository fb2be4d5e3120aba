"""Content-addressed cache for experiment results.

Every entry is keyed by the :func:`repro.runtime.spec_hash.spec_hash` of the
configuration that produced it.  Because experiments are deterministic per
seed, a hit is bit-identical to a recomputation, so the figure harnesses and
``FleetModel.calibrate()`` can share single-machine runs instead of
re-simulating them.

Two storage layers:

* an in-process dictionary, always on — this is what lets one test session or
  one figure-harness invocation reuse the standalone baselines across figures;
* an optional on-disk layer (one pickle per entry under a cache directory),
  enabled by passing ``directory`` or by setting ``REPRO_CACHE_DIR``, which
  persists calibrations across processes and CI runs.

The disk layer can be bounded with ``max_entries`` (or the
``REPRO_CACHE_MAX_ENTRIES`` environment variable): long matrix and campaign
sweeps write thousands of results, and an unbounded cache directory
would otherwise grow without limit.  Eviction is least-recently-used — disk
hits refresh an entry's mtime, and every store drops the stalest entries
over the cap.  An evicted entry is simply a future miss: the caller
recomputes and the result is re-admitted.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Optional

from ..errors import ConfigError

__all__ = ["ResultCache", "default_cache", "reset_default_cache"]

#: Environment variable naming a directory for the persistent cache layer.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable bounding the number of on-disk entries (LRU evicted).
CACHE_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"


def _max_entries_from_env() -> Optional[int]:
    raw = os.environ.get(CACHE_MAX_ENTRIES_ENV)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{CACHE_MAX_ENTRIES_ENV} must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigError(f"{CACHE_MAX_ENTRIES_ENV} must be >= 0, got {value}")
    return value or None  # 0 means unbounded


class ResultCache:
    """Two-layer (memory + optional disk) content-addressed cache."""

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        self._memory: dict = {}
        self._directory: Optional[Path] = Path(directory) if directory else None
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
        if max_entries is None:
            max_entries = _max_entries_from_env()
        elif max_entries < 0:
            raise ConfigError(f"max_entries must be >= 0, got {max_entries}")
        self._max_entries = max_entries or None  # 0 means unbounded
        #: Approximate count of on-disk entries, seeded lazily; lets the LRU
        #: cap skip the directory scan until the cap is actually reached.
        self._disk_entries: Optional[int] = None
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        #: Corrupt disk entries renamed to ``*.pkl.corrupt`` instead of read.
        self.quarantined = 0

    @property
    def max_entries(self) -> Optional[int]:
        """The disk layer's entry cap (``None`` = unbounded)."""
        return self._max_entries

    @property
    def directory(self) -> Optional[Path]:
        return self._directory

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        return key in self._memory or self._disk_path(key) is not None

    def _disk_path(self, key: str) -> Optional[Path]:
        if self._directory is None:
            return None
        path = self._directory / f"{key}.pkl"
        return path if path.is_file() else None

    def get(self, key: str, default: Any = None) -> Optional[Any]:
        """Return the cached value for ``key``, or ``default`` on a miss.

        Pass a sentinel as ``default`` to distinguish a cached ``None`` from
        a miss.
        """
        if key in self._memory:
            self.hits += 1
            return self._memory[key]
        path = self._disk_path(key)
        if path is not None:
            try:
                with path.open("rb") as handle:
                    value = pickle.load(handle)
            except Exception:
                # A torn or stale entry is a miss, not a crash — unpickling a
                # foreign file can fail in arbitrary ways (truncation, moved
                # or renamed classes, protocol drift), and every one of them
                # means the same thing here: quarantine the entry and let the
                # caller recompute (the put will overwrite it).  Renaming to
                # ``.pkl.corrupt`` rather than deleting keeps the bad bytes
                # for post-mortem while taking the entry out of every
                # ``*.pkl`` scan, so it is never re-read or re-counted.
                try:
                    path.rename(path.with_name(path.name + ".corrupt"))
                    self.quarantined += 1
                    if self._disk_entries is not None and self._disk_entries > 0:
                        self._disk_entries -= 1
                except OSError:
                    pass
                self.misses += 1
                return default
            self._memory[key] = value
            self.hits += 1
            # Refresh the entry's recency so LRU eviction spares hot entries.
            try:
                os.utime(path)
            except OSError:
                pass
            return value
        self.misses += 1
        return default

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` in every enabled layer.

        The disk layer is an optimisation: a failed write (full or read-only
        volume, unpicklable payload) degrades to memory-only caching instead
        of aborting the run that just computed the value.
        """
        self._memory[key] = value
        self.stores += 1
        if self._directory is not None:
            try:
                # Write-then-rename so concurrent workers never read a torn file.
                target = self._directory / f"{key}.pkl"
                # Entry-count bookkeeping only matters when a cap is set; an
                # unbounded cache never pays the scan or the per-put stat.
                bounded = self._max_entries is not None
                replacing = bounded and target.is_file()
                entries_before = self._disk_count() if bounded else 0
                fd, tmp_name = tempfile.mkstemp(dir=self._directory, suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as handle:
                        pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                    os.replace(tmp_name, target)
                except BaseException:
                    if os.path.exists(tmp_name):
                        os.unlink(tmp_name)
                    raise
                if bounded and not replacing:
                    self._disk_entries = entries_before + 1
                self._enforce_disk_cap()
            except Exception:
                # Mirrors get(): pickling can fail with PickleError,
                # AttributeError or TypeError depending on the payload, and
                # the filesystem with OSError — all degrade the same way.
                pass

    def _disk_count(self) -> int:
        """On-disk entry count, seeded by one directory scan then maintained.

        The count is advisory — another process sharing the directory can
        make it drift — but every over-cap enforcement rescans the directory
        and resynchronises it, so drift only ever delays an eviction.
        """
        if self._directory is None:
            return 0
        if self._disk_entries is None:
            self._disk_entries = sum(1 for _ in self._directory.glob("*.pkl"))
        return self._disk_entries

    def _enforce_disk_cap(self) -> None:
        """Drop the least-recently-used entries over ``max_entries``."""
        if self._directory is None or self._max_entries is None:
            return
        if self._disk_count() <= self._max_entries:
            return
        entries = []
        for path in self._directory.glob("*.pkl"):
            try:
                entries.append((path.stat().st_mtime_ns, path.name, path))
            except OSError:
                continue  # raced with another worker's eviction
        excess = len(entries) - self._max_entries
        entries.sort()
        for _, _, path in entries[: max(excess, 0)]:
            try:
                path.unlink()
                self.evictions += 1
            except OSError:
                pass
        self._disk_entries = min(len(entries), self._max_entries)

    def clear(self) -> None:
        """Drop the in-memory layer (the disk layer, if any, is left intact)."""
        self._memory.clear()


_default: Optional[ResultCache] = None


def default_cache() -> ResultCache:
    """The process-wide shared cache (disk-backed iff ``REPRO_CACHE_DIR`` is set)."""
    global _default
    if _default is None:
        directory = os.environ.get(CACHE_DIR_ENV) or None
        _default = ResultCache(directory=directory)
    return _default


def reset_default_cache() -> None:
    """Forget the process-wide cache (used by tests and benchmarks)."""
    global _default
    _default = None
