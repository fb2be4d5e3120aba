"""Canonical, content-addressed hashing of experiment specifications.

The parallel runtime and its result cache key every run on the *content* of
its configuration, not on object identity or on which harness built it: two
``ExperimentSpec`` instances describing the same machine, workload, tenants
and seed hash identically, so a Figure 8 standalone run and a Figure 4
standalone run at the same load resolve to the same cache entry.

Hashing walks the (frozen, nested) dataclass tree and produces a canonical
JSON document — sorted keys, explicit type tags, exact float representation
via ``repr`` — which is then SHA-256 digested.  Any configuration value that
affects simulation output lives in the dataclasses, so the digest is a sound
cache key for deterministic runs.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from enum import Enum
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "canonical_encoding",
    "source_digest",
    "spec_hash",
    "versioned_namespace",
]


def package_digest(package: Path) -> str:
    """SHA-256 over a package's ``.py`` files: each file's path relative to
    the package's parent directory, then its bytes, in sorted path order."""
    files = sorted(
        (path.relative_to(package.parent).as_posix(), path) for path in package.rglob("*.py")
    )
    digest = hashlib.sha256()
    for relative, path in files:
        digest.update(relative.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """Digest of the ``repro`` package's sources, computed once per process."""
    return package_digest(Path(__file__).resolve().parent.parent)


def versioned_namespace(tag: str) -> str:
    """A cache namespace stamped with the simulator's source code.

    Cached results are only bit-identical to a recomputation while the
    simulator code is unchanged, so persistent (on-disk) cache keys carry a
    digest of every source file: after any code change, old entries simply
    stop matching instead of silently serving stale figures.
    """
    return f"{tag}/{source_digest()}"


def _encode(value: Any) -> Any:
    """Convert a configuration value into a canonical JSON-serialisable form.

    A dataclass field whose value is ``None`` is left out of the encoding.
    One class always has the same fields, so a left-out field cannot be
    confused with any value it could be set to, and a spec that grows a new
    optional sub-spec keeps the hash of every configuration that leaves it
    unset.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {}
        for f in dataclasses.fields(value):
            field_value = getattr(value, f.name)
            if field_value is not None:
                fields[f.name] = _encode(field_value)
        return {"__dataclass__": type(value).__qualname__, "fields": fields}
    if isinstance(value, Enum):
        return {"__enum__": type(value).__qualname__, "value": _encode(value.value)}
    # NumPy scalars are normalised to their Python equivalents so that specs
    # built from numpy-driven sweeps (np.arange qps levels, np.int64 core
    # counts) hash identically to their plain-Python twins.
    if isinstance(value, (bool, np.bool_)) or value is None:
        return bool(value) if value is not None else None
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        # repr round-trips doubles exactly; JSON's float formatting does not.
        return {"__float__": repr(float(value))}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, frozenset):
        # Sort by each item's canonical JSON — encoded items may be dicts
        # (floats, enums, dataclasses), which do not compare with ``<``.
        return {"__frozenset__": sorted((_encode(item) for item in value), key=_sort_key)}
    if isinstance(value, dict):
        # Keys are encoded like any other value (so 1 and "1" stay distinct)
        # and entries are ordered by their canonical JSON.
        entries = [[_encode(key), _encode(val)] for key, val in value.items()]
        entries.sort(key=_sort_key)
        return {"__dict__": entries}
    raise TypeError(
        f"cannot canonically encode {type(value).__name__!r} for spec hashing"
    )


def _sort_key(encoded: Any) -> str:
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def canonical_encoding(spec: Any, namespace: str = "") -> str:
    """The canonical JSON document hashed by :func:`spec_hash`."""
    return json.dumps(
        {"namespace": namespace, "spec": _encode(spec)},
        sort_keys=True,
        separators=(",", ":"),
    )


#: Attribute under which a dataclass spec memoises its digests (per
#: namespace).  Not a dataclass field, so it is invisible to ``fields()``
#: walks, equality and the canonical encoding itself.
_MEMO_ATTR = "_repro_spec_hash_memo"


def spec_hash(spec: Any, namespace: str = "") -> str:
    """SHA-256 hex digest of a configuration's canonical encoding.

    ``namespace`` distinguishes keys produced by different kinds of run (for
    example single-machine experiments vs full cluster simulations) that might
    otherwise share a configuration dataclass.

    Digests of dataclass specs are memoised on the instance: specs are frozen,
    so a spec object hashes identically for its whole lifetime, and the cache
    layer asks for the same digest on every lookup.  ``dataclasses.replace``
    builds a new instance, so derived specs never inherit a stale memo.
    """
    memo = None
    if dataclasses.is_dataclass(spec) and not isinstance(spec, type):
        memo = getattr(spec, _MEMO_ATTR, None)
        if memo is not None:
            cached = memo.get(namespace)
            if cached is not None:
                return cached
        else:
            memo = {}
            try:
                # Frozen dataclasses block normal attribute assignment, not
                # object.__setattr__; slotted specs (none today) just skip
                # the memo.
                object.__setattr__(spec, _MEMO_ATTR, memo)
            except (AttributeError, TypeError):
                memo = None
    encoded = canonical_encoding(spec, namespace=namespace).encode("utf-8")
    digest = hashlib.sha256(encoded).hexdigest()
    if memo is not None:
        memo[namespace] = digest
    return digest
