"""Loading and saving configurations as cluster-wide JSON files.

The paper distributes PerfIso's static limits as cluster-wide configuration
files through Autopilot (Section 4).  This module provides the equivalent:
every spec dataclass in :mod:`repro.config.schema` can be serialised to and
from a plain JSON document, so deployments (:mod:`repro.cluster.autopilot`)
can ship one file to every machine and PerfIso can reload its state after a
crash.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Optional, Type, TypeVar, Union, get_args, get_origin, get_type_hints

from ..errors import ConfigError

__all__ = ["to_dict", "from_dict", "dump_json", "load_json", "save_file", "load_file"]

T = TypeVar("T")

_PATHLIKE = Union[str, Path]


def to_dict(spec: Any) -> Dict[str, Any]:
    """Convert a spec dataclass (possibly nested) into plain dictionaries."""
    if not dataclasses.is_dataclass(spec):
        raise ConfigError(f"to_dict expects a dataclass instance, got {type(spec).__name__}")
    return dataclasses.asdict(spec)


def _is_optional(annotation: Any) -> bool:
    return get_origin(annotation) is Union and type(None) in get_args(annotation)


def _unwrap_optional(annotation: Any) -> Any:
    args = [a for a in get_args(annotation) if a is not type(None)]
    return args[0] if args else Any


def from_dict(cls: Type[T], data: Optional[Dict[str, Any]]) -> T:
    """Rebuild a spec dataclass from a dictionary produced by :func:`to_dict`.

    Unknown keys are rejected (they usually indicate a typo in a cluster
    configuration file, which the paper's operators would want to catch before
    rollout rather than silently ignore).
    """
    if data is None:
        raise ConfigError(f"cannot build {cls.__name__} from None")
    if not dataclasses.is_dataclass(cls):
        raise ConfigError(f"from_dict expects a dataclass type, got {cls!r}")
    hints = get_type_hints(cls)
    field_map = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(field_map)
    if unknown:
        raise ConfigError(f"unknown keys for {cls.__name__}: {sorted(unknown)}")
    kwargs: Dict[str, Any] = {}
    for name, value in data.items():
        annotation = hints.get(name, Any)
        if _is_optional(annotation):
            if value is None:
                kwargs[name] = None
                continue
            annotation = _unwrap_optional(annotation)
        if dataclasses.is_dataclass(annotation) and isinstance(value, dict):
            kwargs[name] = from_dict(annotation, value)
        elif get_origin(annotation) is tuple and isinstance(value, list):
            kwargs[name] = tuple(tuple(item) if isinstance(item, list) else item for item in value)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"failed to build {cls.__name__}: {exc}") from exc


def dump_json(spec: Any, indent: int = 2) -> str:
    """Serialise a spec to a JSON string."""
    return json.dumps(to_dict(spec), indent=indent, sort_keys=True)


def load_json(cls: Type[T], text: str) -> T:
    """Deserialise a spec of type ``cls`` from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON configuration: {exc}") from exc
    return from_dict(cls, data)


def save_file(spec: Any, path: _PATHLIKE) -> Path:
    """Write a spec to ``path`` as JSON and return the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(dump_json(spec), encoding="utf-8")
    return target


def load_file(cls: Type[T], path: _PATHLIKE) -> T:
    """Read a spec of type ``cls`` from a JSON file."""
    source = Path(path)
    if not source.exists():
        raise ConfigError(f"configuration file not found: {source}")
    return load_json(cls, source.read_text(encoding="utf-8"))
