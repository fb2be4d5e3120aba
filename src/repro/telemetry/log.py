"""A small structured logger for CLI and library diagnostics.

Until this module existed, diagnostics were bare ``print(..., file=
sys.stderr)`` calls scattered across the fleet/matrix/workloads CLIs and the
:mod:`logging` module was used exactly nowhere.  ``get_logger`` returns a
:class:`StructuredLogger` that renders one logfmt-style line per event::

    level=error logger=repro.fleet event="command failed" error="unknown scenario"

Lines go to stderr through the standard :mod:`logging` machinery (so host
applications can re-route or silence them), values are quoted only when they
need to be, and the log level honours ``REPRO_LOG_LEVEL``.
"""

from __future__ import annotations

import logging
import os
import sys
from typing import Dict

__all__ = ["StructuredLogger", "get_logger", "format_fields"]

_HANDLER_FLAG = "_repro_structured_handler"

#: Environment variable selecting the minimum level (debug/info/warning/error).
LEVEL_ENV = "REPRO_LOG_LEVEL"


def _quote(value: object) -> str:
    text = str(value)
    if text == "" or any(ch in text for ch in (" ", '"', "=", "\n", "\t")):
        escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    return text


def format_fields(fields: Dict[str, object]) -> str:
    """Render ``fields`` as ``key=value`` pairs in insertion order."""
    return " ".join(f"{key}={_quote(value)}" for key, value in fields.items())


class StructuredLogger:
    """Key=value structured logging over a stdlib :class:`logging.Logger`.

    Every method takes an ``event`` (what happened, not a formatted sentence)
    plus arbitrary keyword fields.
    """

    def __init__(self, logger: logging.Logger) -> None:
        self._logger = logger

    @property
    def name(self) -> str:
        return self._logger.name

    @property
    def logger(self) -> logging.Logger:
        return self._logger

    def _emit(self, level: int, event: str, fields: Dict[str, object]) -> None:
        if self._logger.isEnabledFor(level):
            level_name = logging.getLevelName(level).lower()
            line = format_fields(
                {"level": level_name, "logger": self._logger.name, "event": event, **fields}
            )
            self._logger.log(level, "%s", line)

    def debug(self, event: str, **fields: object) -> None:
        self._emit(logging.DEBUG, event, fields)

    def info(self, event: str, **fields: object) -> None:
        self._emit(logging.INFO, event, fields)

    def warning(self, event: str, **fields: object) -> None:
        self._emit(logging.WARNING, event, fields)

    def error(self, event: str, **fields: object) -> None:
        self._emit(logging.ERROR, event, fields)


def _resolve_level(default: str = "info") -> int:
    name = os.environ.get(LEVEL_ENV, default).strip().lower()
    return {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "error": logging.ERROR,
    }.get(name, logging.INFO)


class _DynamicStderrHandler(logging.StreamHandler):
    """A stderr handler that resolves ``sys.stderr`` at emit time.

    The handler is installed once and cached on the ``repro`` root logger; a
    conventional ``StreamHandler(sys.stderr)`` would freeze whichever stream
    object existed at first use — stale under pytest's capture machinery or
    any host that swaps ``sys.stderr``.
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):  # type: ignore[override]
        return sys.stderr

    @stream.setter
    def stream(self, value) -> None:  # pragma: no cover - API compatibility
        pass


def get_logger(name: str) -> StructuredLogger:
    """The structured logger for ``name``, wired to stderr exactly once.

    The underlying :class:`logging.Logger` is the ordinary hierarchical one,
    so applications embedding the package can attach their own handlers; the
    stderr handler added here is marked and never duplicated.
    """
    logger = logging.getLogger(name)
    root = logging.getLogger("repro")
    if not any(getattr(handler, _HANDLER_FLAG, False) for handler in root.handlers):
        handler = _DynamicStderrHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        setattr(handler, _HANDLER_FLAG, True)
        root.addHandler(handler)
        root.setLevel(_resolve_level())
        root.propagate = False
    return StructuredLogger(logger)
