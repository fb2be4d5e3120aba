"""Replicate statistics: mean, sample stddev and 95% confidence intervals.

The campaign layer replaces single-seed point estimates with multi-seed
replicate sweeps; this module owns the aggregation.  Intervals use the
two-sided Student-t critical value at 95% (the replicate count is small —
typically 3..10 — where the normal approximation is badly anti-conservative),
from an embedded table so no SciPy dependency is needed.  For degrees of
freedom between table entries the value at the largest tabled ``df`` below is
used, which errs on the wide (conservative) side.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

from ..errors import ConfigError

__all__ = ["t_critical_95", "summarize", "aggregate_rows"]

#: Two-sided 95% Student-t critical values by degrees of freedom.
_T_95: Dict[int, float] = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
    40: 2.021, 60: 2.000, 120: 1.980,
}

#: Large-sample (normal) limit used above the table's last entry.
_T_95_INF = 1.960


def t_critical_95(df: int) -> float:
    """Two-sided 95% t critical value for ``df`` degrees of freedom."""
    if df < 1:
        raise ConfigError(f"degrees of freedom must be >= 1, got {df}")
    if df in _T_95:
        return _T_95[df]
    below = max(entry for entry in _T_95 if entry <= df) if df <= 120 else None
    return _T_95[below] if below is not None else _T_95_INF


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / sample stddev / 95% CI of one metric across replicates.

    Returns ``{"n", "mean", "stddev", "ci95", "ci95_lo", "ci95_hi"}`` where
    ``ci95`` is the interval half-width.  A single replicate has no sample
    variance; its stddev and half-width are reported as 0.0 (the point
    estimate is the interval), keeping the row shape uniform.
    """
    values = [float(value) for value in values]
    if not values:
        raise ConfigError("cannot summarize an empty replicate set")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        stddev = half = 0.0
    else:
        variance = sum((value - mean) ** 2 for value in values) / (n - 1)
        stddev = math.sqrt(variance)
        half = t_critical_95(n - 1) * stddev / math.sqrt(n)
    return {
        "n": n,
        "mean": mean,
        "stddev": stddev,
        "ci95": half,
        "ci95_lo": mean - half,
        "ci95_hi": mean + half,
    }


def _is_numeric(value: object) -> bool:
    # Booleans aggregate as 0/1 rates (e.g. a showdown's slo_met column).
    return isinstance(value, (int, float, bool)) and (
        not isinstance(value, float) or math.isfinite(value)
    )


def aggregate_rows(
    replicates: Sequence[Sequence[dict]],
    exclude: Iterable[str] = (),
    identity: Sequence[str] = ("scenario", "label"),
) -> List[dict]:
    """Aggregate per-replicate row lists into long-format CI rows.

    ``replicates`` holds one row list per seed; rows are matched across
    replicates by their ``label`` (every replicate of a scenario expands to
    the same labelled variants, in the same order).  For every numeric column
    that is not an identity column and not in ``exclude`` one output row is
    emitted::

        {"scenario", "label", "metric", "n", "mean", "stddev",
         "ci95", "ci95_lo", "ci95_hi"}

    Output order follows the first replicate's label order, then its column
    order — a pure function of the rows, independent of worker count.
    """
    if not replicates:
        return []
    first = list(replicates[0])
    skip = set(exclude) | set(identity)
    grouped: Dict[object, List[dict]] = {}
    for rows in replicates:
        rows = list(rows)
        if len(rows) != len(first):
            raise ConfigError(
                f"replicates disagree on variant count ({len(rows)} vs {len(first)}); "
                "every replicate must expand to the same labelled variants"
            )
        for row, reference in zip(rows, first):
            if row.get("label") != reference.get("label"):
                raise ConfigError(
                    f"replicate rows are misaligned: {row.get('label')!r} vs "
                    f"{reference.get('label')!r}"
                )
            grouped.setdefault(reference.get("label"), []).append(row)

    out: List[dict] = []
    for reference in first:
        label = reference.get("label")
        rows = grouped[label]
        for column, value in reference.items():
            if column in skip or not _is_numeric(value):
                continue
            values = [float(row[column]) for row in rows if _is_numeric(row.get(column))]
            if not values:
                continue
            entry: Dict[str, object] = {
                key: reference.get(key, "") for key in identity
            }
            entry["metric"] = column
            entry.update(summarize(values))
            out.append(entry)
    return out
