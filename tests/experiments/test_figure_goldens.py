"""Golden rows for the single-machine paper figures (Figures 4–8, headline).

Each case calls one figure harness at a short, seeded setting and pins its
whole result (id, title, rows and notes) against a checked-in JSON file under
``tests/experiments/goldens/figures/``.  The harnesses get only ``duration``,
``warmup``, ``seed`` and a runner, so the pinned rows hold however a figure
defines and submits its runs.

When a change intentionally moves the rows, regenerate the files and review
the diff like any other code change:

    python -m pytest tests/experiments/test_figure_goldens.py --update-goldens

Floats are compared at rel=1e-9, as in ``test_goldens.py``.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import figures
from repro.runtime import ExperimentRunner, ResultCache

GOLDEN_DIR = Path(__file__).parent / "goldens" / "figures"

#: Every figure at its default loads and levels, on runs short enough for the
#: fast tier.
PARAMS = dict(duration=0.3, warmup=0.1, seed=5)

FIGURES = {
    "fig4": figures.fig4_no_isolation,
    "fig5": figures.fig5_blind_isolation,
    "fig6": figures.fig6_static_cores,
    "fig7": figures.fig7_cpu_cycles,
    "fig8": figures.fig8_comparison,
    "headline": figures.headline_utilization,
}


@pytest.fixture(scope="module")
def runner():
    """One cached runner for every case: the standalone baselines and Figure
    8's runs repeat across figures, so each is simulated once."""
    return ExperimentRunner(max_workers=2, cache=ResultCache())


def _observed(name: str, runner) -> dict:
    figure = FIGURES[name](runner=runner, **PARAMS)
    observed = {
        "figure_id": figure.figure_id,
        "title": figure.title,
        "rows": figure.rows,
        "notes": figure.notes,
    }
    # Round-trip so tuples, numpy scalars and floats compare as the file does.
    return json.loads(json.dumps(observed))


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_rows_match_golden(name, runner, update_goldens):
    golden_path = GOLDEN_DIR / f"{name}.json"
    observed = _observed(name, runner)

    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(json.dumps(observed, indent=2, sort_keys=True) + "\n")
        return

    assert golden_path.is_file(), (
        f"missing golden file {golden_path.name}; generate it with "
        f"`python -m pytest {__file__} --update-goldens` and commit the result"
    )
    golden = json.loads(golden_path.read_text())
    for key in ("figure_id", "title", "notes"):
        assert observed[key] == golden[key], f"{name}: {key} changed"
    assert len(observed["rows"]) == len(golden["rows"]), f"{name}: row count changed"
    for index, (row, expected) in enumerate(zip(observed["rows"], golden["rows"])):
        assert set(row) == set(expected), f"{name} row {index}: columns changed"
        for column, value in expected.items():
            if isinstance(value, float):
                assert row[column] == pytest.approx(value, rel=1e-9, abs=1e-12), (
                    f"{name} row {index}: {column!r} drifted ({row[column]!r} != {value!r})"
                )
            else:
                assert row[column] == value, f"{name} row {index}: {column!r} changed"


def test_figure_golden_files_have_no_strays():
    """Every checked-in figure golden belongs to a case (and vice versa)."""
    files = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert files == set(FIGURES)
