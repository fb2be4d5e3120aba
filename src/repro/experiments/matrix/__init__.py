"""Declarative scenario matrix over the parallel experiment runtime.

A :class:`Scenario` is data — a builder returning a spec, plus named axes
whose value grids are expanded into labelled spec batches — and every
scenario lives in a process-wide registry populated by
:mod:`repro.experiments.scenarios` (the paper's figures included) and
:mod:`repro.fleet.scenarios`.

The registry feeds every consumer that defines or runs an experiment:

* :func:`run_scenario` — expand a scenario (optionally with overridden axis
  grids) and execute the batch on an
  :class:`~repro.runtime.runner.ExperimentRunner`, returning the variants'
  results in deterministic order.  Each figure harness and the controller
  showdown is one such call plus a row renderer.
* the ``python -m repro.experiments.matrix`` CLI — ``--list`` the catalog,
  ``--run`` any scenario, override grids with ``--grid axis=v1,v2``, and emit
  ``--out json|csv``.
* campaigns (:mod:`repro.reporting.campaign`) — the same scenario replicated
  over derived seeds.

Because execution goes through the shared runner, identical variants are
simulated once, repeat invocations are served from the cache, and row order
is independent of the worker count.
"""

from __future__ import annotations

import argparse
import difflib
import inspect
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ...config.validation import (
    validate_cluster_scenario,
    validate_experiment,
    validate_fleet,
)
from ...errors import ConfigError
from ..reporting import format_table

__all__ = [
    "Scenario",
    "ScenarioVariant",
    "MatrixResult",
    "scenario",
    "register",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
    "expand",
    "run_scenario",
    "load_catalog",
    "main",
]

#: Builder parameters every scenario accepts (forwarded only when the builder
#: signature declares them, so e.g. a diurnal scenario may own its QPS).
COMMON_PARAMS = ("qps", "duration", "warmup", "seed")

_REGISTRY: Dict[str, "Scenario"] = {}

#: Each scenario kind's spec validator, which ``Scenario.expand`` applies to
#: every variant.
_VALIDATORS = {
    "experiment": validate_experiment,
    "cluster": validate_cluster_scenario,
    "fleet": validate_fleet,
}


@dataclass(frozen=True)
class Scenario:
    """One registered scenario: a spec builder plus its sweep axes.

    ``axes`` maps builder keyword arguments to their default value grids; the
    cartesian product of the grids is the scenario's variant matrix.  A
    scenario without axes has exactly one variant.  Each experiment has one
    entry: a second entry over a builder must add specs no other entry
    builds.  ``kind`` selects the execution engine: ``"experiment"`` builders
    return an :class:`~repro.config.schema.ExperimentSpec` run on the
    single-machine simulator; ``"cluster"`` builders return a
    :class:`~repro.config.schema.ClusterScenario` run by
    :class:`~repro.cluster.simulated.SimulatedCluster` (both through the
    runner's cached batches); ``"fleet"`` builders return a
    :class:`~repro.config.schema.FleetSpec` run by
    :class:`~repro.fleet.simulate.FleetSimulation`.
    """

    name: str
    description: str
    builder: Callable[..., Any]
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    tags: Tuple[str, ...] = ()
    kind: str = "experiment"

    def __post_init__(self) -> None:
        if self.kind not in _VALIDATORS:
            raise ConfigError(
                f"scenario kind must be one of {', '.join(_VALIDATORS)}, got {self.kind!r}"
            )
        parameters = inspect.signature(self.builder).parameters
        for axis, values in self.axes:
            if axis not in parameters:
                raise ConfigError(
                    f"scenario {self.name!r} declares axis {axis!r} but its builder "
                    f"does not accept that parameter"
                )
            self._check_values(axis, values)

    def _check_values(self, axis: str, values: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """An axis grid must be non-empty and name each value once: repeats
        would run twice under one label and merge in aggregated rows."""
        if not values:
            raise ConfigError(f"scenario {self.name!r} axis {axis!r} has no values")
        if len(set(values)) < len(values):
            raise ConfigError(
                f"scenario {self.name!r} axis {axis!r} repeats a value: {list(values)}"
            )
        return values

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(axis for axis, _ in self.axes)

    @property
    def multi_secondary(self) -> bool:
        """Whether any variant co-locates more than one secondary job."""
        return "multi-secondary" in self.tags

    def variant_count(self, grid: Optional[Mapping[str, Sequence[Any]]] = None) -> int:
        return math.prod(len(values) for _, values in self._merged_axes(grid))

    def _merged_axes(
        self, grid: Optional[Mapping[str, Sequence[Any]]]
    ) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
        if not grid:
            return self.axes
        known = dict(self.axes)
        for axis in grid:
            if axis not in known:
                raise ConfigError(
                    f"scenario {self.name!r} has no axis {axis!r} "
                    f"(axes: {list(known) or 'none'})"
                )
        parameters = inspect.signature(self.builder).parameters
        return tuple(
            (
                axis,
                self._check_values(axis, _like_default(parameters[axis].default, grid[axis]))
                if axis in grid
                else values,
            )
            for axis, values in self.axes
        )

    def expand(
        self,
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
        **common: Any,
    ) -> List["ScenarioVariant"]:
        """Expand the (optionally overridden) axis grids into labelled specs.

        ``common`` takes :data:`COMMON_PARAMS` and any other keyword the
        builder declares; anything else is an error.  A value is forwarded to
        the builder only when it is not ``None``, the builder's signature
        accepts it and it is not one of the scenario's axes — scenarios that
        own a knob (diurnal owns its QPS, sweeps own their swept parameter)
        deliberately ignore the common override; use ``grid`` to reshape an
        axis instead.
        """
        parameters = inspect.signature(self.builder).parameters
        for key in common:
            if key not in COMMON_PARAMS and key not in parameters:
                raise ConfigError(
                    f"unknown common parameter {key!r} for scenario {self.name!r}"
                )
        merged = self._merged_axes(grid)
        # A parameter that is also an axis is owned by the grid; override its
        # values with --grid rather than with a common parameter.
        axis_names = {axis for axis, _ in merged}
        forwarded = {
            key: value
            for key, value in common.items()
            if value is not None and key in parameters and key not in axis_names
        }
        validate = _VALIDATORS[self.kind]
        variants: List[ScenarioVariant] = []
        for combo in itertools.product(*(values for _, values in merged)):
            axis_values = dict(zip((axis for axis, _ in merged), combo))
            spec = self.builder(**axis_values, **forwarded)
            validate(spec)
            variants.append(
                ScenarioVariant(
                    scenario=self.name,
                    label=_variant_label(self.name, axis_values),
                    axis_values=tuple(axis_values.items()),
                    spec=spec,
                )
            )
        return variants


@dataclass(frozen=True)
class ScenarioVariant:
    """One point of a scenario's grid: a label and its fully-built spec."""

    scenario: str
    label: str
    axis_values: Tuple[Tuple[str, Any], ...]
    spec: Any


@dataclass
class MatrixResult:
    """Executed variants of one scenario, in grid order."""

    scenario: Scenario
    variants: List[ScenarioVariant]
    results: List[Any]
    cache_hits: int = 0

    def rows(self) -> List[Dict[str, Any]]:
        """One flat row per variant: axes, then the summary metrics.

        Rows are a pure function of the variant specs (cache-hit status is
        deliberately excluded), so repeat runs and runs at different worker
        counts emit byte-identical tables.
        """
        rows: List[Dict[str, Any]] = []
        for variant, result in zip(self.variants, self.results):
            row: Dict[str, Any] = {"scenario": variant.scenario, "label": variant.label}
            row.update(variant.axis_values)
            row.update(result.summary())
            breakdown = getattr(result, "secondary_breakdown", None) or {}
            for name in sorted(breakdown):
                row[f"progress:{name}"] = breakdown[name]["progress"]
            rows.append(row)
        return rows


def _like_default(default: Any, values: Sequence[Any]) -> Tuple[Any, ...]:
    """Grid values, with an int given for a float parameter made a float.

    ``--grid qps=2000`` must build the spec of the ``qps=2000.0`` variant:
    the spec hash tells the int and the float apart.
    """
    if isinstance(default, float):
        values = [float(v) if isinstance(v, int) and not isinstance(v, bool) else v for v in values]
    return tuple(values)


def _variant_label(name: str, axis_values: Mapping[str, Any]) -> str:
    if not axis_values:
        return name
    rendered = ",".join(f"{axis}={_render(value)}" for axis, value in axis_values.items())
    return f"{name}[{rendered}]"


def _render(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


# ------------------------------------------------------------------- registry
def register(scenario_obj: Scenario) -> Scenario:
    """Add a scenario to the process-wide registry (name collisions are errors)."""
    if scenario_obj.name in _REGISTRY:
        raise ConfigError(f"scenario {scenario_obj.name!r} is already registered")
    _REGISTRY[scenario_obj.name] = scenario_obj
    return scenario_obj


def scenario(
    name: str,
    description: str,
    axes: Optional[Mapping[str, Sequence[Any]]] = None,
    tags: Iterable[str] = (),
    kind: str = "experiment",
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering a builder function as a named scenario.

    The builder itself is returned unchanged, so decorated functions remain
    ordinary spec builders that other builders and tests call directly.
    """

    def decorate(builder: Callable[..., Any]) -> Callable[..., Any]:
        register(
            Scenario(
                name=name,
                description=description,
                builder=builder,
                axes=tuple((axis, tuple(values)) for axis, values in (axes or {}).items()),
                tags=tuple(tags),
                kind=kind,
            )
        )
        return builder

    return decorate


def load_catalog() -> None:
    """Populate the registry with the built-in catalog (idempotent)."""
    from .. import scenarios  # noqa: F401 — importing runs the decorators
    from ...fleet import scenarios as fleet_scenarios  # noqa: F401


def get_scenario(name: str) -> Scenario:
    load_catalog()
    try:
        return _REGISTRY[name]
    except KeyError:
        close = difflib.get_close_matches(name, sorted(_REGISTRY), n=3, cutoff=0.5)
        hint = f"; did you mean {', '.join(repr(match) for match in close)}?" if close else ""
        raise ConfigError(
            f"unknown scenario {name!r}{hint} (run with --list to see the catalog)"
        ) from None


def scenario_names() -> List[str]:
    load_catalog()
    return sorted(_REGISTRY)


def iter_scenarios() -> List[Scenario]:
    load_catalog()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def expand(
    name: str,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    **common: Any,
) -> List[ScenarioVariant]:
    """Expand a registered scenario into labelled specs without running it."""
    return get_scenario(name).expand(grid=grid, **common)


# ------------------------------------------------------------------ execution
def run_scenario(
    name: str,
    runner=None,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    telemetry=None,
    **common: Any,
) -> MatrixResult:
    """Expand and execute one scenario as a single runner batch.

    ``telemetry`` is an optional
    :class:`~repro.telemetry.stream.TelemetrySession`.  Because the process
    fan-out cannot stream probes back from worker processes, an instrumented
    experiment-kind run executes its variants serially in this process (and
    bypasses the result cache — a cache hit would have no snapshots to
    publish).  Fleet-kind scenarios keep their shard fan-out; their
    per-bucket snapshots are produced in the parent.  Results are identical
    either way.  Cluster-kind scenarios have no telemetry seam and reject a
    session.
    """
    from ...runtime.runner import ExperimentTask, default_runner

    scenario_obj = get_scenario(name)
    variants = scenario_obj.expand(grid=grid, **common)
    active = runner if runner is not None else default_runner()
    if scenario_obj.kind == "fleet":
        from ...fleet.simulate import FleetSimulation

        hits_before = active.cache.hits
        results = [
            FleetSimulation(variant.spec, runner=active, telemetry=telemetry).run()
            for variant in variants
        ]
        return MatrixResult(
            scenario=scenario_obj,
            variants=variants,
            results=results,
            cache_hits=active.cache.hits - hits_before,
        )
    if telemetry is not None:
        if scenario_obj.kind == "cluster":
            raise ConfigError(
                f"scenario {name!r} is a cluster scenario, which cannot stream telemetry"
            )
        from ..single_machine import SingleMachineExperiment

        results = [
            SingleMachineExperiment(variant.spec, scenario=variant.label).run(
                telemetry=telemetry
            )
            for variant in variants
        ]
        return MatrixResult(
            scenario=scenario_obj, variants=variants, results=results, cache_hits=0
        )
    outcomes = active.run_batch(
        [ExperimentTask(variant.spec, scenario=variant.label) for variant in variants]
    )
    return MatrixResult(
        scenario=scenario_obj,
        variants=variants,
        results=[outcome.result for outcome in outcomes],
        cache_hits=sum(outcome.from_cache for outcome in outcomes),
    )


# ------------------------------------------------------------------------ CLI
def _catalog_table() -> str:
    rows = []
    for item in iter_scenarios():
        axes = "; ".join(
            f"{axis}={','.join(_render(v) for v in values)}" for axis, values in item.axes
        )
        rows.append(
            {
                "scenario": item.name,
                "kind": item.kind,
                "variants": item.variant_count(),
                "axes": axes or "-",
                "tags": ",".join(item.tags) or "-",
                "description": item.description,
            }
        )
    return format_table(
        rows, columns=["scenario", "kind", "variants", "axes", "tags", "description"]
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    from ...cli import (
        EXIT_FAILURES,
        EXIT_OK,
        EXIT_USAGE,
        add_bundle_option,
        add_output_options,
        add_profile_option,
        add_seed_option,
        add_telemetry_option,
        add_workers_option,
        parse_grid,
        render_output,
        resolve_output,
        write_output,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.matrix",
        description="List and run the registered experiment scenario catalog.",
    )
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--list", action="store_true", help="print the scenario catalog")
    action.add_argument(
        "--run",
        metavar="NAME[,NAME...]",
        help="expand and run one or more scenarios (comma separated); a "
        "failing scenario is reported in an error table, the rest still run",
    )
    parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="AXIS=V1,V2",
        help="override one axis grid (repeatable)",
    )
    add_workers_option(parser)
    add_output_options(parser)
    add_profile_option(parser)
    add_telemetry_option(
        parser, detail="experiment variants run serially in-process while instrumented"
    )
    parser.add_argument("--qps", type=float, default=None, help="override workload QPS")
    parser.add_argument("--duration", type=float, default=None, help="override duration (s)")
    parser.add_argument("--warmup", type=float, default=None, help="override warmup (s)")
    add_seed_option(parser, default=None, help="override the seed")
    add_bundle_option(parser)
    args = parser.parse_args(argv)

    if args.list:
        print(_catalog_table())
        count = len(scenario_names())
        composites = sum(item.multi_secondary for item in iter_scenarios())
        fleet = sum(item.kind == "fleet" for item in iter_scenarios())
        print(
            f"\n{count} scenarios "
            f"({composites} multi-secondary composites, {fleet} fleet)"
        )
        return 0

    from ...runtime.runner import ExperimentRunner
    from ...telemetry.log import get_logger

    log = get_logger("repro.experiments.matrix")
    names = [name.strip() for name in args.run.split(",") if name.strip()]

    # 0 forces serial (the runner clamps to >= 1), matching REPRO_RUNNER_WORKERS.
    runner = (
        ExperimentRunner(max_workers=args.workers) if args.workers is not None else None
    )
    telemetry = None
    if args.telemetry:
        from ...telemetry import TelemetrySession

        telemetry = TelemetrySession.to_path(
            args.telemetry, source="matrix", meta={"scenario": args.run}
        )

    def _execute():
        # One scenario blowing up mid-run must not take the batch down with
        # it: the failure is recorded, the remaining scenarios still run, and
        # every completed result is still flushed below.
        from ...runtime.runner import default_runner

        active = runner if runner is not None else default_runner()
        grid = parse_grid(args.grid)
        results: List[MatrixResult] = []
        failures: List[Dict[str, str]] = []
        for name in names:
            try:
                results.append(
                    run_scenario(
                        name,
                        runner=active,
                        grid=grid,
                        telemetry=telemetry,
                        qps=args.qps,
                        duration=args.duration,
                        warmup=args.warmup,
                        seed=args.seed,
                    )
                )
            except Exception as error:
                log.error("scenario failed", scenario=name, error=str(error))
                failures.append(
                    {"scenario": name, "error": f"{type(error).__name__}: {error}"}
                )
        return results, failures

    try:
        if not names:
            raise ConfigError("--run expects at least one scenario name")
        # Malformed grids, unknown names and unusable output flags are caller
        # mistakes, not run failures: reject the whole invocation (exit 2)
        # before running anything rather than burning a batch on a typo.
        fmt, out_path = resolve_output(args.out)
        grid = parse_grid(args.grid)
        for name in names:
            get_scenario(name).variant_count(grid)
        if args.profile:
            from ...telemetry.profiling import run_profiled

            results, failures = run_profiled(_execute, args.profile)
        else:
            results, failures = _execute()
    except ConfigError as error:
        log.error("command failed", error=str(error))
        return EXIT_USAGE
    finally:
        if telemetry is not None:
            telemetry.close()

    rows = [row for result in results for row in result.rows()]
    if fmt == "table" and out_path is None:
        for result in results:
            print(f"== {result.scenario.name}: {result.scenario.description} ==")
            print(format_table(result.rows()))
            print(f"\n{len(result.rows())} variants, {result.cache_hits} served from cache")
    else:
        write_output(render_output(rows, fmt), out_path)
    if args.bundle:
        from ...reporting.bundle import write_bundle
        from ...runtime import spec_hash

        write_bundle(
            args.bundle,
            kind="matrix",
            name=",".join(names),
            rows=rows,
            fmt=fmt if fmt != "table" else "json",
            seeds=sorted(
                {variant.spec.seed for result in results for variant in result.variants}
            ),
            spec_hashes=[
                spec_hash(variant.spec)
                for result in results
                for variant in result.variants
            ],
            meta={"scenarios": names, "grid": args.grid},
        )
    if failures:
        print(f"\n== {len(failures)} of {len(names)} scenarios failed ==")
        print(format_table(failures, columns=["scenario", "error"]))
        return EXIT_FAILURES
    return EXIT_OK


