"""Experiment harnesses reproducing the paper's evaluation."""

from . import figures, matrix, scenarios, showdown
from .matrix import MatrixResult, Scenario, ScenarioVariant, run_scenario
from .reporting import format_figure, format_table, print_figure
from .showdown import ShowdownResult, run_showdown
from .single_machine import SingleMachineExperiment, SingleMachineResult

__all__ = [
    "figures",
    "matrix",
    "scenarios",
    "showdown",
    "ShowdownResult",
    "run_showdown",
    "MatrixResult",
    "Scenario",
    "ScenarioVariant",
    "run_scenario",
    "format_figure",
    "format_table",
    "print_figure",
    "SingleMachineExperiment",
    "SingleMachineResult",
]
