"""Experiment harnesses reproducing the paper's evaluation."""

from . import figures, matrix, scenarios, showdown
from .comparison import ComparisonResult, ComparisonRow, IsolationComparison
from .matrix import MatrixResult, Scenario, ScenarioVariant, run_matrix, run_scenario
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
    "ComparisonResult",
    "ComparisonRow",
    "IsolationComparison",
    "MatrixResult",
    "Scenario",
    "ScenarioVariant",
    "run_matrix",
    "run_scenario",
    "format_figure",
    "format_table",
    "print_figure",
    "SingleMachineExperiment",
    "SingleMachineResult",
]
