"""Scenario orchestration: cost model, scenario plans and runner, CLI."""

from .cost import CostModel, counters_cost, estimate_comm_overhead, predict_cost
from .scenario import (
    ScenarioError,
    load_scenario,
    render_report,
    run_scenario,
    summarize_report,
)

__all__ = [
    "CostModel",
    "ScenarioError",
    "counters_cost",
    "estimate_comm_overhead",
    "load_scenario",
    "predict_cost",
    "render_report",
    "run_scenario",
    "summarize_report",
]
