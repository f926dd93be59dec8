"""Scenario orchestration: repository, cost model, scenario plans and runner, CLI."""

from .cost import CostModel, counters_cost, estimate_comm_overhead, predict_cost
from .registry import Repository
from .scenario import (
    SCHEMA_ID,
    Scenario,
    ScenarioError,
    load_scenario,
    render_report,
    run_scenario,
    summarize_report,
)

__all__ = [
    "CostModel",
    "Repository",
    "SCHEMA_ID",
    "Scenario",
    "ScenarioError",
    "counters_cost",
    "estimate_comm_overhead",
    "load_scenario",
    "predict_cost",
    "render_report",
    "run_scenario",
    "summarize_report",
]
