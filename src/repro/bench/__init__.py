"""Benchmark harness and per-figure experiment reproductions."""

from .executor import (
    RunSession,
    metrics_collected,
    metrics_collection,
    run_session,
    shutdown_pool,
    warm_pool,
)
from .harness import RunConfig, RunResult, WorkloadRunner
from .reporting import ExperimentResult, Series

__all__ = [
    "ExperimentResult",
    "RunConfig",
    "RunResult",
    "RunSession",
    "Series",
    "WorkloadRunner",
    "metrics_collected",
    "metrics_collection",
    "run_session",
    "shutdown_pool",
    "warm_pool",
]
