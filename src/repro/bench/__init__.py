"""Benchmark harness and per-figure experiment reproductions."""

from .executor import (
    ExecContext,
    RunSession,
    current_context,
    exec_scope,
    metrics_collection,
    run_session,
    shutdown_pool,
    warm_pool,
)
from .harness import RunConfig, RunResult, WorkloadRunner
from .reporting import ExperimentResult, Series

__all__ = [
    "ExecContext",
    "ExperimentResult",
    "RunConfig",
    "RunResult",
    "RunSession",
    "Series",
    "WorkloadRunner",
    "current_context",
    "exec_scope",
    "metrics_collection",
    "run_session",
    "shutdown_pool",
    "warm_pool",
]
