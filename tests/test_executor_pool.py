"""The persistent worker pool: reuse, context transport, fallback.

The executor runs batches on one session-scoped persistent pool and
carries run settings to workers in an explicit per-submission
:class:`ExecContext`, never through inherited process state.  These
tests pin that machinery down:

* the pool survives across batches (same generation, warm reuse);
* scopes entered *after* the pool exists still reach workers — the
  adversarial ordering that fork-inheritance transport gets wrong;
* wholesale worker death degrades to a serial rerun with identical
  results, and the next parallel batch gets a fresh pool;
* the chunk planner covers every item contiguously and submits the
  heaviest span first.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.bench.executor import (
    CHUNKS_PER_WORKER,
    Cell,
    CellBatch,
    Effort,
    ExecContext,
    _plan_chunks,
    current_context,
    exec_scope,
    metrics_collection,
    pool_info,
    run_cells,
    run_session,
    run_tasks,
    warm_pool,
)
from repro.core.policy import SPITFIRE_LAZY
from repro.faults.plan import FaultPlan
from repro.hardware.pricing import HierarchyShape
from repro.obs.export import snapshot_jsonl_lines

SHAPE = HierarchyShape(dram_gb=2.0, nvm_gb=4.0, ssd_gb=100.0)
TINY = Effort(warmup_ops=300, measure_ops=600)


def tiny_cell(label: str = "tiny") -> Cell:
    return Cell.ycsb(label, SHAPE, SPITFIRE_LAZY, "YCSB-BA", 10.0,
                     effort=TINY, extra_worker_counts=())


def _double(x: int) -> int:
    return x * 2


def _exit_unless_pid(arg) -> int:
    """Kill the hosting process unless it is the submitting one.

    Items carry the submitter's PID, so this dies in any pool worker
    but computes normally during the serial fallback rerun — pytest
    itself may be a child process (xdist), so ``parent_process()`` is
    not a usable guard.
    """
    pid, value = arg
    if os.getpid() != pid:
        os._exit(13)
    return value * 2


def _pool_available() -> bool:
    return warm_pool(2)


pool_required = pytest.mark.skipif(
    not _pool_available(),
    reason="platform cannot spawn worker processes",
)


class TestPoolPersistence:
    @pool_required
    def test_pool_survives_across_batches(self):
        assert warm_pool(2)
        before = pool_info()
        run_tasks(_double, range(8), jobs=2)
        run_tasks(_double, range(8), jobs=2)
        after = pool_info()
        assert before is not None and after is not None
        assert after["generation"] == before["generation"]
        assert after["workers"] >= 2

    @pool_required
    def test_pool_grows_but_never_shrinks(self):
        assert warm_pool(2)
        run_tasks(_double, range(4), jobs=3)
        grown = pool_info()
        assert grown["workers"] >= 3
        run_tasks(_double, range(4), jobs=2)
        assert pool_info()["workers"] == grown["workers"]

    @pool_required
    def test_run_session_warms_and_counts(self):
        with run_session(jobs=2) as session:
            assert session.warmed
            run_tasks(_double, range(6), jobs=2)
            run_cells([tiny_cell("s0"), tiny_cell("s1")], jobs=2)
        assert session.items == 8
        assert session.batches == 2
        assert session.chunks >= 2
        assert session.fallbacks == 0
        assert "workers" in session.describe()

    def test_session_serial_batches_counted(self):
        with run_session(jobs=1) as session:
            run_tasks(_double, range(3), jobs=1)
        assert session.items == 3
        assert session.serial == 1
        assert session.batches == 0


class TestContextAfterPool:
    @pool_required
    def test_scopes_entered_after_pool_reach_workers(self):
        """The adversarial ordering: fork the workers first, THEN enter
        metrics + batching + no-op-fault scopes.  Only the explicit
        per-submission ExecContext can carry the scopes now, and the
        parallel run must stay byte-identical to the serial one."""
        assert warm_pool(4)
        cells = [tiny_cell(f"ctx{i}") for i in range(4)]

        def collect(jobs: int):
            with metrics_collection() as sink, \
                    exec_scope(batch_size=1024, fault_plan=FaultPlan.none()):
                results = run_cells(cells, jobs=jobs)
            lines = [
                line
                for label, result in sink
                for line in snapshot_jsonl_lines(result.metrics, label)
            ]
            return results, [label for label, _ in sink], lines

        serial_res, serial_labels, serial_lines = collect(1)
        parallel_res, parallel_labels, parallel_lines = collect(4)
        assert [r.throughput for r in serial_res] == \
               [r.throughput for r in parallel_res]
        assert [r.stats for r in serial_res] == \
               [r.stats for r in parallel_res]
        assert serial_labels == parallel_labels == \
               [c.label for c in cells]
        assert serial_lines == parallel_lines

    def test_current_context_captures_all_scopes(self):
        assert current_context() == ExecContext()
        with metrics_collection(), \
                exec_scope(batch_size=64, fault_plan=FaultPlan.none()), \
                exec_scope(tenant_tagging=True, decision_fraction=0.5):
            ctx = current_context()
        assert ctx.collect_metrics
        assert ctx.batch_size == 64
        assert ctx.fault_plan_payload is not None
        assert ctx.tenant_tagging
        assert ctx.decision_fraction == 0.5
        assert ctx != ExecContext()
        assert current_context() == ExecContext()

    def test_install_round_trips_into_ambient_state(self):
        with exec_scope(collect_metrics=True, batch_size=32) as ctx:
            assert current_context() is ctx
            assert ctx == ExecContext(collect_metrics=True, batch_size=32)
            with exec_scope(batch_size=7):
                assert current_context().batch_size == 7
                assert current_context().collect_metrics
            assert current_context() is ctx
        assert current_context() == ExecContext()

    def test_fault_plan_pickled_once_per_scope(self):
        plan = FaultPlan.seeded(7, read_error_rate=0.01)
        with exec_scope(fault_plan=plan) as ctx:
            assert pickle.loads(ctx.fault_plan_payload) == plan
            with exec_scope(batch_size=8):
                assert current_context().fault_plan_payload is \
                       ctx.fault_plan_payload

    @pytest.mark.parametrize("overrides", [
        {"batch_size": 0},
        {"decision_fraction": 0.0},
        {"decision_fraction": 1.5},
    ])
    def test_bad_settings_rejected(self, overrides):
        with pytest.raises(ValueError):
            ExecContext(**overrides)
        with pytest.raises(ValueError):
            with exec_scope(**overrides):
                pass


class TestWorkerCrashFallback:
    @pool_required
    def test_dead_workers_degrade_to_serial_with_identical_results(self):
        assert warm_pool(2)
        items = [(os.getpid(), i) for i in range(6)]
        results = run_tasks(_exit_unless_pid, items, jobs=2)
        assert results == [i * 2 for i in range(6)]

    @pool_required
    def test_pool_recreated_after_wholesale_death(self):
        assert warm_pool(2)
        items = [(os.getpid(), i) for i in range(4)]
        run_tasks(_exit_unless_pid, items, jobs=2)  # breaks the pool
        generation = (pool_info() or {}).get("generation", 0)
        assert run_tasks(_double, range(6), jobs=2) == \
               [i * 2 for i in range(6)]
        info = pool_info()
        assert info is not None
        assert info["generation"] > generation


class TestChunkPlanner:
    def test_few_items_stay_singletons(self):
        spans = _plan_chunks([1.0] * 4, jobs=2)
        assert sorted(spans) == [(i, i + 1) for i in range(4)]

    def test_spans_cover_all_items_contiguously(self):
        n = 100
        spans = _plan_chunks([1.0] * n, jobs=2)
        assert len(spans) <= 2 * CHUNKS_PER_WORKER + 1
        covered = sorted(spans)
        assert covered[0][0] == 0
        assert covered[-1][1] == n
        for (_, stop), (start, _) in zip(covered, covered[1:]):
            assert stop == start

    def test_heaviest_span_submitted_first(self):
        weights = [1.0] * 99 + [500.0]
        spans = _plan_chunks(weights, jobs=2)
        first = spans[0]
        assert sum(weights[first[0]:first[1]]) == \
               max(sum(weights[s:e]) for s, e in spans)

    def test_weighted_spans_balance_work(self):
        weights = [float(i % 7 + 1) for i in range(200)]
        spans = _plan_chunks(weights, jobs=4)
        loads = [sum(weights[s:e]) for s, e in spans]
        target = sum(weights) / (4 * CHUNKS_PER_WORKER)
        # Greedy cutting overshoots a span by at most one item's weight.
        assert max(loads) <= target + max(weights)


class TestCellBatchDuplicates:
    def test_duplicate_hashable_key_rejected_via_set(self):
        batch = CellBatch()
        batch.add(("fig", 1), tiny_cell("a"))
        with pytest.raises(ValueError, match="duplicate"):
            batch.add(("fig", 1), tiny_cell("b"))
        assert ("fig", 1) in batch._seen

    def test_unhashable_keys_fall_back_to_linear_scan(self):
        batch = CellBatch()
        batch.add(["fig", 1], tiny_cell("a"))
        batch.add(["fig", 2], tiny_cell("b"))
        with pytest.raises(ValueError, match="duplicate"):
            batch.add(["fig", 1], tiny_cell("c"))
        assert batch.keys == [["fig", 1], ["fig", 2]]

    def test_many_adds_stay_fast(self):
        batch = CellBatch()
        cell = tiny_cell("shared")
        for i in range(5_000):
            batch.add(i, cell)
        assert len(batch.keys) == 5_000
        assert len(batch._seen) == 5_000
