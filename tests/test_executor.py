"""The parallel experiment executor: determinism, errors, fast paths.

The executor's contract is that a batch of cells produces *identical*
results at any job count — parallelism is purely a wall-clock lever.
These tests pin that contract down to the byte on a real figure module,
and check that worker failures surface the failing cell's spec instead
of hanging the pool.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.bench.executor import (
    QUICK,
    Cell,
    CellBatch,
    CellExecutionError,
    Effort,
    WorkloadSpec,
    run_cell,
    run_cells,
)
from repro.bench.experiments import fig6_bypass_dram
from repro.core.policy import SPITFIRE_LAZY
from repro.hardware.pricing import HierarchyShape

SHAPE = HierarchyShape(dram_gb=2.0, nvm_gb=4.0, ssd_gb=100.0)

#: Small enough that a whole figure runs in seconds, big enough to
#: exercise warmup + measurement + inclusivity sampling.
TINY = Effort(warmup_ops=300, measure_ops=600)


def tiny_cell(label: str = "tiny") -> Cell:
    return Cell.ycsb(label, SHAPE, SPITFIRE_LAZY, "YCSB-BA", 10.0,
                     effort=TINY, extra_worker_counts=())


class TestCellSpec:
    def test_cell_pickles(self):
        cell = tiny_cell()
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell

    def test_describe_names_the_workload(self):
        assert "YCSB-BA" in tiny_cell().describe()

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="ycsb", db_gb=10.0, mix="YCSB-XX")

    def test_tpcc_takes_no_mix(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="tpcc", db_gb=10.0, mix="YCSB-RO")


class TestDeterminism:
    def test_serial_equals_parallel(self):
        cells = [tiny_cell(f"c{i}") for i in range(3)]
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=3)
        assert [r.throughput for r in serial] == \
               [r.throughput for r in parallel]
        assert [r.stats for r in serial] == [r.stats for r in parallel]

    def test_fig6_byte_identical_json(self, monkeypatch):
        """The ISSUE acceptance check, shrunk: fig6 at jobs=1 and
        jobs=4 must serialise to byte-identical JSON.  The effort is
        patched down in the *parent* only — workers rebuild everything
        from the pickled cell spec, so the patch proves the spec alone
        determines the result."""
        monkeypatch.setattr(fig6_bypass_dram, "effort", lambda quick: TINY)
        one = fig6_bypass_dram.run(quick=True, jobs=1)
        four = fig6_bypass_dram.run(quick=True, jobs=4)
        assert json.dumps(one.to_dict(), sort_keys=True) == \
               json.dumps(four.to_dict(), sort_keys=True)

    def test_run_cell_matches_run_cells(self):
        cells = [
            tiny_cell(),
            Cell.ycsb("ycsb-16w", SHAPE, SPITFIRE_LAZY, "YCSB-RO", 8.0,
                      effort=TINY, extra_worker_counts=(16,)),
            Cell.tpcc("tpcc", SHAPE, SPITFIRE_LAZY, 4.0, effort=TINY),
        ]
        for cell in cells:
            result = run_cell(cell)
            assert result.throughput == \
                   run_cells([cell], jobs=1)[0].throughput
            assert result.operations == cell.effort.measure_ops
            for workers in cell.extra_worker_counts:
                assert workers in result.throughput_by_workers


class TestErrors:
    def test_bad_cell_reports_spec_serial(self):
        bad = Cell.ycsb("doomed", SHAPE, SPITFIRE_LAZY, "YCSB-RO", -5.0,
                        effort=TINY)
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells([bad], jobs=1)
        assert "doomed" in str(excinfo.value)
        assert excinfo.value.cell is bad

    def test_bad_cell_reports_spec_parallel_no_hang(self):
        """A raising cell must fail fast with its spec attached, not
        hang the pool or lose the traceback."""
        cells = [tiny_cell("ok"),
                 Cell.ycsb("doomed", SHAPE, SPITFIRE_LAZY, "YCSB-RO", -5.0,
                           effort=TINY)]
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(cells, jobs=2)
        assert "doomed" in str(excinfo.value)

    def test_duplicate_batch_key_rejected(self):
        batch = CellBatch()
        batch.add("k", tiny_cell())
        with pytest.raises(ValueError):
            batch.add("k", tiny_cell())


class TestBatch:
    def test_batch_maps_keys_to_results(self):
        batch = CellBatch()
        batch.add("a", tiny_cell("a"))
        batch.add("b", tiny_cell("b"))
        runs = batch.run(jobs=1)
        assert set(runs) == {"a", "b"}
        assert runs["a"].throughput == runs["b"].throughput

    def test_quick_effort_is_smaller(self):
        assert TINY.measure_ops < QUICK.measure_ops
