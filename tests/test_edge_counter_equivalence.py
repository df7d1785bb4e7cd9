"""Every counting view equals the projection it replaced.

``BufferStats``, the per-edge report (``RunResult.event_trace``) and the
metrics hub's traffic counters are all derived from the event bus's one
edge table.  The fixture in ``fixtures/`` was recorded from the
earlier code, in which each view was its own bus subscriber, on six
seeded runs that together reach every event type the chain emits:

* Spitfire-Lazy TPC-C on the 3-tier Fig. 6 shape with the WAL on,
* Spitfire-Eager YCSB-BA on a 4-tier DRAM/CXL/NVM/SSD chain,
* YCSB-RO driven through the columnar batch path
  (``exec_scope(batch_size=64)``),
* a two-tenant stream with tenant-labelled metrics,
* HyMem with cache-line loading and mini pages (fine-grained loads,
  mini-page promotions, DRAM->SSD write-backs),
* NVM-SSD YCSB-RO through the batch path (DRAM-bypassing batch runs).

Each run must reproduce the recorded stats, edge report and registry
snapshot exactly.  Running this module as a script rewrites the fixture
from the current code; do that only for a deliberate, documented change
of what the buffer manager does.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.bench.executor import Cell, Effort, exec_scope, run_cells
from repro.bench.experiments.common import POLICY_DB_GB, POLICY_SHAPE
from repro.core.buffer_manager import BufferManagerConfig
from repro.core.policy import (
    HYMEM_POLICY,
    NVM_SSD_POLICY,
    SPITFIRE_EAGER,
    SPITFIRE_LAZY,
)
from repro.hardware.pricing import HierarchyShape
from repro.workloads.tenancy import TenantSpec

FIXTURE = Path(__file__).with_name("fixtures") / "edge_counter_equivalence.json"

EFFORT = Effort(warmup_ops=2_000, measure_ops=4_000)


def fixture_cells() -> dict[str, tuple[Cell, dict]]:
    """The recorded runs: each cell with its extra ``exec_scope`` settings.

    Every run also has a metrics hub attached (see :func:`observe`).
    """
    four_tier = HierarchyShape(dram_gb=1.0, cxl_gb=2.0, nvm_gb=4.0,
                               ssd_gb=100.0)
    return {
        "tpcc-lazy-fig6": (Cell.tpcc(
            "tpcc-lazy-fig6", POLICY_SHAPE, SPITFIRE_LAZY, POLICY_DB_GB,
            effort=EFFORT, with_wal=True,
        ), {}),
        "ycsb-eager-4tier": (Cell.ycsb(
            "ycsb-eager-4tier", four_tier, SPITFIRE_EAGER, "YCSB-BA", 12.0,
            effort=EFFORT,
        ), {}),
        "ycsb-ro-batch64": (Cell.ycsb(
            "ycsb-ro-batch64", POLICY_SHAPE, SPITFIRE_LAZY, "YCSB-RO",
            POLICY_DB_GB, skew=0.9, effort=EFFORT,
        ), {"batch_size": 64}),
        "tenants-tracked": (Cell.multi_tenant(
            "tenants-tracked", HierarchyShape(dram_gb=2.0, nvm_gb=8.0,
                                              ssd_gb=128.0),
            SPITFIRE_LAZY,
            (TenantSpec(name="oltp", mix="YCSB-BA", skew=0.9,
                        db_gigabytes=2.0, seed=5),
             TenantSpec(name="scan", mix="YCSB-RO", skew=0.0,
                        db_gigabytes=12.0, seed=6)),
            quota_mode="hard", effort=EFFORT,
        ), {}),
        "hymem-fine-grained": (Cell.ycsb(
            "hymem-fine-grained", HierarchyShape(dram_gb=4.0, nvm_gb=16.0,
                                                 ssd_gb=200.0),
            HYMEM_POLICY, "YCSB-BA", 40.0, skew=0.6, effort=EFFORT,
            bm_config=BufferManagerConfig(fine_grained=True, mini_pages=True),
        ), {}),
        "nvm-ssd-batch64": (Cell.ycsb(
            "nvm-ssd-batch64", HierarchyShape(dram_gb=0.0, nvm_gb=16.0,
                                              ssd_gb=200.0),
            NVM_SSD_POLICY, "YCSB-RO", 24.0, skew=0.9, effort=EFFORT,
        ), {"batch_size": 64}),
    }


def observe(cell: Cell, scope: dict) -> dict:
    """The three counting views of one run, as JSON-ready values."""
    with exec_scope(collect_metrics=True, **scope):
        (result,) = run_cells([cell])
    return {
        "stats": result.stats.as_dict(),
        "event_trace": result.event_trace,
        "registry": result.metrics["registry"],
    }


def _roundtrip(value):
    """Normalise through JSON, as the fixture was stored."""
    return json.loads(json.dumps(value, sort_keys=True))


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(fixture_cells()))
def test_views_match_recorded_projection(name, recorded):
    expected = recorded[name]
    observed = _roundtrip(observe(*fixture_cells()[name]))
    assert observed["stats"] == expected["stats"]
    assert observed["event_trace"] == expected["event_trace"]
    assert observed["registry"] == expected["registry"]


def main() -> int:
    payload = {name: observe(cell, scope)
               for name, (cell, scope) in fixture_cells().items()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
