"""Every grid experiment measures through the executor.

A figure that builds its own buffer managers bypasses every run
setting of :class:`~repro.bench.executor.ExecContext`, so golden legs
such as ``--with-metrics`` or ``--with-batching`` would pass for it
without ever applying.  This test runs each registered experiment with
:func:`~repro.bench.executor.run_cells` patched to raise a sentinel and
``BufferManager.__init__`` patched to fail: a grid experiment must reach
``run_cells`` before it builds any buffer manager itself.
"""

from __future__ import annotations

import sys

from repro.bench import executor
from repro.bench.experiments import REGISTRY
from repro.core.buffer_manager import BufferManager

#: Experiments that build no cells, each for a stated reason.
NO_CELLS = {
    "table1": "a static table of device specs: nothing is measured",
    "fig10": "the adaptive controller retunes one buffer manager "
             "between epochs of a single sequential run",
    "recovery": "crash/recover pairs drive one engine through a crash, "
                "which a cell's measurement window cannot express",
}


class _Submitted(Exception):
    """``run_cells`` was reached."""


class _BuiltOutsideExecutor(Exception):
    """A buffer manager was built before ``run_cells`` was reached."""


def test_every_grid_experiment_submits_through_run_cells(monkeypatch):
    def submitted(cells, jobs=1):
        raise _Submitted

    def built(self, *args, **kwargs):
        raise _BuiltOutsideExecutor

    # Modules bind ``run_cells`` by name at import; patch every binding.
    original = executor.run_cells
    for module in list(sys.modules.values()):
        if getattr(module, "run_cells", None) is original:
            monkeypatch.setattr(module, "run_cells", submitted)
    monkeypatch.setattr(BufferManager, "__init__", built)

    assert set(NO_CELLS) <= set(REGISTRY)
    bypassing = {}
    for experiment_id, run in REGISTRY.items():
        if experiment_id in NO_CELLS:
            continue
        try:
            run(quick=True, jobs=1)
        except _Submitted:
            continue
        except _BuiltOutsideExecutor:
            bypassing[experiment_id] = "built a BufferManager itself"
        else:
            bypassing[experiment_id] = "returned without submitting cells"
    assert not bypassing, bypassing
