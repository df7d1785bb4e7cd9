"""The benchmark's own tests: output check, tracer integrity, exit contract.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import run
from perfbench.ledger import LAYERS, LayerTracer
from perfbench.workloads import (
    REFERENCE_DIR,
    ROOT,
    ServeReplay,
    TpccTiered,
    YcsbHot,
)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _short(workload_cls):
    return workload_cls(warmup_ops=400, measure_ops=1_200)


def test_perturbed_reference_is_caught(tmp_path):
    shutil.copytree(REFERENCE_DIR, tmp_path / "refs")
    path = tmp_path / "refs" / "ycsb-hot-seed3.json"
    reference = json.loads(path.read_text())
    reference["stats"]["dram_hits"] += 1
    path.write_text(json.dumps(reference))

    outcome = run.Outcome()
    metrics = run.run_workload(YcsbHot(), 3, 0.1, False, outcome,
                               tmp_path / "refs", tmp_path / "out")
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert not outcome.correct
    assert outcome.attempted > 0
    assert outcome.failed == outcome.attempted  # error_rate 1.0
    assert outcome.problems[0].startswith("ycsb-hot: ")
    assert "dram_hits" in outcome.problems[0]


def test_unchanged_reference_passes(capsys):
    assert run.main(["--workload", "ycsb-hot", "--seed", "1",
                     "--seconds", "0.1"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_serve_replay_is_cross_checked_against_the_program():
    workload = ServeReplay()
    output = workload.run_pass(11).output
    assert workload.cross_check(11, output) is None
    output["totals"]["admitted"] += 1
    problem = workload.cross_check(11, output)
    assert problem.startswith("replay differs from run_serve_bench: ")
    assert "admitted" in problem


def test_pass_count_is_fixed_by_the_seconds():
    assert run.pass_count(YcsbHot(), 30) == 60
    assert run.pass_count(TpccTiered(), 30) == 15
    assert run.pass_count(TpccTiered(), 0.1) == 1


def test_tracer_restores_classes_and_output():
    workload = _short(YcsbHot)
    untraced = workload.run_pass(3).output
    tracer = LayerTracer()
    originals = {(holder, attr): original
                 for _l, _n, holder, attr, original in tracer.entry_points}
    with tracer:
        assert all(vars(holder)[attr] is not original
                   for (holder, attr), original in originals.items())
        traced = workload.run_pass(3, tracer=tracer).output
    assert tracer.restored()
    assert all(vars(holder)[attr] is original
               for (holder, attr), original in originals.items())
    assert traced == untraced


@pytest.mark.parametrize("workload_cls", [YcsbHot, TpccTiered])
def test_span_counts_reconcile(workload_cls):
    tracer = LayerTracer()
    with tracer:
        result = _short(workload_cls).run_pass(3, tracer=tracer)
    checks = result.extra["reconcile"]
    assert {"core.access", "hardware.simclock", "hardware.device",
            "wal"} <= set(checks)
    for layer, (spans, counter) in checks.items():
        assert spans == counter, layer
    assert checks["core.access"][0] == 1_200
    if workload_cls is TpccTiered:
        assert checks["wal"][0] > 0


def test_self_times_fit_in_traced_wall_time():
    tracer = LayerTracer()
    began = time.perf_counter()
    with tracer:
        _short(TpccTiered).run_pass(3, tracer=tracer)
    wall = time.perf_counter() - began
    ledger = tracer.by_layer()
    assert set(ledger) == set(LAYERS)
    assert sum(entry["self_s"] for entry in ledger.values()) <= wall
    # The stored spans give the same self times as the online tally.
    for online, from_spans in zip(tracer.self_s, tracer.span_self_s()):
        assert from_spans == pytest.approx(online, rel=1e-6, abs=1e-9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ycsb-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
