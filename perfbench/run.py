"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ycsb-hot --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
the same untraced passes, then one traced pass, and reports the
per-layer ledger.  A table with units and sample counts goes to stdout;
the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The end-to-end metrics BENCHMARK.json gates, with their units.
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: A run stops early once its passes have taken this many times
#: ``--seconds``, so it ends within its time limit on a very slow host.
MAX_STRETCH = 3


def _import_program():
    """Put the checkout's ``src`` and root on the path, or exit 2."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted sample."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def workload_seed(workload, seed: int, override: int | None) -> int:
    """An even ``--seed`` runs the default workload seed, an odd one the held-out."""
    if override is not None:
        return override
    return workload.default_seed if seed % 2 == 0 else workload.held_out_seed


class Outcome:
    """Tallies one workload's attempted/failed ops and the failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, ops: int, failed: int, problem: str | None) -> None:
        self.attempted += ops
        if problem is not None:
            self.failed += ops
            self.problems.append(problem)
        else:
            self.failed += failed

    def fail_all(self, problem: str) -> None:
        """Count every op of the run as failed."""
        self.failed = self.attempted
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def pass_count(workload, seconds: float) -> int:
    """Untraced passes per run: ``seconds`` over the nominal pass time.

    The count depends on ``--seconds`` alone, not on how fast the
    program runs, so two versions of the program are compared over the
    same number of passes.
    """
    return max(1, round(seconds / workload.pass_seconds))


def timed_passes(workload, seed: int, seconds: float, outcome: Outcome,
                 reference_dir: Path):
    """:func:`pass_count` untraced passes, each checked against the reference.

    Returns the passes (per-op times dropped) and their
    :class:`~perfbench.workloads.BestWindows` composite.  On a host so
    slow that the passes take :data:`MAX_STRETCH` times ``seconds``, the
    run stops early and says so, to end within its time limit.
    """
    from perfbench.workloads import BestWindows, check_output

    count = pass_count(workload, seconds)
    passes = []
    best = BestWindows()
    first_output = None
    began = time.perf_counter()
    for number in range(count):
        if time.perf_counter() - began > MAX_STRETCH * seconds:
            print(f"{workload.name}: stopped after {number} of {count} "
                  f"passes (over {MAX_STRETCH} x --seconds)")
            break
        # A full collection first makes every pass start from the same
        # collector state, so collections fall on the same ops each pass.
        gc.collect()
        try:
            result = workload.run_pass(seed)
        except Exception as exc:  # a raising op fails the pass, not the run
            outcome.add(workload.pass_ops, 0, f"{workload.name}: pass raised "
                        f"{type(exc).__name__}: {exc}")
            continue
        problem = check_output(workload.name, seed, result.output,
                               reference_dir)
        outcome.add(result.ops, result.failed,
                    f"{workload.name}: {problem}" if problem else None)
        if first_output is None:
            first_output = result.output
        best.add(result.op_us)
        result.op_us = result.output = None
        passes.append(result)
    if first_output is not None:
        problem = workload.cross_check(seed, first_output)
        if problem:
            outcome.fail_all(f"{workload.name}: {problem}")
    return passes, best


def end_to_end(passes, best) -> dict[str, tuple[float, str, int]]:
    """``{metric: (value, unit, samples)}`` over the untraced passes.

    Throughput and per-op percentiles come from the composite of the
    fastest windows.  ``setup_s`` is the fastest set-up of the run's
    passes: set-up is short, so one slow spell of the host moves its
    median but not its minimum.
    """
    from perfbench.workloads import peak_rss_mb

    op_us = best.op_us()
    values = {
        "ops_per_s": (best.ops_per_s(), best.ops),
        "op_p50_us": (quantile(op_us, 0.50), len(op_us)),
        "setup_s": (min(p.setup_s for p in passes), len(passes)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    return {name: (value, END_TO_END_UNITS[name], samples)
            for name, (value, samples) in values.items()}


def pass_summary(passes) -> dict[str, tuple[float, str, int]]:
    """The pass count and the plain median pass rate, beside the composite."""
    return {
        "timed.passes": (len(passes), "count", len(passes)),
        "timed.median_pass_ops_per_s": (
            statistics.median(p.ops_per_s for p in passes), "1/s",
            len(passes)),
    }


def not_gated(passes, best, outcome: Outcome
              ) -> dict[str, tuple[float, str, int]]:
    """End-to-end numbers printed but not gated (see README.md)."""
    op_us = best.op_us()
    return {
        "op_p99_us": (quantile(op_us, 0.99), "us", len(op_us)),
        "error_rate": (outcome.error_rate, "ratio", outcome.attempted),
        **pass_summary(passes),
    }


def traced_pass(workload, seed: int, outcome: Outcome, reference_dir: Path,
                spans_dir: Path | None):
    """One pass with every layer wrapped; returns ``(pass, ledger, wall)``."""
    from perfbench.ledger import LayerTracer
    from perfbench.workloads import check_output

    tracer = LayerTracer()
    gc.collect()
    began = time.perf_counter()
    with tracer:
        result = workload.run_pass(seed, tracer=tracer)
    wall = time.perf_counter() - began
    problems = []
    output_problem = check_output(workload.name, seed, result.output,
                                  reference_dir)
    if output_problem:
        problems.append(f"traced output: {output_problem}")
    if not tracer.restored():
        problems.append("an entry point was not restored after tracing")
    for layer, (spans, counter) in result.extra.get("reconcile", {}).items():
        if spans != counter:
            problems.append(f"{layer} spans {spans} != program counter "
                            f"{counter}")
    outcome.add(result.ops, result.failed,
                f"{workload.name} (traced): " + "; ".join(problems)
                if problems else None)
    if spans_dir is not None:
        tracer.write_spans(spans_dir / f"spans-{workload.name}")
    return result, tracer.by_layer(), wall


def per_layer(passes, traced, by_layer, traced_wall: float
              ) -> dict[str, tuple[float, str, int]]:
    """``{metric: (value, unit, samples)}`` from the traced pass."""
    ops = traced.ops
    metrics: dict[str, tuple[float, str, int]] = {}
    for layer, entry in by_layer.items():
        metrics[f"{layer}.self_s"] = (entry["self_s"], "s", entry["calls"])
        metrics[f"{layer}.calls_per_op"] = (entry["calls"] / ops, "calls/op",
                                            ops)
    untraced = statistics.median(p.ops_per_s for p in passes)
    extra = traced.extra
    metrics.update({
        "executor.pool_start_s": (extra.get("pool_start_s", 0.0), "s",
                                  extra.get("pool_starts", 0)),
        "core.dram_hit_ratio": (extra.get("dram_hit_ratio", 0.0), "ratio",
                                ops),
        "wal.bytes_per_op": (extra.get("wal_bytes", 0) / ops, "B/op", ops),
        "tracing_overhead": (1.0 - traced.ops_per_s / untraced, "share",
                             len(passes) + 1),
        "trace.wall_s": (traced_wall, "s", 1),
        **pass_summary(passes),
    })
    return metrics


def print_table(title: str, metrics: dict[str, tuple[float, str, int]]
                ) -> None:
    print(title)
    print(f"  {'metric':<32} {'value':>14}  {'unit':<9} {'samples':>9}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<32} {value:>14.6g}  {unit:<9} {samples:>9}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all to run each in turn")
    parser.add_argument("--seed", type=int, default=0,
                        help="even: default workload seed; odd: held-out")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="nominal host seconds of untraced passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=None,
                        help="override the seed the workload generates from")
    parser.add_argument("--record", action="store_true",
                        help="write this seed's reference instead of "
                             "checking it")
    args = parser.parse_args(argv)

    _import_program()
    from repro.bench.executor import shutdown_pool

    from perfbench.workloads import (
        OUT_DIR,
        REFERENCE_DIR,
        WORKLOADS,
        write_reference,
    )

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from all, {', '.join(WORKLOADS)}")
    outcomes: dict[str, Outcome] = {}
    reported: dict[str, dict] = {}
    try:
        for name in names:
            workload = WORKLOADS[name]()
            seed = workload_seed(workload, args.seed, args.workload_seed)
            if args.record:
                path = write_reference(name, seed,
                                       workload.reference_output(seed))
                print(f"wrote {path}")
                continue
            outcomes[name] = Outcome()
            metrics = run_workload(workload, seed, args.seconds, args.trace,
                                   outcomes[name], REFERENCE_DIR, OUT_DIR)
            if metrics is None:
                return 1
            reported[name] = metrics
    finally:
        shutdown_pool()
    if args.record:
        return 0
    problems = [p for outcome in outcomes.values() for p in outcome.problems]
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    if len(names) == 1:
        metrics = reported[names[0]]
    else:
        metrics = {f"{name}.{metric}": entry
                   for name, entries in reported.items()
                   for metric, entry in entries.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _samples) in metrics.items()},
    }))
    return 0


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 outcome: Outcome, reference_dir: Path, out_dir: Path
                 ) -> dict | None:
    """Print one workload's tables; return the metrics the JSON reports."""
    passes, best = timed_passes(workload, seed, seconds, outcome,
                                reference_dir)
    if not passes:
        print("\n".join(f"CHECK FAILED {p}" for p in outcome.problems))
        return None
    metrics = end_to_end(passes, best)
    print_table(f"{workload.name} (workload seed {seed}, "
                f"{len(passes)} untraced passes, host time)", metrics)
    print_table("  printed, not gated",
                not_gated(passes, best, outcome))
    if not trace:
        return metrics
    traced, by_layer, wall = traced_pass(workload, seed, outcome,
                                         reference_dir, out_dir)
    metrics = per_layer(passes, traced, by_layer, wall)
    print_table(f"{workload.name} per-layer ledger (one traced pass, "
                f"{traced.ops} ops, {wall:.3f} s)", metrics)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
