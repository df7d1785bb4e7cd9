"""The three benchmark workloads, driven through the program's public API.

Each workload runs *passes*.  A pass builds everything it measures
anew, so set-up is timed on every pass, and returns a
:class:`PassResult` with host timings and the simulated output the
reference check compares.  A run makes a fixed number of passes,
``--seconds`` divided by the workload's nominal ``pass_seconds``, so the
number does not depend on how fast the program is.  Host time is ``time.perf_counter``; simulated
results come from the program's cost model and do not depend on the
machine.

Per-op host times come from hooks the program already offers, never
from wrapping it: ``RunConfig(progress=..., progress_every_ops=1)`` for
the in-process workloads, and the admission controller that
``serve.bench.simulate_serving`` takes as an argument.
"""

from __future__ import annotations

import json
import resource
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.executor import shutdown_pool, warm_pool
from repro.bench.harness import RunConfig, WorkloadRunner
from repro.core.buffer_manager import BufferManager, BufferManagerConfig
from repro.core.policy import POLICY_PRESETS, SPITFIRE_LAZY
from repro.core.tenancy import TenancyConfig
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import DEFAULT_SCALE
from repro.serve import loadgen, slo
from repro.serve.admission import AdmissionController
from repro.serve.bench import (
    ServeBenchConfig,
    run_serve_bench,
    simulate_serving,
)
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.ycsb import YCSB_RO, YcsbWorkload

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "references"
#: Scratch output (spans); listed in the root .gitignore.
OUT_DIR = ROOT / ".perfbench_out"

#: The Fig. 6 hierarchy: 800 DRAM, 3,200 NVM and 12,800 SSD pages.
FIG6_SHAPE = HierarchyShape(dram_gb=12.5, nvm_gb=50.0, ssd_gb=200.0)
#: Quick effort, as every figure cell runs it.
WARMUP_OPS = 8_000
MEASURE_OPS = 15_000
#: The buffer manager's own RNG seed, as the figure cells use it.
BM_SEED = 42


def peak_rss_mb() -> float:
    """This process's peak resident memory in MB (``ru_maxrss`` is in KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def normalise(value) -> object:
    """The JSON form of ``value``: what the reference files store."""
    return json.loads(json.dumps(value, sort_keys=True, default=str))


class OpTicks:
    """Progress hook that stamps host time after every operation.

    The harness calls it once per warm-up and measured op; the first
    delta of each phase includes that phase's set-up and is dropped.
    """

    def __init__(self) -> None:
        self.phases: dict[str, array] = {"warmup": array("d"),
                                         "measure": array("d")}
        perf = time.perf_counter
        warmup = self.phases["warmup"].append
        measure = self.phases["measure"].append

        def tick(phase: str, done: int, total: int) -> None:
            (warmup if phase == "warmup" else measure)(perf())
        self.tick = tick

    @property
    def ops(self) -> int:
        return sum(len(ticks) for ticks in self.phases.values())

    def first(self) -> float:
        return self.phases["warmup"][0]

    def last(self) -> float:
        return self.phases["measure"][-1]

    def deltas_us(self) -> array:
        return array("d", (
            (b - a) * 1e6
            for ticks in self.phases.values()
            for a, b in zip(ticks, ticks[1:])
        ))


class BestWindows:
    """Composite of passes that replay one operation sequence.

    Every pass of a workload replays the same operations (the workload
    seed fixes them), so window ``k`` — ops ``k*size`` up to
    ``(k+1)*size`` — does the same work in every pass.  The host is
    shared, and its speed drifts by up to 2x over a few seconds (see
    README.md).  For each window the composite keeps the pass in which
    that window ran fastest, which removes most of that drift while
    still holding every op of the sequence, slow ones included.
    """

    def __init__(self, size: int = 10) -> None:
        self.size = size
        self.passes = 0
        self.window_us: list[float] = []
        self.windows: list[array] = []

    def add(self, op_us: array) -> None:
        size = self.size
        count = -(-len(op_us) // size)
        if self.passes and count != len(self.windows):
            raise ValueError("passes replay different operation sequences")
        for k in range(count):
            window = op_us[k * size:(k + 1) * size]
            total = sum(window)
            if not self.passes:
                self.window_us.append(total)
                self.windows.append(window)
            elif total < self.window_us[k]:
                self.window_us[k] = total
                self.windows[k] = window
        self.passes += 1

    @property
    def ops(self) -> int:
        return sum(len(window) for window in self.windows)

    def ops_per_s(self) -> float:
        return self.ops / (sum(self.window_us) / 1e6)

    def op_us(self) -> list[float]:
        return sorted(x for window in self.windows for x in window)


@dataclass
class PassResult:
    """Host timings and simulated output of one pass."""

    setup_s: float
    #: Host seconds from the first op to the last.
    active_s: float
    #: Operations completed inside ``active_s``.
    active_ops: int
    #: Operations attempted in the pass (requests, for serve-replay).
    ops: int
    op_us: array
    output: object
    #: Operations that raised or were shed.
    failed: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return self.active_ops / self.active_s


# ----------------------------------------------------------------------
# In-process workloads: ycsb-hot and tpcc-tiered
# ----------------------------------------------------------------------
def run_result_output(result) -> dict:
    """The simulated part of a ``RunResult`` the reference pins."""
    return normalise({
        "label": result.label,
        "operations": result.operations,
        "throughput": result.throughput,
        "throughput_by_workers": result.throughput_by_workers,
        "makespan_ns": result.makespan_ns,
        "inclusivity": result.inclusivity,
        "nvm_write_gb": result.nvm_write_gb,
        "stats": result.stats.as_dict(),
        "resource_usage": result.resource_usage,
    })


class InProcessWorkload:
    """One Spitfire-Lazy buffer manager on the Fig. 6 hierarchy."""

    name = ""
    default_seed = 3
    held_out_seed = 7

    def __init__(self, warmup_ops: int = WARMUP_OPS,
                 measure_ops: int = MEASURE_OPS) -> None:
        self.warmup_ops = warmup_ops
        self.measure_ops = measure_ops
        self.pass_ops = warmup_ops + measure_ops

    def _measure(self, runner: WorkloadRunner, seed: int):
        raise NotImplementedError

    def reference_output(self, seed: int) -> dict:
        return self.run_pass(seed).output

    def cross_check(self, seed: int, output) -> str | None:
        """Nothing to cross-check: a pass is the program's own measure loop."""
        return None

    def run_pass(self, seed: int, tracer=None) -> PassResult:
        """One pass; with ``tracer``, also reconcile its span counts."""
        start = time.perf_counter()
        hierarchy = StorageHierarchy(FIG6_SHAPE, DEFAULT_SCALE)
        bm = BufferManager(hierarchy, SPITFIRE_LAZY,
                           BufferManagerConfig(seed=BM_SEED))
        ticks = OpTicks()
        hook = ticks.tick
        boundary: dict[str, int] = {}
        if tracer is not None:
            def hook(phase, done, total, _tick=ticks.tick):
                _tick(phase, done, total)
                if phase == "warmup" and done == total:
                    boundary.update(tracer.calls_by_point())
        runner = WorkloadRunner(bm, RunConfig(
            warmup_ops=self.warmup_ops, measure_ops=self.measure_ops,
            progress=hook, progress_every_ops=1,
        ))
        result = self._measure(runner, seed)
        passed = PassResult(
            setup_s=ticks.first() - start,
            active_s=ticks.last() - ticks.first(),
            active_ops=ticks.ops - 1,
            ops=ticks.ops,
            op_us=ticks.deltas_us(),
            output=run_result_output(result),
        )
        passed.extra["dram_hit_ratio"] = result.stats.dram_hit_ratio
        if runner.log is not None:
            passed.extra["wal_bytes"] = runner.log.stats.bytes_appended
        if tracer is not None:
            window = _window(tracer.calls_by_point(), boundary)
            passed.extra["reconcile"] = reconcile(
                window, result.stats, result.resource_usage,
                log_records=(runner.log.stats.records_appended
                             if runner.log is not None else None),
                log_appends=tracer.calls_by_point()["LogManager.append"],
            )
        return passed


class YcsbHot(InProcessWorkload):
    """YCSB-RO on 640 pages, inside 800 DRAM pages: only the hit path runs."""

    name = "ycsb-hot"
    #: Nominal host seconds per pass, which fixes the pass count.
    pass_seconds = 0.5

    def _measure(self, runner, seed):
        workload = YcsbWorkload(
            num_tuples=DEFAULT_SCALE.pages(10.0) * 16, mix=YCSB_RO,
            skew=0.3, seed=seed)
        return runner.measure_ycsb(workload)


class TpccTiered(InProcessWorkload):
    """TPC-C on 6,400 pages with WAL and checkpoints: all three tiers."""

    name = "tpcc-tiered"
    pass_seconds = 2.0

    def _measure(self, runner, seed):
        workload = TpccWorkload(db_gigabytes=100.0, scale=DEFAULT_SCALE,
                                seed=seed)
        return runner.measure_tpcc(workload)


def _window(end: dict[str, int], start: dict[str, int]) -> dict[str, int]:
    return {name: end[name] - start.get(name, 0) for name in end}


def reconcile(window: dict[str, int], stats, resource_usage: dict,
              log_records: int | None = None,
              log_appends: int | None = None) -> dict[str, tuple[int, int]]:
    """Span counts against the program's own counters: name -> (spans, counter).

    ``window`` holds entry-point calls inside the measurement window,
    which is what ``BufferStats`` and ``ResourceUsage`` cover.  Every
    ``CostAccumulator.charge`` is one resource operation, and every
    ``Device.read``/``write`` charges its device channel exactly once.
    The log's counters cover the whole pass, as ``log_appends`` does.
    """
    operations = {key: usage["operations"]
                  for key, usage in resource_usage.items()}
    checks = {
        "core.access": (
            window["BufferManager.read"] + window["BufferManager.write"],
            stats.reads + stats.writes),
        "hardware.simclock": (
            window["CostAccumulator.charge"], sum(operations.values())),
        "hardware.device": (
            window["Device.read"] + window["Device.write"],
            sum(ops for key, ops in operations.items() if key != "cpu")),
    }
    if log_records is not None:
        checks["wal"] = (log_appends, log_records)
    return checks


# ----------------------------------------------------------------------
# serve-replay
# ----------------------------------------------------------------------
class TickingAdmission(AdmissionController):
    """The stock controller, stamping host time as each request arrives."""

    def __init__(self, config, ticks: array) -> None:
        super().__init__(config)
        self._tick = ticks.append

    def try_admit(self, tenant_id: int, now: float) -> None:
        self._tick(time.perf_counter())
        return super().try_admit(tenant_id, now)


def serve_bm(config: ServeBenchConfig, schedule) -> BufferManager:
    """The serve-bench buffer manager, built as ``run_serve_bench`` does."""
    hierarchy = StorageHierarchy(
        HierarchyShape(config.dram_gb, config.nvm_gb, config.ssd_gb),
        DEFAULT_SCALE,
    )
    bm = BufferManager(
        hierarchy,
        POLICY_PRESETS[config.policy],
        BufferManagerConfig(
            seed=config.seed,
            tenancy=TenancyConfig(
                num_tenants=len(config.resolved_tenants()),
                page_stride=schedule.page_stride,
            ),
        ),
    )
    bm.allocate_pages(schedule.initial_page_ids())
    hierarchy.reset_accounting()
    bm.reset_stats()
    return bm


class ServeReplay:
    """The default serve-bench fleet, replayed as ``run_serve_bench`` does.

    The schedule is generated on the executor's pool (``serve-bench
    --jobs 2``; the report is the same at any job count), so the
    executor is measured here too.
    """

    name = "serve-replay"
    default_seed = 11
    held_out_seed = 17
    pass_ops = ServeBenchConfig.total_ops
    pass_seconds = 0.5
    jobs = 2

    def reference_output(self, seed: int) -> dict:
        """The program's own serve-bench report, independent of the replay."""
        return normalise(run_serve_bench(ServeBenchConfig(seed=seed)))

    def cross_check(self, seed: int, output) -> str | None:
        """None when ``output`` equals a live ``run_serve_bench`` report.

        A pass rebuilds the buffer manager and replays the schedule the
        way ``run_serve_bench`` does, so a later change to the program's
        own serve-bench would leave the replay matching the old
        reference.  Comparing against the live report catches that.
        """
        live = normalise(run_serve_bench(ServeBenchConfig(seed=seed),
                                         jobs=self.jobs))
        if output == live:
            return None
        return ("replay differs from run_serve_bench: "
                + "; ".join(_diff(live, output)[:5]))

    def run_pass(self, seed: int, tracer=None) -> PassResult:
        pool_start_s = None
        if tracer is not None:
            shutdown_pool()
            began = time.perf_counter()
            warm_pool(self.jobs)
            pool_start_s = time.perf_counter() - began
        start = time.perf_counter()
        config = ServeBenchConfig(seed=seed)
        schedule = loadgen.build_schedule(loadgen.LoadSpec(
            tenants=config.resolved_tenants(),
            total_ops=config.total_ops,
            rate_ops_per_s=config.rate_ops_per_s,
            seed=config.seed,
        ), jobs=self.jobs)
        bm = serve_bm(config, schedule)
        boundary = tracer.calls_by_point() if tracer is not None else {}
        ticks = array("d")
        admission = (AdmissionController(config.admission)
                     if tracer is not None
                     else TickingAdmission(config.admission, ticks))
        setup_end = time.perf_counter()
        samples, sheds, makespan_s = simulate_serving(schedule, bm, admission)
        report = slo.build_slo_report(
            samples, sheds=sheds, makespan_s=makespan_s,
            config=config.digest(),
        )
        report["admission"] = admission.snapshot()
        end = time.perf_counter()
        requests = len(schedule.arrivals)
        passed = PassResult(
            setup_s=setup_end - start,
            active_s=end - setup_end,
            active_ops=requests,
            ops=requests,
            op_us=array("d", ((b - a) * 1e6
                               for a, b in zip(ticks, ticks[1:]))),
            output=normalise(report),
            failed=len(sheds),
        )
        passed.extra["dram_hit_ratio"] = bm.stats.dram_hit_ratio
        if tracer is not None:
            # The workers were forked with the wrappers installed.
            shutdown_pool()
            passed.extra.update(pool_start_s=pool_start_s, pool_starts=1)
            window = _window(tracer.calls_by_point(), boundary)
            passed.extra["reconcile"] = reconcile(
                window, bm.stats,
                {key: usage.as_dict()
                 for key, usage in bm.hierarchy.cost.snapshot().items()},
            )
        return passed


WORKLOADS = {w.name: w for w in (YcsbHot, TpccTiered, ServeReplay)}


# ----------------------------------------------------------------------
# Reference check
# ----------------------------------------------------------------------
def reference_path(name: str, seed: int,
                   directory: Path = REFERENCE_DIR) -> Path:
    return directory / f"{name}-seed{seed}.json"


def check_output(name: str, seed: int, output,
                 directory: Path = REFERENCE_DIR) -> str | None:
    """None when ``output`` equals the reference, else what differs."""
    path = reference_path(name, seed, directory)
    if not path.exists():
        return f"no reference {path.name} for seed {seed}"
    expected = json.loads(path.read_text())
    if output == expected:
        return None
    diffs = _diff(expected, output)
    return f"output differs from {path.name}: " + "; ".join(diffs[:5])


def _diff(expected, actual, where: str = "") -> list[str]:
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            out.extend(_diff(expected.get(key), actual.get(key),
                             f"{where}.{key}"))
        return out
    if expected != actual:
        return [f"{where or '.'}: expected {expected!r}, got {actual!r}"]
    return []


def write_reference(name: str, seed: int, output,
                    directory: Path = REFERENCE_DIR) -> Path:
    path = reference_path(name, seed, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(output, indent=1, sort_keys=True) + "\n")
    return path
