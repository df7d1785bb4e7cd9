"""Golden-figure gate: regenerate figures and byte-compare their JSON.

The refactoring contract of the core (PR 1's chain decomposition, the
four-component core split) is that figure output is *byte-identical*
to the archived seed results under ``benchmarks/results/``.  This
script enforces that mechanically: it reruns the named experiments at
quick effort, serialises them exactly the way the benchmark suite
does (``ExperimentResult.save_json``), and compares the bytes against
the archived JSON.  CI runs it on every push, so bit-identity is a
pipeline property rather than a by-hand claim.

``--with-metrics`` regenerates with a
:class:`~repro.obs.hub.MetricsHub` attached to every executor cell:
the figure JSON must still match byte-for-byte, proving observability
is side-effect-free on the measured system.

``--with-faults-disabled`` regenerates with a **no-op**
:class:`~repro.faults.plan.FaultPlan` installed in every cell — each
device is wrapped in a pure-delegation
:class:`~repro.faults.injector.FaultyDevice`.  Byte-identity here
proves the fault-injection layer costs nothing when disabled: the
wrappers perturb neither the cost model nor the measured figures.

``--with-batching`` regenerates with every cell driven through the
columnar batch path at batch size 1024
(``exec_scope(batch_size=1024)``).  Byte-identity here is
the batch path's core contract: batched execution changes wall-clock
time and nothing else.  The flags compose — ``--with-batching
--with-metrics --with-faults-disabled`` proves the contract holds with
observers attached and fault wrappers installed.

``--with-tenancy`` regenerates with tenant tagging enabled in every
cell (``exec_scope(tenant_tagging=True)``): each buffer
manager is built with ``TenancyConfig.single()``, every op runs
tagged as tenant 0 through the per-tenant admission and metrics
machinery, and the result carries a per-tenant breakdown.  Byte-
identity here is the multi-tenant refactor's core contract: tenant
plumbing at the default tenant is free.

``--with-telemetry`` regenerates with the **entire live telemetry
plane** attached: a streaming worker-progress channel (manager-queue
backed, drained by a background aggregator), decision tracing in every
cell (``exec_scope(decision_fraction=0.05)``), and a live Prometheus scrape
endpoint (:class:`~repro.obs.server.MetricsServer`) hit by a
background scraper thread *while the figures regenerate* — which is
why this flag implies ``--with-metrics``.  Byte-identity here is the
telemetry plane's core contract: watching a run live changes nothing
about its results.  The gate also asserts at least one mid-run scrape
actually succeeded, so it cannot pass vacuously.

``--prewarm-pool`` creates and warms the persistent worker pool
*before* any of the scopes above are entered.  This is the adversarial
ordering for context propagation: the workers are forked first, so
none of the scopes can reach them by inheritance — only the explicit
per-submission :class:`~repro.bench.executor.ExecContext` can carry
them.  Byte-identity under ``--prewarm-pool --jobs 4`` with every
scope composed is the proof that the persistent pool does not leak or
drop execution context.

Each ``--with-*`` flag is one row of :data:`LEGS`: the
:class:`~repro.bench.executor.ExecContext` fields it sets and the text
it adds to the report line.  The chosen rows compose into one
:func:`~repro.bench.executor.exec_scope`.

Usage::

    python benchmarks/check_golden_figures.py            # fig6 + fig7
    python benchmarks/check_golden_figures.py fig6 --jobs 4 --with-metrics
    python benchmarks/check_golden_figures.py --with-faults-disabled
    python benchmarks/check_golden_figures.py --with-batching
    python benchmarks/check_golden_figures.py --with-tenancy
    python benchmarks/check_golden_figures.py --with-telemetry --jobs 4
    python benchmarks/check_golden_figures.py --jobs 4 --prewarm-pool \
        --with-metrics --with-batching --with-faults-disabled \
        --with-tenancy --with-telemetry
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.bench.executor import exec_scope, metrics_collection
from repro.bench.experiments import REGISTRY
from repro.faults.plan import FaultPlan

RESULTS_DIR = Path(__file__).parent / "results"

#: Experiments cheap enough to regenerate on every CI run while still
#: exercising the full chain walk (hits, misses, promotions, evictions,
#: write-backs) across four workloads and two worker counts each.
DEFAULT_EXPERIMENTS = ("fig6", "fig7")


#: Batch size ``--with-batching`` drives cells at; large enough that a
#: measurement window spans only a handful of batches.
BATCHING_BATCH_SIZE = 1024


@dataclass(frozen=True)
class Leg:
    """One ``--with-*`` flag: the run settings it proves byte-neutral."""

    #: :func:`~repro.bench.executor.exec_scope` keywords.
    overrides: dict
    #: Report-line text; ``{cells}`` and ``{scrapes}`` are filled in.
    report: str
    help: str


#: Flag suffix (``--with-<name>``, underscores as dashes) -> leg, in
#: report order.  ``telemetry`` also attaches the live channel and the
#: scrape endpoint (:func:`_attach_telemetry_plane`); that endpoint
#: serves the metrics sink, so the leg implies ``metrics``.
LEGS = {
    "metrics": Leg(
        {"collect_metrics": True}, "metrics attached to {cells} cells",
        "attach a MetricsHub to every cell while regenerating; the JSON "
        "must stay byte-identical"),
    "faults_disabled": Leg(
        {"fault_plan": FaultPlan.none()}, "no-op fault wrappers installed",
        "install a no-op FaultPlan (pure-delegation device wrappers) in "
        "every cell; the JSON must stay byte-identical"),
    "batching": Leg(
        {"batch_size": BATCHING_BATCH_SIZE},
        f"batched at {BATCHING_BATCH_SIZE}",
        "drive every cell through the columnar batch path at batch size "
        f"{BATCHING_BATCH_SIZE}; the JSON must stay byte-identical"),
    "tenancy": Leg(
        {"tenant_tagging": True}, "tenant tagging on",
        "enable tenant tagging (single-tenant TenancyConfig, every op "
        "tagged tenant 0) in every cell; the JSON must stay byte-identical"),
    "telemetry": Leg(
        {"decision_fraction": 0.05},
        "live telemetry on, {scrapes} mid-run scrape(s)",
        "attach the live telemetry plane (streaming progress channel, "
        "decision tracing, HTTP scrape endpoint polled mid-run; implies "
        "--with-metrics); the JSON must stay byte-identical and >= 1 "
        "scrape must succeed"),
}


def check(experiment_id: str, jobs: int, legs=()) -> bool:
    """Regenerate one experiment under ``legs`` (LEGS keys) and compare."""
    golden = RESULTS_DIR / f"{experiment_id}.json"
    if not golden.exists():
        print(f"FAIL {experiment_id}: no archived result at {golden}")
        return False
    started = time.time()
    legs = set(legs)
    if "telemetry" in legs:
        legs.add("metrics")
    overrides: dict = {}
    for name in legs:
        overrides.update(LEGS[name].overrides)
    scrapes = {"ok": 0, "fail": 0}
    with contextlib.ExitStack() as stack:
        sink = (stack.enter_context(metrics_collection())
                if "metrics" in legs else [])
        stack.enter_context(exec_scope(**overrides))
        if "telemetry" in legs:
            _attach_telemetry_plane(stack, sink, scrapes)
        result = REGISTRY[experiment_id](quick=True, jobs=jobs)
    if "telemetry" in legs and scrapes["ok"] == 0:
        print(f"FAIL {experiment_id}: live metrics endpoint was never "
              f"scraped successfully ({scrapes['fail']} failed attempts) "
              f"— the telemetry leg would pass vacuously")
        return False
    with tempfile.TemporaryDirectory() as tmp:
        fresh = result.save_json(tmp)
        fresh_bytes = fresh.read_bytes()
    golden_bytes = golden.read_bytes()
    elapsed = time.time() - started
    mode = "".join(
        ", " + LEGS[name].report.format(cells=len(sink),
                                        scrapes=scrapes["ok"])
        for name in LEGS if name in legs)
    if fresh_bytes == golden_bytes:
        print(f"OK   {experiment_id}: byte-identical to {golden} "
              f"({len(golden_bytes)} bytes, {elapsed:.1f}s{mode})")
        return True
    print(f"FAIL {experiment_id}: output differs from {golden} "
          f"({elapsed:.1f}s)")
    _explain(golden_bytes, fresh_bytes)
    return False


def _attach_telemetry_plane(stack: contextlib.ExitStack, sink: list,
                            scrapes: dict) -> None:
    """Attach the live telemetry observers the gate must prove harmless.

    Streaming progress channel (drained by a silent aggregator) and a
    live Prometheus endpoint polled by a background scraper thread for
    the duration of the regeneration; decision tracing comes from the
    leg's overrides.  Everything tears down via ``stack``.
    """
    import io
    import threading

    from repro.bench.telemetry import ProgressAggregator, open_channel
    from repro.obs.export import merge_snapshots, prometheus_text
    from repro.obs.server import MetricsServer

    channel = open_channel()
    aggregator = ProgressAggregator(channel, stream=io.StringIO()).start()
    stack.callback(channel.close)
    stack.callback(aggregator.stop, False)
    stack.enter_context(exec_scope(telemetry=channel))

    def provider() -> str:
        return prometheus_text(
            merge_snapshots(result.metrics for _, result in list(sink)))

    server = stack.enter_context(MetricsServer(provider))
    stop = threading.Event()

    def scraper() -> None:
        while not stop.is_set():
            try:
                server.scrape(timeout=2.0)
                scrapes["ok"] += 1
            except Exception:
                scrapes["fail"] += 1
            stop.wait(0.2)

    thread = threading.Thread(target=scraper, name="golden-scraper",
                              daemon=True)
    thread.start()

    def join_scraper() -> None:
        stop.set()
        thread.join(timeout=5.0)

    stack.callback(join_scraper)


def _explain(golden_bytes: bytes, fresh_bytes: bytes) -> None:
    """Print the first differing series point to make CI logs actionable."""
    import json

    golden = json.loads(golden_bytes)
    fresh = json.loads(fresh_bytes)
    for label, points in golden.get("series", {}).items():
        fresh_points = fresh.get("series", {}).get(label)
        if fresh_points == points:
            continue
        print(f"  first differing series: {label!r}")
        print(f"    golden: {points}")
        print(f"    fresh:  {fresh_points}")
        return
    print("  series identical; difference is in notes/metadata/formatting")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="*",
                        default=list(DEFAULT_EXPERIMENTS),
                        help=f"experiment ids (default: {' '.join(DEFAULT_EXPERIMENTS)})")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes per experiment (results are "
                             "identical at any job count)")
    for name, leg in LEGS.items():
        parser.add_argument(f"--with-{name.replace('_', '-')}",
                            action="store_true", help=leg.help)
    parser.add_argument("--prewarm-pool", action="store_true",
                        help="fork and warm the persistent worker pool "
                             "BEFORE entering any --with-* scope, so context "
                             "can only reach workers through the explicit "
                             "per-submission ExecContext (never fork "
                             "inheritance)")
    args = parser.parse_args(argv)

    unknown = [e for e in args.experiments if e not in REGISTRY]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    if args.prewarm_pool and args.jobs > 1:
        from repro.bench.executor import pool_info, warm_pool

        warmed = warm_pool(args.jobs)
        info = pool_info()
        print(f"prewarmed pool: {info} (warmed={warmed})")
    legs = [name for name in LEGS if getattr(args, f"with_{name}")]
    failures = [e for e in args.experiments
                if not check(e, args.jobs, legs)]
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
