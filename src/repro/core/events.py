"""Typed buffer-manager events, the instrumentation bus, and its edge table.

The tier chain emits one :class:`BufferEvent` per hit, miss, install,
migration, eviction, write-back, flush and fine-grained load through one
:class:`EventBus`, which counts every event in one monotonic *edge
table* keyed by ``(EventType, src, tier)``.  ``BufferManager.stats``,
``RunResult.event_trace`` (:func:`edge_report`), the metrics hub's
traffic counters and the adaptive controller's epoch totals are all
differences of two table snapshots, so a fresh buffer manager's bus has
no subscribers.  :meth:`EventBus.publish` skips :class:`BufferEvent`
construction whenever every subscriber implements the ``apply_event``
fast-path protocol.
"""

from __future__ import annotations

import contextlib
import enum
import threading
from collections import defaultdict
from typing import Callable

from ..hardware.specs import Tier
from ..pages.page import PageId


class EventType(enum.Enum):
    """The kinds of events the tier chain emits."""

    # Identity hashing (members are singletons) keeps the edge table's
    # per-publish key hashing in C; Enum's default runs Python code.
    __hash__ = object.__hash__

    #: One logical buffer-manager operation started (read or write).
    OP_READ = "op_read"
    OP_WRITE = "op_write"
    #: The page was found buffered on ``tier``.
    HIT = "hit"
    #: The page was not buffered anywhere; an SSD fetch follows.
    MISS = "miss"
    #: A page copy was installed on ``tier`` straight from the store.
    INSTALL = "install"
    #: A copy moved up the chain (``src`` → ``tier``); the lower copy stays.
    MIGRATE_UP = "migrate_up"
    #: A copy moved down the chain on eviction/flush (``src`` → ``tier``).
    MIGRATE_DOWN = "migrate_down"
    #: A victim was selected for eviction on ``tier``.
    EVICT = "evict"
    #: A dirty page was written back to the store from ``tier``.
    WRITE_BACK = "write_back"
    #: A clean page was dropped from ``tier`` without any write.
    CLEAN_DROP = "clean_drop"
    #: A dirty page was made durable by the checkpoint flush path.
    FLUSH = "flush"
    #: An access was served in place on a non-top tier (DRAM bypass).
    DIRECT_READ = "direct_read"
    DIRECT_WRITE = "direct_write"
    #: A cache-line-grained load pulled lines from the NVM backing page.
    FINE_GRAINED_LOAD = "fine_grained_load"
    #: A mini page overflowed and was promoted to a full cache-line page.
    MINI_PAGE_PROMOTION = "mini_page_promotion"


class BufferEvent:
    """One instrumentation record emitted by the tier chain."""

    __slots__ = ("type", "page_id", "tier", "src", "dirty", "tenant_id")

    def __init__(
        self,
        type: EventType,
        page_id: PageId,
        tier: Tier | None = None,
        src: Tier | None = None,
        dirty: bool = False,
        tenant_id: int = 0,
    ) -> None:
        self.type = type
        self.page_id = page_id
        #: The tier the event happened on (destination for migrations).
        self.tier = tier
        #: Source tier for migrations / write-backs.
        self.src = src
        self.dirty = dirty
        #: Tenant whose operation produced the event (0 for the default
        #: single-tenant stream); copied from the bus's tenant register
        #: at construction so slow-path subscribers see attribution too.
        self.tenant_id = tenant_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        src = f", src={self.src.name}" if self.src is not None else ""
        tier = f", tier={self.tier.name}" if self.tier is not None else ""
        return f"BufferEvent({self.type.value}, page={self.page_id}{tier}{src})"


EventHandler = Callable[[BufferEvent], None]

#: One edge-table key: ``(event type, source tier, tier)``.
EdgeKey = tuple[EventType, Tier | None, Tier | None]


def edge_delta(now: dict[EdgeKey, int],
               baseline: dict[EdgeKey, int]) -> dict[EdgeKey, int]:
    """Edge counts in ``now`` minus ``baseline``, zero entries dropped."""
    return {key: count - baseline.get(key, 0) for key, count in now.items()
            if count != baseline.get(key, 0)}


def edge_report(counts: dict[EdgeKey, int]) -> dict[str, int]:
    """Edge counts as sorted ``{label: count}``, zeros dropped.  Labels
    read ``"migrate_up:NVM->DRAM"``, ``"hit@DRAM"`` or ``"op_read"``."""
    report: dict[str, int] = {}
    for (etype, src, tier), count in counts.items():
        if src is not None and tier is not None and src is not tier:
            label = f"{etype.value}:{src.name}->{tier.name}"
        else:
            label = f"{etype.value}@{tier.name}" if tier is not None else etype.value
        if count:
            report[label] = report.get(label, 0) + count
    return {label: report[label] for label in sorted(report)}


class OpBatchSummary:
    """Columnar summary of one contiguous run of fast-path operations.

    The batch access path executes runs of top-tier read hits as array
    operations instead of per-op calls; subscribers that implement
    ``apply_op_batch`` receive one summary per run and must update their
    state exactly as ``count`` per-op event sequences
    (``OP_READ`` → ``HIT`` [→ ``DIRECT_READ``]) would have.

    ``base_fp`` is the accumulator's fixed-point total just before the
    run's first charge and ``latency_fp`` the per-op charge vector, so
    latency observers can reconstruct the exact per-op cost brackets a
    sequential run would have measured.
    """

    __slots__ = ("count", "tier", "direct", "page_ids", "base_fp", "latency_fp",
                 "tenant_id")

    def __init__(
        self,
        count: int,
        tier: Tier,
        direct: bool,
        page_ids,
        base_fp: int,
        latency_fp,
        tenant_id: int = 0,
    ) -> None:
        self.count = count
        self.tier = tier
        #: True when the hits were served in place on a persistent top
        #: tier (the per-op path would have emitted DIRECT_READ events).
        self.direct = direct
        self.page_ids = page_ids
        self.base_fp = base_fp
        self.latency_fp = latency_fp
        #: Tenant that issued every op in the run (runs never span
        #: tenants; 0 for the default single-tenant stream).
        self.tenant_id = tenant_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OpBatchSummary(count={self.count}, tier={self.tier.name}, "
            f"direct={self.direct})"
        )


class EventBus:
    """A minimal synchronous publish/subscribe hub that counts its events.

    Subscription changes rebuild an immutable handler tuple under a
    mutation lock (concurrent ``threading`` workers may attach and
    detach observers mid-run), so :meth:`publish` — called many times
    per buffer operation — stays a plain lock-free iteration over the
    current tuple.
    """

    __slots__ = ("counts", "_count_lock", "_handlers", "_fast_appliers",
                 "_batch_appliers", "_mutate_lock", "tenant_id")

    def __init__(self) -> None:
        #: The edge table: events published per ``(type, src, tier)``,
        #: never reset (readers difference two :meth:`snapshot` calls).
        self.counts: defaultdict[EdgeKey, int] = defaultdict(int)
        #: Guards the table's read-modify-writes across threads.
        self._count_lock = threading.Lock()
        self._handlers: tuple[EventHandler, ...] = ()
        #: Bound ``apply_event`` methods of every handler, or ``None``
        #: when at least one handler only accepts built events.
        self._fast_appliers: tuple[Callable, ...] | None = ()
        #: Bound ``apply_op_batch`` methods of every handler, or ``None``
        #: when at least one handler cannot consume batch summaries —
        #: the batch access path then falls back to per-op execution.
        self._batch_appliers: tuple[Callable, ...] | None = ()
        self._mutate_lock = threading.Lock()
        #: The *tenant register*: the tenant id of the operation currently
        #: being executed.  The access path sets it at each op's start;
        #: tenant-aware subscribers (the metrics hub) read it instead of
        #: widening the five-positional ``apply_event`` protocol, so every
        #: existing subscriber keeps working unchanged.
        self.tenant_id: int = 0

    def subscribe(self, handler: EventHandler) -> EventHandler:
        """Register ``handler`` and return it (for later unsubscribe)."""
        with self._mutate_lock:
            self._rebuild(self._handlers + (handler,))
        return handler

    def unsubscribe(self, handler: EventHandler) -> None:
        with self._mutate_lock:
            self._rebuild(
                tuple(h for h in self._handlers if h is not handler)
            )

    @contextlib.contextmanager
    def subscription(self, handler: EventHandler):
        """Scoped subscription: the handler is removed on exit, even when
        the body raises.  Measurement-window observers (metrics hubs,
        tracers) use this so an aborted run can never leak a
        subscriber into later runs — a leak both double-counts and, for
        handlers without ``apply_event``, silently knocks the bus off
        its allocation-free fast path.
        """
        self.subscribe(handler)
        try:
            yield handler
        finally:
            self.unsubscribe(handler)

    def is_subscribed(self, handler: EventHandler) -> bool:
        return any(h is handler for h in self._handlers)

    @property
    def fast_path_active(self) -> bool:
        """True while every subscriber supports positional fast dispatch."""
        return self._fast_appliers is not None

    @property
    def batch_path_active(self) -> bool:
        """True while every subscriber can consume batch summaries.

        The batch access path checks this before vectorising a run; any
        subscriber without ``apply_op_batch`` (an adaptive controller, a
        test's bare callable) transparently forces per-op execution so
        no observer ever misses events.
        """
        return self._batch_appliers is not None

    def _rebuild(self, handlers: tuple[EventHandler, ...]) -> None:
        """Swap in a new handler tuple and recompute the fast paths."""
        appliers = []
        batch_appliers = []
        for handler in handlers:
            apply = getattr(handler, "apply_event", None)
            if apply is None:
                self._batch_appliers = None
                self._fast_appliers = None
                self._handlers = handlers
                return
            appliers.append(apply)
            apply_batch = getattr(handler, "apply_op_batch", None)
            if apply_batch is None:
                batch_appliers = None
            elif batch_appliers is not None:
                batch_appliers.append(apply_batch)
        # Publish the appliers before the handler tuple so a concurrent
        # publish() never pairs new appliers with missing handlers.
        self._batch_appliers = (
            tuple(batch_appliers) if batch_appliers is not None else None
        )
        self._fast_appliers = tuple(appliers)
        self._handlers = handlers

    def publish(self, type: EventType, page_id: PageId,
                tier: Tier | None = None, src: Tier | None = None,
                dirty: bool = False) -> None:
        """Count one event and notify the subscribers.

        This is the hot-path entry the tier chain uses: when every
        subscriber implements ``apply_event`` the notification is a few
        positional calls and no :class:`BufferEvent` is constructed.
        """
        with self._count_lock:
            self.counts[type, src, tier] += 1
        appliers = self._fast_appliers
        if appliers is not None:
            for apply in appliers:
                apply(type, page_id, tier, src, dirty)
            return
        event = BufferEvent(type, page_id, tier, src, dirty,
                            tenant_id=self.tenant_id)
        for handler in self._handlers:
            handler(event)

    def publish_op_batch(self, summary: OpBatchSummary) -> None:
        """Count one batch summary (as ``summary.count`` per-op OP_READ →
        HIT [→ DIRECT_READ] sequences) and fan it out to every subscriber.

        Only valid while :attr:`batch_path_active`; the batch access
        path guarantees that by re-checking before every run.
        """
        appliers = self._batch_appliers
        if appliers is None:
            raise RuntimeError(
                "publish_op_batch called while a subscriber lacks apply_op_batch"
            )
        count, tier, counts = summary.count, summary.tier, self.counts
        with self._count_lock:
            counts[EventType.OP_READ, None, None] += count
            counts[EventType.HIT, None, tier] += count
            if summary.direct:
                counts[EventType.DIRECT_READ, None, tier] += count
        for apply in appliers:
            apply(summary)

    # ------------------------------------------------------------------
    # The edge table
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[EdgeKey, int]:
        """A point-in-time copy of the edge table."""
        with self._count_lock:
            return dict(self.counts)

    @property
    def num_subscribers(self) -> int:
        return len(self._handlers)
