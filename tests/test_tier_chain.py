"""TierChain decomposition: chain structure, lookups, events, 4 tiers.

The buffer manager is a facade over an ordered :class:`TierChain`; these
tests pin down the chain's shape and neighbour relations, the
chain-based tier lookups that replaced the old DRAM/NVM ternaries, the
event bus that feeds every observer, and the headline capability the
refactor buys: a four-tier DRAM-CXL-NVM-SSD hierarchy built purely
through the public API and driven end-to-end by YCSB.
"""

from __future__ import annotations

from conftest import make_bm

from repro.bench.harness import RunConfig, WorkloadRunner
from repro.core.buffer_manager import BufferManager
from repro.core.events import (
    BufferEvent,
    EventBus,
    EventType,
    OpBatchSummary,
    edge_delta,
    edge_report,
)
from repro.core.policy import DRAM_SSD_POLICY, SPITFIRE_EAGER, SPITFIRE_LAZY
from repro.core.tier_chain import TierChain
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale, Tier
from repro.workloads.ycsb import YCSB_BA, YcsbWorkload

TINY_SCALE = SimulationScale(pages_per_gb=4)


def make_four_tier_bm(policy=SPITFIRE_LAZY) -> BufferManager:
    """1 GB DRAM + 2 GB CXL + 4 GB NVM + 100 GB SSD, tiny page pools."""
    hierarchy = StorageHierarchy(
        HierarchyShape(dram_gb=1.0, nvm_gb=4.0, ssd_gb=100.0, cxl_gb=2.0),
        TINY_SCALE,
    )
    return BufferManager(hierarchy, policy)


class TestChainStructure:
    def test_three_tier_chain(self, eager_bm):
        chain = eager_bm.chain
        assert isinstance(chain, TierChain)
        assert chain.tiers == (Tier.DRAM, Tier.NVM)
        assert chain.top.tier is Tier.DRAM
        assert Tier.DRAM in chain and Tier.NVM in chain
        assert Tier.SSD not in chain

    def test_neighbours(self, eager_bm):
        chain = eager_bm.chain
        dram = chain.node(Tier.DRAM)
        nvm = chain.node(Tier.NVM)
        assert chain.lower_of(dram) is nvm
        assert chain.upper_of(nvm) is dram
        assert chain.upper_of(dram) is None
        assert chain.lower_of(nvm) is None

    def test_persistence_split(self, eager_bm):
        chain = eager_bm.chain
        assert [n.tier for n in chain.volatile_nodes] == [Tier.DRAM]
        assert [n.tier for n in chain.persistent_nodes] == [Tier.NVM]
        assert chain.first_persistent_below(chain.top).tier is Tier.NVM

    def test_two_tier_chain(self):
        bm = make_bm(nvm_gb=0.0, policy=DRAM_SSD_POLICY)
        assert bm.chain.tiers == (Tier.DRAM,)
        assert bm.chain.lower_of(bm.chain.top) is None
        assert bm.chain.first_persistent_below(bm.chain.top) is None


class TestChainLookups:
    """Regression for the old ``tier is DRAM ? ... : ...`` ternaries."""

    def test_pool_get_resolves_any_buffer_tier(self, eager_bm):
        page = eager_bm.allocate_page()
        eager_bm.read(page)
        # Eager policy leaves copies on both tiers.
        assert eager_bm._pool_get(Tier.DRAM, page) is not None
        assert eager_bm._pool_get(Tier.NVM, page) is not None
        assert eager_bm._pool_get(Tier.DRAM, page).tier is Tier.DRAM
        assert eager_bm._pool_get(Tier.NVM, page).tier is Tier.NVM

    def test_pool_get_absent_tier_is_none(self):
        bm = make_bm(nvm_gb=0.0, policy=DRAM_SSD_POLICY)
        page = bm.allocate_page()
        bm.read(page)
        assert bm._pool_get(Tier.NVM, page) is None
        assert bm._pool_get(Tier.DRAM, page) is not None

    def test_pool_get_unknown_page_is_none(self, eager_bm):
        assert eager_bm._pool_get(Tier.DRAM, 12345) is None

    def test_device_matches_hierarchy(self, eager_bm):
        for tier in (Tier.DRAM, Tier.NVM, Tier.SSD):
            assert eager_bm._device(tier) is eager_bm.hierarchy.device(tier)

    def test_pools_view_backed_by_chain(self, eager_bm):
        for tier, pool in eager_bm.pools.items():
            assert eager_bm.chain.node(tier).pool is pool


class TestResetStatsDevices:
    def test_reset_clears_device_counters(self, eager_bm):
        for page in range(6):
            eager_bm.allocate_page(page)
            eager_bm.write(page)
        assert eager_bm.nvm_write_volume_gb() > 0.0
        nvm = eager_bm.hierarchy.device(Tier.NVM)
        assert nvm.counters.write_bytes > 0
        eager_bm.reset_stats()
        assert eager_bm.nvm_write_volume_gb() == 0.0
        for device in eager_bm.hierarchy.devices.values():
            assert device.counters.read_bytes == 0
            assert device.counters.write_bytes == 0
        assert eager_bm.stats.writes == 0

    def test_stats_keep_counting_after_reset(self, eager_bm):
        page = eager_bm.allocate_page()
        eager_bm.read(page)
        eager_bm.reset_stats()
        eager_bm.read(page)
        # The reset only moves the stats baseline: the post-reset hit
        # counts from there.
        assert eager_bm.stats.dram_hits == 1
        assert eager_bm.stats.reads == 1


class TestEventBus:
    def test_new_manager_has_no_subscribers(self, eager_bm):
        bus = eager_bm.events
        assert bus.num_subscribers == 0
        assert bus.fast_path_active and bus.batch_path_active
        page = eager_bm.allocate_page()
        eager_bm.read(page)
        assert eager_bm.stats.reads == 1

    def test_publish_counts_edges(self):
        bus = EventBus()
        bus.publish(EventType.HIT, 1, tier=Tier.DRAM)
        start = bus.snapshot()
        bus.publish(EventType.HIT, 2, tier=Tier.DRAM)
        bus.publish(EventType.MIGRATE_UP, 2, tier=Tier.DRAM, src=Tier.NVM)
        bus.publish(EventType.OP_WRITE, 2)
        assert bus.counts[EventType.HIT, None, Tier.DRAM] == 2
        window = edge_delta(bus.snapshot(), start)
        assert window == {
            (EventType.HIT, None, Tier.DRAM): 1,
            (EventType.MIGRATE_UP, Tier.NVM, Tier.DRAM): 1,
            (EventType.OP_WRITE, None, None): 1,
        }
        assert edge_report(window) == {
            "hit@DRAM": 1, "migrate_up:NVM->DRAM": 1, "op_write": 1,
        }

    def test_batch_summary_counts_like_per_op_events(self):
        batched, per_op = EventBus(), EventBus()
        batched.publish_op_batch(OpBatchSummary(
            count=5, tier=Tier.NVM, direct=True, page_ids=range(5),
            base_fp=0, latency_fp=None,
        ))
        for page in range(5):
            per_op.publish(EventType.OP_READ, page)
            per_op.publish(EventType.HIT, page, tier=Tier.NVM)
            per_op.publish(EventType.DIRECT_READ, page, tier=Tier.NVM)
        assert batched.snapshot() == per_op.snapshot()

    def test_miss_emits_miss_and_install(self, eager_bm):
        seen: list[BufferEvent] = []
        eager_bm.events.subscribe(seen.append)
        page = eager_bm.allocate_page()
        eager_bm.read(page)
        kinds = [event.type for event in seen]
        assert EventType.MISS in kinds
        assert EventType.INSTALL in kinds
        miss = next(e for e in seen if e.type is EventType.MISS)
        assert miss.page_id == page

    def test_unsubscribe_stops_delivery(self, eager_bm):
        seen: list[BufferEvent] = []
        handler = eager_bm.events.subscribe(seen.append)
        page = eager_bm.allocate_page()
        eager_bm.read(page)
        count = len(seen)
        assert count > 0
        eager_bm.events.unsubscribe(handler)
        eager_bm.read(page)
        assert len(seen) == count

    def test_fast_path_skips_event_objects(self):
        """Handlers exposing ``apply_event`` receive raw fields and no
        BufferEvent is ever constructed."""
        bus = EventBus()

        class FastApplier:
            def __init__(self):
                self.calls = []

            def apply_event(self, etype, page_id, tier, src, dirty):
                self.calls.append((etype, page_id, tier, src, dirty))

            def __call__(self, event):  # pragma: no cover - must not run
                raise AssertionError("slow path used despite fast applier")

        applier = FastApplier()
        bus.subscribe(applier)
        bus.publish(EventType.HIT, 7, tier=Tier.DRAM)
        assert applier.calls == [(EventType.HIT, 7, Tier.DRAM, None, False)]

    def test_plain_handler_disables_fast_path(self):
        """One event-object subscriber forces BufferEvent construction
        for everyone — and both handler styles still see every event."""
        bus = EventBus()

        class FastApplier:
            def __init__(self):
                self.calls = []

            def apply_event(self, etype, page_id, tier, src, dirty):
                self.calls.append(etype)

            def __call__(self, event):
                self.apply_event(event.type, event.page_id, event.tier,
                                 event.src, event.dirty)

        applier = FastApplier()
        events: list[BufferEvent] = []
        bus.subscribe(applier)
        bus.subscribe(events.append)
        bus.publish(EventType.MISS, 3)
        assert applier.calls == [EventType.MISS]
        assert len(events) == 1 and events[0].type is EventType.MISS

    def test_concurrent_subscribe_during_publish(self):
        """subscribe/unsubscribe from other threads must never corrupt
        the handler list or crash a concurrent publish."""
        import threading

        bus = EventBus()
        stop = threading.Event()
        errors: list[BaseException] = []

        def churn():
            try:
                while not stop.is_set():
                    handle = bus.subscribe(lambda event: None)
                    bus.unsubscribe(handle)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for i in range(3_000):
                bus.publish(EventType.HIT, i, tier=Tier.DRAM)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors

    def test_trace_matches_stats(self, eager_bm):
        start = eager_bm.events.snapshot()
        for page in range(4):
            eager_bm.allocate_page(page)
            eager_bm.read(page)
            eager_bm.read(page)
        window = edge_delta(eager_bm.events.snapshot(), start)
        stats = eager_bm.stats
        by_type: dict[EventType, int] = {}
        for (etype, _src, _tier), count in window.items():
            by_type[etype] = by_type.get(etype, 0) + count
        assert by_type[EventType.MISS] == stats.ssd_fetches
        assert by_type[EventType.HIT] == stats.dram_hits + stats.nvm_hits
        report = edge_report(window)
        assert report["hit@DRAM"] == stats.dram_hits


class TestFourTier:
    def test_chain_has_four_tiers(self):
        bm = make_four_tier_bm()
        assert bm.chain.tiers == (Tier.DRAM, Tier.CXL, Tier.NVM)
        assert bm.hierarchy.has_tier(Tier.SSD)
        cxl = bm.chain.node(Tier.CXL)
        assert not cxl.persistent
        assert bm.chain.upper_of(cxl).tier is Tier.DRAM
        assert bm.chain.lower_of(cxl).tier is Tier.NVM
        assert bm.chain.first_persistent_below(bm.chain.top).tier is Tier.NVM

    def test_pages_can_live_on_cxl(self):
        bm = make_four_tier_bm(policy=SPITFIRE_EAGER)
        page = bm.allocate_page()
        bm.read(page)
        # Eager admission + promotion walks the page up every tier.
        assert page in bm.resident_pages(Tier.NVM)
        assert page in bm.resident_pages(Tier.CXL)
        assert page in bm.resident_pages(Tier.DRAM)

    def test_cxl_hits_are_counted(self):
        bm = make_four_tier_bm(policy=SPITFIRE_EAGER)
        page = bm.allocate_page()
        bm.read(page)
        # Drop the DRAM copy so the next access hits CXL.
        dram = bm.chain.node(Tier.DRAM)
        descriptor = dram.pool.get(page)
        dram.pool.remove(descriptor)
        bm.table.get(page).detach(Tier.DRAM)
        before = bm.events.snapshot()
        result = bm.read(page)
        assert result.hit
        window = edge_delta(bm.events.snapshot(), before)
        assert window[EventType.HIT, None, Tier.CXL] == 1
        assert edge_report(window)["hit@CXL"] == 1

    def test_ycsb_end_to_end(self):
        bm = make_four_tier_bm()
        runner = WorkloadRunner(bm, RunConfig(
            warmup_ops=300, measure_ops=600,
        ))
        workload = YcsbWorkload(2_000, mix=YCSB_BA, seed=7)
        result = runner.measure_ycsb(workload, label="4-tier YCSB-BA")
        assert result.operations == 600
        assert result.throughput > 0
        assert result.stats.reads + result.stats.writes == 600
        assert result.event_trace, "every run reports its edge counts"
        # The chain actually moved data during the run.
        assert any(key.startswith(("install", "hit", "migrate"))
                   for key in result.event_trace)

    def test_crash_recovery_keeps_nvm_only(self):
        bm = make_four_tier_bm(policy=SPITFIRE_EAGER)
        for page in range(4):
            bm.allocate_page(page)
            bm.read(page)
        nvm_resident = bm.resident_pages(Tier.NVM)
        assert nvm_resident
        bm.simulate_crash()
        assert bm.resident_pages(Tier.DRAM) == set()
        assert bm.resident_pages(Tier.CXL) == set()
        recovered = bm.recover_mapping_table()
        assert recovered == len(nvm_resident)
        assert bm.resident_pages(Tier.NVM) == nvm_resident


class TestFourTierDesign:
    def test_enumerate_shapes_with_cxl(self):
        from repro.design.grid_search import enumerate_shapes, policy_for_shape

        shapes = enumerate_shapes(
            dram_sizes_gb=(0.0, 2.0), nvm_sizes_gb=(0.0, 4.0),
            ssd_gb=50.0, cxl_sizes_gb=(0.0, 1.0),
        )
        labels = {(s.dram_gb, s.nvm_gb, s.cxl_gb) for s in shapes}
        assert (2.0, 4.0, 1.0) in labels
        assert (0.0, 0.0, 1.0) in labels  # CXL-SSD two-tier point
        assert (0.0, 0.0, 0.0) not in labels
        four_tier = next(s for s in shapes
                         if s.dram_gb and s.nvm_gb and s.cxl_gb)
        assert policy_for_shape(four_tier) is SPITFIRE_LAZY

    def test_default_shapes_unchanged(self):
        from repro.design.grid_search import enumerate_shapes

        shapes = enumerate_shapes()
        assert all(s.cxl_gb == 0.0 for s in shapes)
        assert len(shapes) == 5 * 4 - 1
