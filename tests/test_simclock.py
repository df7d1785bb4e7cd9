"""Simulated clock and cost accumulator (makespan/throughput analysis)."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.simclock import (
    FP_SCALE,
    CostAccumulator,
    ResourceUsage,
    SimClock,
    to_fp,
)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0.0

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(100.0) == 100.0
        assert clock.now_ns == 100.0
        assert clock.now_s == pytest.approx(1e-7)

    def test_cannot_go_backwards(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_reset(self):
        clock = SimClock(5)
        clock.advance(10)
        clock.reset()
        assert clock.now_ns == 0.0

    def test_concurrent_advances_sum(self):
        clock = SimClock()
        threads = [
            threading.Thread(target=lambda: [clock.advance(1.0) for _ in range(1000)])
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert clock.now_ns == pytest.approx(4000.0)


class TestResourceUsage:
    def test_charge(self):
        usage = ResourceUsage()
        usage.charge(10.0, 64)
        usage.charge(5.0)
        assert usage.busy_ns == 15.0
        assert usage.operations == 2
        assert usage.bytes_moved == 64

    def test_merged(self):
        a = ResourceUsage(10.0, 1, 100)
        b = ResourceUsage(5.0, 2, 50)
        merged = a.merged(b)
        assert merged.busy_ns == 15.0
        assert merged.operations == 3
        assert merged.bytes_moved == 150


class TestCostAccumulator:
    def test_charge_and_usage(self):
        cost = CostAccumulator()
        cost.charge("nvm", 100.0, 256)
        cost.charge("nvm", 50.0)
        usage = cost.usage("nvm")
        assert usage.busy_ns == 150.0
        assert usage.operations == 2
        assert usage.bytes_moved == 256

    def test_unknown_resource_is_zero(self):
        assert CostAccumulator().usage("ssd").busy_ns == 0.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CostAccumulator().charge("cpu", -1.0)

    def test_resources_sorted(self):
        cost = CostAccumulator()
        cost.charge("ssd", 1)
        cost.charge("cpu", 1)
        assert cost.resources() == ["cpu", "ssd"]

    def test_reset(self):
        cost = CostAccumulator()
        cost.charge("cpu", 10)
        cost.reset()
        assert cost.usage("cpu").busy_ns == 0.0


class TestMakespan:
    def test_cpu_divides_across_workers(self):
        cost = CostAccumulator()
        cost.charge(CostAccumulator.CPU, 1600.0)
        assert cost.makespan_ns(1) == pytest.approx(1600.0)
        assert cost.makespan_ns(16) == pytest.approx(100.0)

    def test_device_does_not_divide(self):
        cost = CostAccumulator()
        cost.charge("ssd", 1000.0)
        assert cost.makespan_ns(1) == pytest.approx(1000.0)
        assert cost.makespan_ns(16) == pytest.approx(1000.0)

    def test_bottleneck_is_max(self):
        cost = CostAccumulator()
        cost.charge(CostAccumulator.CPU, 3200.0)
        cost.charge("nvm", 150.0)
        # 1 worker: serialised work dominates (3200 + 150 over one worker).
        assert cost.makespan_ns(1) == pytest.approx(3350.0)
        # 16 workers: per-worker share is 209.4 > nvm busy 150.
        assert cost.makespan_ns(16) == pytest.approx(3350.0 / 16)

    def test_device_bound_at_high_worker_count(self):
        cost = CostAccumulator()
        cost.charge(CostAccumulator.CPU, 1000.0)
        cost.charge("ssd", 900.0)
        assert cost.makespan_ns(100) == pytest.approx(900.0)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            CostAccumulator().makespan_ns(0)

    def test_throughput(self):
        cost = CostAccumulator()
        cost.charge(CostAccumulator.CPU, 1e9)  # one simulated second
        assert cost.throughput(1000, workers=1) == pytest.approx(1000.0)

    def test_throughput_zero_ops(self):
        assert CostAccumulator().throughput(0) == 0.0

    def test_throughput_no_work_is_infinite(self):
        assert CostAccumulator().throughput(10) == float("inf")


class TestDelta:
    def test_delta_since_snapshot(self):
        cost = CostAccumulator()
        cost.charge("cpu", 100.0, 10)
        baseline = cost.snapshot()
        cost.charge("cpu", 50.0, 5)
        cost.charge("nvm", 25.0)
        delta = cost.delta_since(baseline)
        assert delta.usage("cpu").busy_ns == pytest.approx(50.0)
        assert delta.usage("cpu").bytes_moved == 5
        assert delta.usage("nvm").busy_ns == pytest.approx(25.0)

    def test_snapshot_is_independent_copy(self):
        cost = CostAccumulator()
        cost.charge("cpu", 100.0)
        snap = cost.snapshot()
        cost.charge("cpu", 100.0)
        assert snap["cpu"].busy_ns == pytest.approx(100.0)


CPU = CostAccumulator.CPU
SERVICE_NS = st.one_of(
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    # Exact halves of a fixed-point unit: round-half-to-even territory.
    st.integers(0, 1 << 24).map(lambda k: (k + 0.5) / FP_SCALE),
)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("charge"), st.sampled_from([CPU, "dram", "nvm", "ssd"]),
              SERVICE_NS, st.integers(0, 1 << 16)),
    st.just(("begin",)),
    st.just(("end",)),
), max_size=60)


class TestChargeEquivalence:
    """``charge`` quantises and commits inline; it must land exactly
    where ``charge_fp(to_fp(ns))`` through the commit helpers lands,
    one operation per call, batched or not."""

    @settings(max_examples=300, deadline=None)
    @given(STEPS)
    def test_charge_matches_quantised_reference(self, steps):
        cost, reference = CostAccumulator(), CostAccumulator()
        depth, pending, charges = 0, [], 0

        def assert_same():
            ours, theirs = cost.snapshot(), reference.snapshot()
            assert ours == theirs
            assert list(ours) == list(theirs)
            assert cost.total_fp == reference.total_fp
            if depth == 0:
                assert sum(u.operations for u in ours.values()) == charges

        for step in steps:
            if step[0] == "begin":
                cost.begin_cpu_batch()
                depth += 1
            elif step[0] == "end":
                cost.end_cpu_batch()
                depth = max(0, depth - 1)
                if depth == 0 and pending:
                    reference.charge_batch_fp(CPU, sum(pending), len(pending))
                    pending = []
            else:
                _, resource, service_ns, nbytes = step
                cost.charge(resource, service_ns, nbytes)
                charges += 1
                if resource == CPU and depth:
                    reference.reserve(CPU)
                    pending.append(to_fp(service_ns))
                else:
                    reference.charge_batch_fp(resource, to_fp(service_ns), 1,
                                              nbytes)
            assert_same()
        while depth:
            cost.end_cpu_batch()
            depth -= 1
        if pending:
            reference.charge_batch_fp(CPU, sum(pending), len(pending))
        assert_same()
