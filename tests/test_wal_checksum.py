"""WAL record checksums: torn-tail detection, truncation, and the WAL rule.

Every durably appended record carries a CRC32 over its payload fields.
The recovery scan verifies each record and truncates the log at the
first failure — a torn tail shortens the log instead of feeding garbage
to the recovery manager.  These tests corrupt records by hand (the
regression the checksum exists for) and check the log-before-data
barrier plus the truncation bound that protect stolen pages.
"""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from repro.core.policy import DRAM_SSD_POLICY, SPITFIRE_LAZY
from repro.engine.engine import EngineConfig, StorageEngine
from repro.faults.injector import inject_faults
from repro.faults.plan import FaultPlan, FaultSchedule, TailFault
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale, Tier
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord, LogRecordType, record_crc
from repro.wal.recovery import RecoveryManager

SCALE = SimulationScale(pages_per_gb=8)


def build_engine(policy=DRAM_SSD_POLICY, nvm_gb=0.0, checkpoint_ops=25):
    hierarchy = StorageHierarchy(HierarchyShape(2.0, nvm_gb, 100.0), SCALE)
    engine = StorageEngine(
        hierarchy, policy,
        config=EngineConfig(checkpoint_interval_ops=checkpoint_ops),
    )
    engine.log.group_commit_size = 1
    engine.create_table("t", tuple_size=128)
    return engine


def run_workload(engine, seed=13, operations=20, known=None):
    rng = random.Random(seed)
    known = set() if known is None else known
    for index in range(operations):
        key = rng.randrange(16)
        value = json.dumps([index, rng.random()]).encode()

        def body(txn):
            if key in known:
                engine.update(txn, "t", key, value)
            else:
                engine.insert(txn, "t", key, value)

        engine.execute(body)
        known.add(key)
    return known


def durable_state(engine, keys):
    return {
        key: engine.committed_value("t", key)
        for key in keys
        if engine.committed_value("t", key) is not None
    }


# ----------------------------------------------------------------------
# Record-level checksum unit behaviour
# ----------------------------------------------------------------------
class TestRecordChecksum:
    def make(self, **kwargs):
        defaults = dict(lsn=5, record_type=LogRecordType.UPDATE, txn_id=3,
                        page_id=7, slot=1, before=b"old", after=b"new")
        defaults.update(kwargs)
        return LogRecord(**defaults)

    def test_with_checksum_verifies(self):
        assert self.make().with_checksum().verify()

    def test_unchecksummed_record_is_accepted(self):
        # checksum=0 marks legacy/test construction paths.
        assert self.make().verify()

    def test_payload_mutation_fails_verification(self):
        sealed = self.make().with_checksum()
        tampered = dataclasses.replace(sealed, after=b"evil")
        assert not tampered.verify()

    def test_image_boundaries_cannot_collide(self):
        a = self.make(before=b"ab", after=b"").compute_checksum()
        b = self.make(before=b"a", after=b"b").compute_checksum()
        assert a != b

    def test_none_image_distinct_from_empty(self):
        a = self.make(before=None).compute_checksum()
        b = self.make(before=b"").compute_checksum()
        assert a != b


# ----------------------------------------------------------------------
# Pinned checksum bytes: the canonical encoding never drifts
# ----------------------------------------------------------------------
#: CRCs recorded from the original two-pass encoding (build the record,
#: then ``compute_checksum`` over its fields) for every record type and
#: for None, empty and non-empty images.  Case ``i`` has LSN ``i + 1``,
#: so appending the cases in order to a fresh log reproduces them.
CHECKSUM_CASES = json.loads(
    (Path(__file__).parent / "fixtures" / "wal_checksums.json").read_text()
)["cases"]


def fixture_args(case):
    def image(hex_text):
        return None if hex_text is None else bytes.fromhex(hex_text)

    return dict(record_type=LogRecordType(case["record_type"]),
                txn_id=case["txn_id"], page_id=case["page_id"],
                slot=case["slot"], prev_lsn=case["prev_lsn"],
                before=image(case["before"]), after=image(case["after"]),
                undo_next_lsn=case["undo_next_lsn"])


class TestPinnedChecksums:
    def test_fixture_covers_every_type_and_image_kind(self):
        assert ({c["record_type"] for c in CHECKSUM_CASES}
                == {t.value for t in LogRecordType})
        for side in ("before", "after"):
            kinds = {None if c[side] is None else bool(c[side])
                     for c in CHECKSUM_CASES}
            assert kinds == {None, False, True}

    def test_compute_checksum_reproduces_recorded_values(self):
        for case in CHECKSUM_CASES:
            args = fixture_args(case)
            record = LogRecord(lsn=case["lsn"], **args)
            assert record.compute_checksum() == case["checksum"], case
            assert record_crc(
                case["lsn"], args["record_type"], args["txn_id"],
                args["page_id"], args["slot"], args["prev_lsn"],
                args["undo_next_lsn"], args["before"], args["after"],
            ) == case["checksum"]

    @pytest.mark.parametrize("nvm_gb", [8.0, 0.0])
    def test_append_reproduces_recorded_values(self, nvm_gb):
        hierarchy = StorageHierarchy(HierarchyShape(2.0, nvm_gb, 100.0), SCALE)
        log = LogManager(hierarchy, nvm_buffer_bytes=4096)
        for case in CHECKSUM_CASES:
            record = log.append(**fixture_args(case))
            assert record.lsn == case["lsn"]
            assert record.checksum == case["checksum"], case
            assert record.checksum == record.compute_checksum()
            assert record.verify()

    def test_fault_device_installed_after_log_sees_its_writes(self):
        """The log looks its NVM device up per append, so a FaultyDevice
        swapped in after the log exists still intercepts the writes."""
        hierarchy = StorageHierarchy(HierarchyShape(2.0, 8.0, 100.0), SCALE)
        log = LogManager(hierarchy)
        log.append(LogRecordType.BEGIN, txn_id=1)
        handle = inject_faults(hierarchy, FaultPlan(schedules={
            "nvm": FaultSchedule(write_errors=frozenset({0}))}))
        record = log.append(LogRecordType.UPDATE, txn_id=1, after=b"x" * 64)
        assert handle.faults_injected() == 1
        assert handle.retries() == 1
        assert record.verify()
        counters = hierarchy.device(Tier.NVM).snapshot_counters()
        assert counters.write_ops == 2
        assert counters.persist_barriers == 2


# ----------------------------------------------------------------------
# Hand-corrupted tail: the scan truncates instead of crashing
# ----------------------------------------------------------------------
class TestHandCorruptedTail:
    def build_log(self, records=8):
        hierarchy = StorageHierarchy(HierarchyShape(2.0, 0.0, 100.0), SCALE)
        log = LogManager(hierarchy, group_commit_size=1)
        for txn_id in range(1, records + 1):
            log.append(LogRecordType.BEGIN, txn_id)
            log.commit(txn_id)
        log.flush()
        return log

    def corrupt(self, log, position):
        record = log._durable[position]
        log._durable[position] = dataclasses.replace(
            record, checksum=(record.checksum ^ 0xDEADBEEF) or 1)
        return record.lsn

    def test_corrupt_last_record_truncates_one(self):
        log = self.build_log()
        total = len(log._durable)
        self.corrupt(log, -1)
        records = log.recovered_records()
        assert len(records) == total - 1
        assert log.stats.torn_records_dropped == 1
        assert all(r.verify() for r in records)

    def test_corrupt_middle_record_truncates_suffix(self):
        """A corrupt record invalidates everything after it — the tail
        of a sequential log cannot be trusted past the first failure."""
        log = self.build_log(records=8)
        total = len(log._durable)
        corrupt_lsn = self.corrupt(log, total // 2)
        records = log.recovered_records()
        assert [r for r in records if r.lsn >= corrupt_lsn] == []
        assert log.stats.torn_records_dropped == total - total // 2
        assert log.verified_durable_lsn() == records[-1].lsn

    def test_on_torn_observer_fires(self):
        log = self.build_log()
        seen = []
        log.on_torn = seen.append
        self.corrupt(log, -1)
        log.recovered_records()
        assert seen == [1]


# ----------------------------------------------------------------------
# Torn tail at crash ≡ clean crash at the last durable LSN
# ----------------------------------------------------------------------
class TestTornTailEquivalence:
    def test_torn_write_recovers_like_dropped_tail(self):
        """Tearing the tail record and never persisting it must recover
        to the same state: both leave the log ending at the same last
        *valid* LSN."""
        torn = build_engine()
        dropped = build_engine()
        keys = run_workload(torn, seed=21, operations=18)
        run_workload(dropped, seed=21, operations=18)

        report_torn = torn.crash_controller().crash(TailFault.TORN_WRITE)
        report_drop = dropped.crash_controller().crash(
            TailFault.DROPPED_PERSIST)
        assert report_torn.tail_lsn == report_drop.tail_lsn
        assert report_torn.durable_lsn == report_drop.durable_lsn

        RecoveryManager(torn.bm, torn.log).recover()
        RecoveryManager(dropped.bm, dropped.log).recover()
        assert torn.log.stats.torn_records_dropped == 1
        assert durable_state(torn, keys) == durable_state(dropped, keys)
        assert (torn.log.verified_durable_lsn()
                == dropped.log.verified_durable_lsn())


# ----------------------------------------------------------------------
# The WAL rule (log-before-data) and the truncation bound
# ----------------------------------------------------------------------
class TestWalGuard:
    def test_flush_forces_volatile_log_durable_first(self):
        """A checkpoint flush stealing a page dirtied by an in-flight
        transaction must first force that transaction's records out of
        the volatile group-commit batch."""
        engine = build_engine()
        engine.log.group_commit_size = 1_000  # records stay volatile
        txn = engine.begin()
        engine.insert(txn, "t", 1, b"in-flight")
        page_lsn = txn.last_lsn
        assert engine.log.durable_lsn < page_lsn  # still volatile
        engine.bm.flush_dirty_dram()
        assert engine.log.stats.wal_guard_flushes >= 1
        assert engine.log.durable_lsn >= page_lsn
        engine.abort(txn)

    def test_guard_is_noop_with_nvm_log(self):
        """NVM-backed logs persist at append time; the guard never has
        anything to flush."""
        engine = build_engine(policy=SPITFIRE_LAZY, nvm_gb=8.0)
        engine.log.group_commit_size = 1_000
        txn = engine.begin()
        engine.insert(txn, "t", 1, b"in-flight")
        engine.bm.flush_dirty_dram()
        assert engine.log.stats.wal_guard_flushes == 0
        engine.abort(txn)

    def test_bench_engines_have_no_guard_by_default(self):
        """Only the storage engine wires the guard; a bare buffer
        manager (the benchmark path) stays cost-model-pure."""
        from repro.core.buffer_manager import BufferManager

        hierarchy = StorageHierarchy(HierarchyShape(2.0, 8.0, 100.0), SCALE)
        bm = BufferManager(hierarchy, SPITFIRE_LAZY)
        assert bm.wal_guard is None


class TestTruncationBound:
    def test_active_txn_records_survive_checkpoints(self):
        """Checkpoint truncation must keep the oldest active
        transaction's records: its stolen effects may already be on
        durable pages and crash-undo needs the before-images."""
        engine = build_engine(checkpoint_ops=5)
        known = run_workload(engine, seed=9, operations=6)
        txn = engine.begin()
        engine.insert(txn, "t", 99, b"uncommitted")
        first_lsn = engine._oldest_active_lsn()
        assert first_lsn is not None
        # Drive several checkpoints past the active transaction.
        run_workload(engine, seed=10, operations=12, known=known)
        assert engine.checkpointer.checkpoints_taken >= 2
        retained = [r.lsn for r in engine.log.recovered_records()]
        assert retained and min(retained) <= first_lsn
        # Crash: the active transaction is undone using those records.
        engine.crash_controller().crash()
        report = RecoveryManager(engine.bm, engine.log).recover()
        assert txn.txn_id in report.losers
        assert engine.committed_value("t", 99) is None

    def test_checkpoints_actually_truncate(self):
        """The truncation bound must not neuter truncation: after a few
        checkpoints the log starts well past LSN 1 and holds far fewer
        records than were ever appended.  (The checkpoint fires inside
        the triggering transaction, so the cutoff sits at that
        transaction's first record, never before the whole log.)"""
        engine = build_engine(checkpoint_ops=5)
        run_workload(engine, seed=9, operations=25)
        assert engine.checkpointer.checkpoints_taken >= 3
        retained = engine.log.recovered_records()
        assert retained[0].lsn > 1
        assert len(retained) < engine.log.stats.records_appended // 2
