"""Write-ahead logging: NVM log buffer vs group commit."""

import pytest

from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale, Tier
from repro.wal.log_manager import LogManager
from repro.wal.records import LOG_RECORD_HEADER_BYTES, LogRecord, LogRecordType

SCALE = SimulationScale(pages_per_gb=4)


def nvm_hierarchy() -> StorageHierarchy:
    return StorageHierarchy(HierarchyShape(1, 4, 100), SCALE)


def dram_hierarchy() -> StorageHierarchy:
    return StorageHierarchy(HierarchyShape(1, 0, 100), SCALE)


class TestLogRecord:
    def test_size_includes_images(self):
        record = LogRecord(1, LogRecordType.UPDATE, 1, before=b"abc", after=b"defg")
        assert record.size_bytes() == LOG_RECORD_HEADER_BYTES + 7

    def test_redo_undo_classification(self):
        update = LogRecord(1, LogRecordType.UPDATE, 1)
        commit = LogRecord(2, LogRecordType.COMMIT, 1)
        clr = LogRecord(3, LogRecordType.CLR, 1)
        assert update.is_redoable and update.is_undoable
        assert not commit.is_redoable and not commit.is_undoable
        assert clr.is_redoable and not clr.is_undoable

    def test_records_are_immutable(self):
        record = LogRecord(1, LogRecordType.BEGIN, 1)
        with pytest.raises(AttributeError):
            record.lsn = 5  # type: ignore[misc]


class TestLsnAssignment:
    def test_monotonic_lsns(self):
        log = LogManager(nvm_hierarchy())
        first = log.append(LogRecordType.BEGIN, txn_id=1)
        second = log.append(LogRecordType.UPDATE, txn_id=1, page_id=0)
        assert second.lsn == first.lsn + 1

    def test_prev_lsn_chains(self):
        log = LogManager(nvm_hierarchy())
        begin = log.append(LogRecordType.BEGIN, txn_id=1)
        update = log.append(LogRecordType.UPDATE, txn_id=1, prev_lsn=begin.lsn)
        assert update.prev_lsn == begin.lsn


class TestNvmMode:
    def test_uses_nvm_log_buffer(self):
        log = LogManager(nvm_hierarchy())
        assert log.uses_nvm
        log.append(LogRecordType.UPDATE, txn_id=1, after=b"x" * 100)
        counters = log.hierarchy.device(Tier.NVM).snapshot_counters()
        assert counters.write_ops == 1
        assert counters.persist_barriers == 1

    def test_commit_durable_immediately(self):
        log = LogManager(nvm_hierarchy())
        record = log.commit(txn_id=1)
        assert log.durable_lsn == record.lsn

    def test_buffer_drains_to_ssd_at_threshold(self):
        log = LogManager(nvm_hierarchy(), nvm_buffer_bytes=200)
        ssd = log.hierarchy.device(Tier.SSD)
        before = ssd.snapshot_counters().write_ops
        for _ in range(5):
            log.append(LogRecordType.UPDATE, txn_id=1, after=b"y" * 100)
        assert ssd.snapshot_counters().write_ops > before
        assert log.stats.nvm_buffer_drains >= 1

    def test_crash_loses_nothing(self):
        log = LogManager(nvm_hierarchy())
        log.append(LogRecordType.BEGIN, txn_id=1)
        log.commit(txn_id=1)
        assert log.simulate_crash() == 0
        assert len(log.recovered_records()) == 2


class TestGroupCommitMode:
    def test_no_nvm_means_group_commit(self):
        log = LogManager(dram_hierarchy(), group_commit_size=4)
        assert not log.uses_nvm

    def test_commits_not_durable_until_group_flush(self):
        log = LogManager(dram_hierarchy(), group_commit_size=4)
        log.commit(txn_id=1)
        assert log.durable_lsn == 0
        for txn in range(2, 5):
            log.commit(txn_id=txn)
        assert log.durable_lsn > 0
        assert log.stats.group_commits == 1

    def test_group_flush_is_one_ssd_write(self):
        log = LogManager(dram_hierarchy(), group_commit_size=4)
        ssd = log.hierarchy.device(Tier.SSD)
        for txn in range(1, 5):
            log.commit(txn_id=txn)
        assert ssd.snapshot_counters().write_ops == 1

    def test_crash_loses_pending_group(self):
        log = LogManager(dram_hierarchy(), group_commit_size=100)
        log.commit(txn_id=1)
        log.commit(txn_id=2)
        lost = log.simulate_crash()
        assert lost == 2
        assert log.recovered_records() == []

    def test_flush_forces_durability(self):
        log = LogManager(dram_hierarchy(), group_commit_size=100)
        record = log.commit(txn_id=1)
        log.flush()
        assert log.durable_lsn == record.lsn

    def test_memory_mode_uses_group_commit(self):
        hierarchy = StorageHierarchy(HierarchyShape(1, 4, 100), SCALE,
                                     memory_mode=True)
        log = LogManager(hierarchy)
        assert not log.uses_nvm

    @staticmethod
    def commits_until_flush(log, first_txn):
        """Commit until a group flush happens; return how many it took."""
        flushed = log.stats.group_commits
        txn = first_txn
        while log.stats.group_commits == flushed:
            log.append(LogRecordType.BEGIN, txn_id=txn)
            log.commit(txn_id=txn)
            txn += 1
        return txn - first_txn

    def test_group_count_restarts_after_crash(self):
        """Commits lost in a crash do not count toward the next group."""
        log = LogManager(dram_hierarchy(), group_commit_size=4)
        for txn in (1, 2, 3):
            log.commit(txn_id=txn)
        assert log.simulate_crash() == 3
        assert self.commits_until_flush(log, first_txn=4) == 4
        assert self.commits_until_flush(log, first_txn=8) == 4

    def test_group_count_restarts_after_forced_flush(self):
        """Commits flushed by the WAL rule start a fresh group."""
        log = LogManager(dram_hierarchy(), group_commit_size=4)
        for txn in (1, 2, 3):
            last = log.commit(txn_id=txn)
        log.ensure_durable(last.lsn)
        assert log.stats.wal_guard_flushes == 1
        assert log.durable_lsn == last.lsn
        assert self.commits_until_flush(log, first_txn=4) == 4
        assert self.commits_until_flush(log, first_txn=8) == 4

    def test_only_commit_records_fill_a_group(self):
        log = LogManager(dram_hierarchy(), group_commit_size=2)
        for _ in range(10):
            log.append(LogRecordType.UPDATE, txn_id=1, after=b"u")
        log.commit(txn_id=1)
        assert log.stats.group_commits == 0
        log.append(LogRecordType.COMMIT, txn_id=2)
        log.commit(txn_id=3)
        assert log.stats.group_commits == 1


class TestUsesNvm:
    def test_fixed_by_hierarchy_mode(self):
        assert LogManager(nvm_hierarchy()).uses_nvm
        assert not LogManager(dram_hierarchy()).uses_nvm
        memory_mode = StorageHierarchy(HierarchyShape(1, 4, 100), SCALE,
                                       memory_mode=True)
        assert not LogManager(memory_mode).uses_nvm


class TestRecoveredRecords:
    def test_in_lsn_order_and_complete(self):
        log = LogManager(nvm_hierarchy())
        for txn in range(3):
            log.append(LogRecordType.BEGIN, txn_id=txn + 1)
            log.commit(txn_id=txn + 1)
        records = log.recovered_records()
        lsns = [r.lsn for r in records]
        assert lsns == sorted(lsns)
        assert len(records) == 6

    def test_records_for_txn(self):
        log = LogManager(nvm_hierarchy())
        log.append(LogRecordType.BEGIN, txn_id=1)
        log.append(LogRecordType.BEGIN, txn_id=2)
        log.commit(txn_id=1)
        assert len(log.records_for_txn(1)) == 2

    def test_truncate_before(self):
        log = LogManager(nvm_hierarchy())
        log.append(LogRecordType.BEGIN, txn_id=1)
        marker = log.append(LogRecordType.CHECKPOINT_BEGIN, txn_id=0)
        log.append(LogRecordType.CHECKPOINT_END, txn_id=0)
        log.flush()
        dropped = log.truncate_before(marker.lsn)
        assert dropped == 1
        assert all(r.lsn >= marker.lsn for r in log.recovered_records())
