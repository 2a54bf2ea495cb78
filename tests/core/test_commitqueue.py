"""Tests for the commit queue (§4.1): LSN-ordered quorum commits."""

from repro.core.commitqueue import CommitQueue, PendingWrite
from repro.storage.lsn import LSN
from repro.storage.records import WriteRecord


def wrec(seq, key=b"k", col=b"c", epoch=1):
    return WriteRecord(lsn=LSN(epoch, seq), cohort_id=0, key=key,
                       colname=col, value=b"v", version=seq)


def write(q, *seqs, then=None, **kwargs):
    """Queue one write group of the records ``seqs``."""
    return q.add(PendingWrite([wrec(seq, **kwargs) for seq in seqs], then))


def test_commit_requires_force_and_ack():
    q = CommitQueue(acks_needed=1)
    entry = write(q, 1)
    assert q.advance_leader() == []
    entry.forced = True
    assert q.advance_leader() == []          # no ack yet
    q.add_ack_upto(LSN(1, 1), "f1")
    committed = q.advance_leader()
    assert [r.lsn.seq for r in committed] == [1]
    assert q.committed_lsn == LSN(1, 1)


def test_commits_strictly_in_lsn_order():
    q = CommitQueue(acks_needed=1)
    entries = [write(q, seq) for seq in (1, 2, 3)]
    for entry in entries:
        entry.forced = True
    # Write 2 and 3 are ready, but 1 is not: nothing commits.
    entries[1].acks = entries[2].acks = frozenset({"f1"})
    assert q.advance_leader() == []
    entries[0].acks = frozenset({"f1"})
    assert [r.lsn.seq for r in q.advance_leader()] == [1, 2, 3]


def test_cumulative_ack_covers_earlier_writes():
    q = CommitQueue(acks_needed=1)
    for seq in (1, 2, 3):
        write(q, seq).forced = True
    q.add_ack_upto(LSN(1, 2), "f1")
    assert [r.lsn.seq for r in q.advance_leader()] == [1, 2]
    assert q.pending_records() == [wrec(3)]


def test_an_ack_below_a_groups_top_does_not_cover_it():
    q = CommitQueue(acks_needed=1)
    write(q, 1, 2, 3).forced = True
    q.add_ack_upto(LSN(1, 2), "f1")
    assert q.advance_leader() == []
    q.add_ack_upto(LSN(1, 3), "f1")
    assert [r.lsn.seq for r in q.advance_leader()] == [1, 2, 3]


def test_acks_needed_two():
    q = CommitQueue(acks_needed=2)
    write(q, 1).forced = True
    q.add_ack_upto(LSN(1, 1), "f1")
    assert q.advance_leader() == []
    q.add_ack_upto(LSN(1, 1), "f1")  # duplicate from same follower: no
    assert q.advance_leader() == []
    q.add_ack_upto(LSN(1, 1), "f2")
    assert len(q.advance_leader()) == 1


def test_on_commit_callbacks_fire_in_order():
    q = CommitQueue(acks_needed=1)
    fired = []
    for seq in (1, 2):
        write(q, seq, then=lambda seq=seq: fired.append(seq)).forced = True
    q.add_ack_upto(LSN(1, 2), "f1")
    q.advance_leader()
    assert fired == [1, 2]


def test_add_is_idempotent_by_lsn():
    """A group re-added over a pending record (a takeover re-proposing a
    deposed leader's leftover) takes it over: still one record per LSN."""
    q = CommitQueue()
    first = write(q, 1)
    second = write(q, 1)
    assert list(q) == [second] and first.records == []
    assert len(q) == 1


def test_follower_apply_commit_pops_prefix():
    q = CommitQueue()
    for seq in (1, 2, 3):
        write(q, seq)
    committed = q.apply_commit(LSN(1, 2))
    assert [r.lsn.seq for r in committed] == [1, 2]
    assert q.committed_lsn == LSN(1, 2)
    assert len(q) == 1


def test_apply_commit_inside_a_group_commits_its_prefix_only():
    q = CommitQueue()
    fired = []
    write(q, 1, 2, 3, then=lambda: fired.append("group"))
    assert [r.lsn.seq for r in q.apply_commit(LSN(1, 2))] == [1, 2]
    assert fired == [] and len(q) == 1
    assert [r.lsn.seq for r in q.apply_commit(LSN(1, 3))] == [3]
    assert fired == ["group"]


def test_apply_commit_advances_watermark_even_when_empty():
    q = CommitQueue()
    q.apply_commit(LSN(1, 9))
    assert q.committed_lsn == LSN(1, 9)


def test_drop_removes_discarded_write():
    q = CommitQueue()
    write(q, 1)
    write(q, 2)
    dropped = q.drop(LSN(1, 2))
    assert dropped.lsn == LSN(1, 2)
    assert q.pending_records() == [wrec(1)]
    assert q.drop(LSN(1, 99)) is None


def test_a_group_that_lost_a_record_never_fires():
    q = CommitQueue(acks_needed=0)
    fired = []
    entry = write(q, 1, 2, then=lambda: fired.append("group"))
    q.drop(LSN(1, 2))
    entry.forced = True
    assert [r.lsn.seq for r in q.advance_leader()] == [1]
    assert fired == []


def test_latest_pending_for_column():
    q = CommitQueue()
    write(q, 1, key=b"a")
    write(q, 2, key=b"a")
    write(q, 3, key=b"b")
    latest = q.latest_pending_for(b"a", b"c")
    assert latest.lsn == LSN(1, 2)
    assert q.latest_pending_for(b"zz", b"c") is None


def test_clear_empties_queue():
    q = CommitQueue()
    write(q, 1)
    q.clear()
    assert len(q) == 0
