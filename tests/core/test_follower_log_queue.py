"""A follower's commit queue is its log above f.cmt (Fig. 4).

A follower used to keep every propose twice: in its log and, as a
``PendingWrite``, in its ``CommitQueue``; a commit verified the log
(``_held_through``: every seq above f.cmt held) and then applied the
queue.  ``_QueueFollower`` below is that follower, kept as the
reference.  Random follower histories — proposes with gaps, lost
proposes, backfilled re-proposals, two epochs sharing a seq, catch-up
skip windows, leader-era leftovers, commit points from commit messages
and piggybacked on proposes — drive it and the real ``CohortReplica``
side by side.  Both must reach the same f.cmt, make the same resync
decisions, fire the same ``on_commit``s, and apply the same records at
the same ``charge_background`` cost into the same engine cells.

The one place the two may differ is where the reference was wrong: a
backfilled re-proposal is queued *behind* the later records it fills a
gap under, and the queue drains from its head, so a commit point that
covers the backfill but not all of them left it unapplied at or below
f.cmt — until a later commit drained the rest, or for good if this
replica won an election first (the entry was never forced: the new
leader's queue stalled behind it).  The log is LSN-ordered: the one-pass
commit applies it at its own commit point.  The property pins that
difference exactly: it arises only with the reference's queue out of
LSN order, and only as records the reference holds unapplied at or
below its f.cmt.
"""

from functools import partial

from hypothesis import given, settings, strategies as st

from repro.core.commitqueue import PendingWrite
from repro.core.config import COMMIT_APPLY_SERVICE, SpinnakerConfig
from repro.core.messages import Propose
from repro.core.partition import Cohort, KeyRange
from repro.core.replication import CohortReplica, Role
from repro.storage.engine import StorageEngine
from repro.storage.lsn import LSN
from repro.storage.records import CommitMarker, WriteRecord
from repro.storage.wal import SharedLog

from .test_commitqueue_properties import RecordQueue

COHORT = 0
KEYS = (b"k0", b"k1", b"k2")


class _Node:
    """What a follower's propose and commit handlers use of their node;
    a device-less log, so a force completes inside the append."""

    name = "f"

    def __init__(self):
        self.config = SpinnakerConfig()
        self.wal = SharedLog()
        self.charged = []

    def make_engine(self, cohort_id):
        return StorageEngine(cohort_id)

    def guarded(self, then, *args):
        return partial(then, *args)

    def charge_background(self, cpu_time):
        self.charged.append(cpu_time)

    def maybe_flush(self, replica):
        pass


class _Request:
    def __init__(self, payload):
        self.src = "leader"
        self.payload = payload
        self.acks = []

    def respond(self, value, size=0):
        self.acks.append(value.lsn)


class _QueueFollower(CohortReplica):
    """The follower as it was: a propose's records also queued — in the
    per-record queue of that time — a commit verified by
    ``_held_through`` and applied from the queue."""

    def __init__(self, node, cohort):
        super().__init__(node, cohort)
        self.queue = RecordQueue(self.queue.acks_needed)

    def _log_propose(self, req):
        records, wal, cid = req.payload.records, self.node.wal, COHORT
        missing = [r for r in records if not wal.contains(cid, r.lsn)
                   and not wal.is_skipped(cid, r.lsn)]
        for record in records:
            if (not wal.is_skipped(cid, record.lsn)
                    and record.lsn > self.committed_lsn):
                self.queue.add(record)
        if not missing:
            self._ack_propose(req)
            return
        ack = partial(self._ack_propose, req)
        last = wal.last_lsn(cid)
        if (len(missing) == len(records) > 1
                and min(r.lsn for r in missing) > last):
            wal.append_batch(missing, then=ack)
            return
        for record in missing:
            wal.append(record, True, record.lsn <= last,
                       ack if record is missing[-1] else (lambda: None))

    def _held_through(self, upto):
        held = {rec.lsn.seq: rec.lsn
                for rec in self.node.wal.write_records(
                    COHORT, after=self.committed_lsn, upto=upto)}
        result = self.committed_lsn
        for seq in range(self.committed_lsn.seq + 1, upto.seq + 1):
            lsn = held.get(seq)
            if lsn is None:
                break
            result = lsn
        return min(result, upto)

    def _apply_commit_info(self, upto):
        if upto <= self.committed_lsn:
            return
        verified = upto if self.is_leader else self._held_through(upto)
        if verified > self.committed_lsn:
            committed = self.queue.apply_commit(verified)
            for record in committed:
                self.engine.apply(record)
            self.committed_lsn = max(self.committed_lsn, verified)
            self.node.wal.append(
                CommitMarker(lsn=verified, cohort_id=COHORT,
                             committed_lsn=verified), force=False)
            if committed:
                self.node.charge_background(
                    len(committed) * COMMIT_APPLY_SERVICE)
        if verified < upto:
            self._start_resync(upto)


def _follower(cls):
    replica = cls(_Node(), Cohort(COHORT, KeyRange(0, 1 << 64),
                                  ("leader", "f", "g")))
    replica.role = Role.FOLLOWER
    replica.epoch = 2
    replica.resyncs_at = []
    replica._start_resync = replica.resyncs_at.append
    replica.applied = []
    apply = replica.engine.apply
    replica.engine.apply = lambda record: (replica.applied.append(record),
                                           apply(record))
    replica.fired = []
    return replica


def _record(epoch, seq):
    return WriteRecord(lsn=LSN(epoch, seq), cohort_id=COHORT,
                       key=KEYS[seq % len(KEYS)], colname=b"c",
                       value=b"%d.%d" % (epoch, seq), version=seq)


def _cells(replica):
    cells = [replica.engine.get(key, b"c") for key in KEYS]
    return [None if c is None else (c.lsn, c.value) for c in cells]


def _records_charged(replica):
    return sum(round(cpu / COMMIT_APPLY_SERVICE)
               for cpu in replica.node.charged)


def _stuck(ref):
    """What the reference holds unapplied at or below its f.cmt."""
    return [lsn for lsn in ref.queue.pending_lsns()
            if lsn <= ref.committed_lsn]


lsn_points = st.builds(LSN, st.sampled_from([1, 2]), st.integers(1, 8))
proposes = st.tuples(
    st.just("propose"), st.sampled_from([1, 2]),
    st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True),
    st.one_of(st.none(), lsn_points))
commits = st.tuples(st.just("commit"), lsn_points)
skips = st.tuples(st.just("skip"), st.sets(lsn_points, max_size=3))
histories = st.tuples(
    st.integers(0, 3),          # leader-era records (1, 1..k) it holds
    st.lists(st.one_of(proposes, proposes, commits, skips), max_size=14))


@given(histories)
@settings(max_examples=400, deadline=None)
def test_the_one_pass_commit_agrees_with_the_queue_it_replaced(history):
    led, steps = history
    ref, new = _follower(_QueueFollower), _follower(CohortReplica)
    for replica in (ref, new):
        # written as leader: logged and queued with a client waiting
        for seq in range(1, led + 1):
            record = _record(1, seq)
            replica.node.wal.append(record)
            if replica is ref:
                replica.queue.add(record, on_commit=replica.fired.append)
            else:
                replica.queue.add(PendingWrite(
                    [record], partial(replica.fired.append, record)))
    out_of_order = False
    for step in steps:
        before = {id(r): (len(r.applied), len(r.node.charged),
                          r.committed_lsn) for r in (ref, new)}
        stuck_before = _stuck(ref)
        if step[0] == "propose":
            _, epoch, seqs, piggyback = step
            records = tuple(_record(epoch, seq) for seq in sorted(seqs))
            for replica in (ref, new):
                req = _Request(Propose(COHORT, epoch, records, piggyback))
                replica._log_propose(req)
                assert req.acks == [records[-1].lsn]
        elif step[0] == "commit":
            for replica in (ref, new):
                replica._apply_commit_info(step[1])
        else:
            # a catch-up page's truncation: held records above f.cmt
            lsns = [lsn for lsn in step[1] if lsn > ref.committed_lsn
                    and ref.node.wal.contains(COHORT, lsn)]
            for replica in (ref, new):
                replica.node.wal.add_skipped(COHORT, lsns)
                for lsn in lsns:
                    replica.queue.drop(lsn)
        # The same log, commit point, resyncs and answered clients.
        assert (new.node.wal.write_records(COHORT, include_skipped=True)
                == ref.node.wal.write_records(COHORT, include_skipped=True))
        assert (new.node.wal.skipped_lsns(COHORT)
                == ref.node.wal.skipped_lsns(COHORT))
        assert new.committed_lsn == ref.committed_lsn
        assert new.resyncs_at == ref.resyncs_at
        assert new.fired == ref.fired
        assert len(new.queue) <= led and all(
            r.lsn.seq <= led for r in new.queue.pending_records())
        # What this step applied: every non-skipped log record the
        # commit point passed, in LSN order, charged once each.
        n_applied, n_charged, cmt = before[id(new)]
        applied = new.applied[n_applied:]
        assert applied == new.node.wal.write_records(
            COHORT, after=cmt, upto=new.committed_lsn)
        assert new.node.charged[n_charged:] == (
            [len(applied) * COMMIT_APPLY_SERVICE] if applied else [])
        ref_applied = ref.applied[before[id(ref)][0]:]
        stuck = _stuck(ref)
        pending = ref.queue.pending_lsns()
        out_of_order = out_of_order or pending != sorted(pending)
        assert not stuck or out_of_order
        if not stuck and not stuck_before:
            assert sorted(r.lsn for r in ref_applied) == [
                r.lsn for r in applied]
            assert ref.node.charged[before[id(ref)][1]:] == (
                new.node.charged[n_charged:])
        # Over the history: the same records, less what the reference
        # left stuck; with none stuck, the same engine cells.
        assert sorted(r.lsn for r in new.applied) == sorted(
            [r.lsn for r in ref.applied] + stuck)
        if not stuck:
            assert _cells(new) == _cells(ref)
            assert _records_charged(new) == _records_charged(ref)


def test_a_backfill_is_applied_at_its_own_commit_point():
    """The follower logged 2.4 and 2.5 but lost 2.3.  The next leader
    re-proposes (2.2, 2.5] a record per round, piggybacking its commit
    point, so its second round commits 2.3 alone.  Queued behind 2.4 and
    2.5, 2.3 was left unapplied at f.cmt 2.3 (a timeline read missed a
    committed write) and, when this replica then won an election, its
    takeover re-proposed (2.3, 2.5] — forcing only those — and the
    unforced 2.3 at the head stalled every later write."""
    ref, new = _follower(_QueueFollower), _follower(CohortReplica)

    def deliver(replica, seqs, cmt=None):
        records = tuple(_record(2, seq) for seq in seqs)
        replica._log_propose(_Request(Propose(COHORT, 3, records, cmt)))

    for replica in (ref, new):
        deliver(replica, (1, 2))
        replica._apply_commit_info(LSN(2, 2))
        deliver(replica, (4, 5))                # 2.3 is lost
        deliver(replica, (3,), LSN(2, 2))       # the re-proposal rounds
        deliver(replica, (4,), LSN(2, 3))
    assert new.committed_lsn == ref.committed_lsn == LSN(2, 3)
    assert [r.lsn.seq for r in new.applied] == [1, 2, 3]
    assert [r.lsn.seq for r in ref.applied] == [1, 2]
    assert new.engine.get(b"k0", b"c").value == b"2.3"
    assert ref.engine.get(b"k0", b"c") is None
    for replica in (ref, new):
        # it wins the election: takeover commits its (l.cmt, l.lst]
        replica.role = Role.LEADER
        queue = replica.queue
        for record in replica.node.wal.write_records(COHORT,
                                                     after=LSN(2, 3)):
            if replica is ref:
                queue.add(record)
                queue.mark_forced(record.lsn)
            else:
                queue.add(PendingWrite([record])).forced = True
            queue.add_ack_upto(record.lsn, "g")
        queue.advance_leader()
    assert ref.queue.pending_lsns() == [LSN(2, 3)]      # for good
    assert new.queue.pending_records() == []
