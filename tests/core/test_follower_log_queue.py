"""A follower's commit queue is its log above f.cmt (Fig. 4).

A follower used to keep every propose twice: in its log and, as a
``PendingWrite``, in its ``CommitQueue``; a commit verified the log
(``_held_through``: every seq above f.cmt held) and then applied the
queue.  ``_QueueFollower`` below is that follower, kept as the
reference.  Random follower histories drive it and the real
``CohortReplica`` side by side — a deposed leader's queued records, the
catch-up truncation that skip-lists what of them the next leader's
stream forked away from, proposes of that stream (re-proposals of what
the log holds, new records, runs straddling both), commit points from
commit messages and piggybacked on proposes.  Both must reach the same
f.cmt, make the same resync decisions, fire the same ``on_commit``s, and
apply the same records at the same ``charge_background`` cost into the
same engine cells.

Only logs the prefix rule can produce are compared.  A follower takes a
propose only on top of its ``prev`` (PROTOCOL.md, *The prefix rule*), so
its non-skipped log is always a prefix of one leader's stream: a propose
that would leave a hole is refused whole, and the histories the
reference was once driven with besides — lost proposes, logs with a seq
hole, a backfill filling one — cannot arise.  A refused propose must
leave the real follower exactly as it was, with one resync asked for.
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
    a device-less log, so a force completes inside the call, and a CPU
    slice that is over at once."""

    name = "f"

    def __init__(self):
        self.config = SpinnakerConfig()
        self.wal = SharedLog()
        self.charged = []

    def make_engine(self, cohort_id):
        return StorageEngine(cohort_id)

    def guarded(self, then, *args):
        return partial(then, *args)

    def charge(self, cpu_time, step, *args):
        step(*args)

    def queued(self, charge):
        return None     # no slice waits for a core: none to join

    def charge_background(self, cpu_time):
        self.charged.append(cpu_time)

    def maybe_flush(self, replica):
        pass

    def trace(self, *args, **kwargs):
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

    def handle_propose(self, req):
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
            assert record.lsn > last        # a prefix log: no backfill
            wal.append(record, True,
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


def _record(lsn):
    return WriteRecord(lsn=lsn, cohort_id=COHORT,
                       key=KEYS[lsn.seq % len(KEYS)], colname=b"c",
                       value=b"%d.%d" % (lsn.epoch, lsn.seq), version=lsn.seq)


def _stream(fork):
    """Epoch 2's leader's stream: epoch 1's through seq ``fork``, then
    its own records (seqs go on across epochs)."""
    return [LSN(1, seq) for seq in range(1, fork + 1)] + [
        LSN(2, seq) for seq in range(fork + 1, 9)]


def _cells(replica):
    cells = [replica.engine.get(key, b"c") for key in KEYS]
    return [None if c is None else (c.lsn, c.value) for c in cells]


def _state(replica):
    wal = replica.node.wal
    return (wal.write_records(COHORT, include_skipped=True),
            wal.skipped_lsns(COHORT), wal._seq, replica.committed_lsn,
            list(replica.applied), list(replica.fired))


positions = st.integers(0, 7)
proposes = st.tuples(st.just("propose"), positions, st.integers(1, 4),
                     st.one_of(st.none(), positions))
commits = st.tuples(st.just("commit"), positions)
histories = st.tuples(
    st.integers(0, 3),          # epoch-1 records (1, 1..led) it led
    st.integers(0, 4),          # where epoch 2's stream forks from them
    st.lists(st.one_of(proposes, proposes, commits), max_size=14))


@given(histories)
@settings(max_examples=400, deadline=None)
def test_the_one_pass_commit_agrees_with_the_queue_it_replaced(history):
    led, fork, steps = history
    stream = _stream(fork)
    ref, new = _follower(_QueueFollower), _follower(CohortReplica)
    for replica in (ref, new):
        # written as leader: logged and queued with a client waiting
        for seq in range(1, led + 1):
            record = _record(LSN(1, seq))
            replica.node.wal.append(record)
            if replica is ref:
                replica.queue.add(record, on_commit=replica.fired.append)
            else:
                replica.queue.add(PendingWrite(
                    [record], partial(replica.fired.append, record)))
        # the catch-up that made it epoch 2's follower cut what epoch 2's
        # stream does not hold (§6.1.1)
        cut = [LSN(1, seq) for seq in range(fork + 1, led + 1)]
        replica.node.wal.add_skipped(COHORT, cut)
        for lsn in cut:
            replica.queue.drop(lsn)
    for step in steps:
        before = {id(r): (len(r.applied), len(r.node.charged),
                          r.committed_lsn) for r in (ref, new)}
        if step[0] == "propose":
            _, lo, n, piggyback = step
            records = tuple(_record(lsn) for lsn in stream[lo:lo + n])
            prev = stream[lo - 1] if lo else LSN.zero()
            cmt = None if piggyback is None else stream[piggyback]
            held = _state(new)
            req = _Request(Propose(COHORT, 2, records, prev, cmt))
            new.handle_propose(req)
            if not req.acks:
                # not on top of its ``prev``: refused whole
                assert _state(new) == held
                assert new.resyncs_at[len(ref.resyncs_at):] == [
                    records[-1].lsn]
                ref.resyncs_at.append(records[-1].lsn)
                continue
            assert req.acks == [records[-1].lsn]
            req = _Request(Propose(COHORT, 2, records, prev, cmt))
            ref.handle_propose(req)
            assert req.acks == [records[-1].lsn]
        else:
            for replica in (ref, new):
                replica._apply_commit_info(stream[step[1]])
        # The same log, commit point, resyncs and answered clients.
        assert (new.node.wal.write_records(COHORT, include_skipped=True)
                == ref.node.wal.write_records(COHORT, include_skipped=True))
        assert (new.node.wal.skipped_lsns(COHORT)
                == ref.node.wal.skipped_lsns(COHORT))
        assert new.committed_lsn == ref.committed_lsn
        assert new.resyncs_at == ref.resyncs_at
        assert new.fired == ref.fired
        # The non-skipped log is a prefix of the stream.
        log = [r.lsn for r in new.node.wal.write_records(COHORT)]
        assert log == stream[:len(log)]
        # What this step applied: every non-skipped log record the
        # commit point passed, in LSN order, charged once each — what
        # the reference applied from its queue.
        n_applied, n_charged, cmt = before[id(new)]
        applied = new.applied[n_applied:]
        assert applied == new.node.wal.write_records(
            COHORT, after=cmt, upto=new.committed_lsn)
        assert applied == ref.applied[before[id(ref)][0]:]
        assert new.node.charged[n_charged:] == (
            [len(applied) * COMMIT_APPLY_SERVICE] if applied else [])
        assert ref.node.charged[before[id(ref)][1]:] == (
            new.node.charged[n_charged:])
        assert _cells(new) == _cells(ref)
