"""Property tests on the commit queue: LSN-ordered, prefix-closed commits
no matter how forces and acks interleave — and the queue of write groups
against the per-record queue it replaced."""

from functools import partial

from hypothesis import given, settings, strategies as st

from repro.core.commitqueue import CommitQueue, PendingWrite
from repro.storage.lsn import LSN
from repro.storage.records import WriteRecord

KEYS = (b"k0", b"k1", b"k2")


def wrec(seq):
    return WriteRecord(lsn=LSN(1, seq), cohort_id=0, key=KEYS[seq % 3],
                       colname=b"c", value=b"v", version=seq)


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=150)
def test_commits_always_form_a_prefix(n, data):
    """Add n writes, then force/ack them in arbitrary order: after every
    step, the committed set is exactly a prefix of the LSN sequence."""
    queue = CommitQueue(acks_needed=1)
    committed = []
    entries = {seq: queue.add(PendingWrite(
        [wrec(seq)], partial(committed.append, seq)))
        for seq in range(1, n + 1)}
    events = ([("force", seq) for seq in range(1, n + 1)]
              + [("ack", seq) for seq in range(1, n + 1)])
    order = data.draw(st.permutations(events))
    for kind, seq in order:
        if kind == "force":
            entries[seq].forced = True
        else:
            entries[seq].acks = frozenset({"f1"})
        queue.advance_leader()
        assert committed == list(range(1, len(committed) + 1))
    assert committed == list(range(1, n + 1))
    assert queue.committed_lsn == LSN(1, n)


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=100)
def test_cumulative_acks_equivalent_to_individual(n, data):
    """A single cumulative ack at the top LSN commits exactly what
    individual acks for every LSN would."""
    individual = CommitQueue(acks_needed=1)
    cumulative = CommitQueue(acks_needed=1)
    entries = []
    for seq in range(1, n + 1):
        entries.append(individual.add(PendingWrite([wrec(seq)])))
        cumulative.add(PendingWrite([wrec(seq)])).forced = True
        entries[-1].forced = True
    upto = data.draw(st.integers(min_value=1, max_value=n))
    for entry in entries[:upto]:
        entry.acks = frozenset({"f1"})
    cumulative.add_ack_upto(LSN(1, upto), "f1")
    a = [r.lsn for r in individual.advance_leader()]
    b = [r.lsn for r in cumulative.advance_leader()]
    assert a == b
    assert individual.committed_lsn == cumulative.committed_lsn


@given(st.lists(st.integers(min_value=1, max_value=20), min_size=1,
                max_size=15, unique=True), st.data())
@settings(max_examples=100)
def test_follower_apply_commit_is_prefix_closed(seqs, data):
    queue = CommitQueue()
    for seq in sorted(seqs):
        queue.add(PendingWrite([wrec(seq)]))
    upto = data.draw(st.integers(min_value=0, max_value=25))
    committed = queue.apply_commit(LSN(1, upto))
    assert [r.lsn.seq for r in committed] == [s for s in sorted(seqs)
                                              if s <= upto]
    assert all(r.lsn.seq > upto for r in queue.pending_records())


# -- the queue of write groups against the per-record queue -----------------

class _RecordEntry:
    __slots__ = ("record", "forced", "acks", "on_commit")

    def __init__(self, record, on_commit=None):
        self.record = record
        self.forced = False
        self.acks = frozenset()
        self.on_commit = on_commit


class RecordQueue:
    """The commit queue as it was before a write group became one entry:
    an entry per *record* in a plain ``dict`` keyed by LSN, re-adding an
    LSN only swaps its ``on_commit``, kept as the reference the group
    queue must agree with.  A write group is :func:`add_group`'s records
    sharing one counting closure."""

    def __init__(self, acks_needed=1):
        self.acks_needed = acks_needed
        self._entries = {}
        self.committed_lsn = LSN.zero()

    def __len__(self):
        return len(self._entries)

    def add(self, record, on_commit=None):
        entry = self._entries.get(record.lsn)
        if entry is not None:
            if on_commit is not None:
                entry.on_commit = on_commit
            return entry
        entry = self._entries[record.lsn] = _RecordEntry(record, on_commit)
        return entry

    def mark_forced(self, lsn):
        entry = self._entries.get(lsn)
        if entry is not None:
            entry.forced = True

    def add_ack_upto(self, lsn, follower):
        for pending_lsn, entry in self._entries.items():
            if pending_lsn > lsn:
                break
            if follower not in entry.acks:
                entry.acks = entry.acks | {follower}

    def advance_leader(self):
        committed = []
        entries, needed = self._entries, self.acks_needed
        while entries:
            for lsn in entries:     # the head: oldest insertion
                break
            entry = entries[lsn]
            if not entry.forced or len(entry.acks) < needed:
                break
            del entries[lsn]
            self.committed_lsn = lsn
            committed.append(entry.record)
            if entry.on_commit is not None:
                entry.on_commit(entry.record)
        return committed

    def apply_commit(self, upto):
        committed = []
        entries = self._entries
        while entries:
            for lsn in entries:     # the head: oldest insertion
                break
            if lsn > upto:
                break
            entry = entries[lsn]
            del entries[lsn]
            if lsn > self.committed_lsn:
                self.committed_lsn = lsn
            committed.append(entry.record)
            if entry.on_commit is not None:
                entry.on_commit(entry.record)
        if upto > self.committed_lsn:
            self.committed_lsn = upto
        return committed

    def drop(self, lsn):
        entry = self._entries.pop(lsn, None)
        return entry.record if entry is not None else None

    def pending_lsns(self):
        return list(self._entries)

    def pending_records(self):
        return [e.record for e in self._entries.values()]

    def latest_pending_for(self, key, colname):
        latest = None
        for entry in self._entries.values():
            rec = entry.record
            if rec.key == key and rec.colname == colname:
                latest = rec
        return latest

    def clear(self):
        self._entries.clear()


def add_group(queue, records, then):
    """Queue a write group as ``CohortReplica._replicate`` did: one
    closure per group counts its records down to ``then()``."""
    remaining = len(records)

    def on_commit(_record):
        nonlocal remaining
        remaining -= 1
        if remaining == 0:
            then()

    for record in records:
        queue.add(record, on_commit=on_commit)


_STEPS = ("write", "write", "force", "ack", "apply_commit", "drop",
          "re-propose", "clear")


@given(st.integers(min_value=0, max_value=2), st.data())
@settings(max_examples=400, deadline=None)
def test_the_group_queue_agrees_with_the_per_record_queue(acks_needed,
                                                          data):
    """Group-respecting histories, the leader's and a deposed leader's:
    writes of 1-4 records; whole-group batches forced; cumulative acks
    at group tops from two followers; commit points at any LSN, inside a
    group too; drops of any record; a takeover's re-proposal of the
    oldest pending records (plus new ones once it reaches the top),
    logged already; clears.  The replica advances after every force,
    ack and re-proposal.  Both queues commit the same records in the
    same order, fire the same continuations in the same order, and agree
    on the commit point, the pending records, their count and the newest
    pending write per column.

    The one place they part: a re-proposal whose records were acked
    unevenly (a leftover some follower acked beside one it did not, or
    beside a new record).  The per-record queue commits the acked prefix
    at once and the rest at the batch's quorum; the group commits whole
    at the batch's quorum.  Such a re-proposal is skipped here."""
    queue, ref = CommitQueue(acks_needed), RecordQueue(acks_needed)
    fired, ref_fired = [], []
    next_seq, groups = 1, 0

    def replicate(records):
        nonlocal groups
        entry = queue.add(PendingWrite(records,
                                       partial(fired.append, groups)))
        add_group(ref, records, partial(ref_fired.append, groups))
        groups += 1
        return entry

    def advance():
        assert queue.advance_leader() == ref.advance_leader()

    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        entries, pending = list(queue), queue.pending_records()
        step = data.draw(st.sampled_from(_STEPS))
        if step == "write":
            size = data.draw(st.integers(min_value=1, max_value=4))
            replicate([wrec(s) for s in range(next_seq, next_seq + size)])
            next_seq += size
        elif step == "force" and entries:
            lo = data.draw(st.integers(0, len(entries) - 1))
            hi = data.draw(st.integers(lo + 1, len(entries)))
            for entry in entries[lo:hi]:
                entry.forced = True
                for record in entry.records:
                    ref.mark_forced(record.lsn)
            advance()
        elif step == "ack" and entries:
            top = data.draw(st.sampled_from(entries)).records[-1].lsn
            follower = data.draw(st.sampled_from(["f1", "f2"]))
            queue.add_ack_upto(top, follower)
            ref.add_ack_upto(top, follower)
            advance()
        elif step == "apply_commit":
            upto = LSN(1, data.draw(st.integers(0, next_seq)))
            assert queue.apply_commit(upto) == ref.apply_commit(upto)
        elif step == "drop":
            lsn = LSN(1, data.draw(st.integers(1, next_seq)))
            assert queue.drop(lsn) == ref.drop(lsn)
        elif step == "re-propose" and pending:
            count = data.draw(st.integers(1, len(pending)))
            records = pending[:count]
            if count == len(pending):
                fresh = data.draw(st.integers(0, 2))
                records += [wrec(s) for s in range(next_seq,
                                                   next_seq + fresh)]
                next_seq += fresh
            acks = {r.lsn: entry.acks for entry in entries
                    for r in entry.records}
            if len({acks.get(r.lsn, frozenset()) for r in records}) > 1:
                continue        # see the docstring
            replicate(records).forced = True
            for record in records:
                ref.mark_forced(record.lsn)
            advance()
        elif step == "clear":
            queue.clear()
            ref.clear()
        assert fired == ref_fired
        assert queue.committed_lsn == ref.committed_lsn
        assert len(queue) == len(ref)
        assert queue.pending_records() == ref.pending_records()
        for key in KEYS:
            assert (queue.latest_pending_for(key, b"c")
                    == ref.latest_pending_for(key, b"c"))


def test_a_follower_acking_twice_counts_once():
    queue = CommitQueue(acks_needed=2)
    queue.add(PendingWrite([wrec(1)])).forced = True
    queue.add_ack_upto(LSN(1, 1), "f1")
    queue.add_ack_upto(LSN(1, 1), "f1")
    queue.add_ack_upto(LSN(1, 1), "f1")
    assert queue.advance_leader() == []
    queue.add_ack_upto(LSN(1, 1), "f2")
    assert [r.lsn for r in queue.advance_leader()] == [LSN(1, 1)]


def test_a_commit_callback_may_queue_more_writes():
    """``then`` resumes the writer, which may queue its next write before
    ``advance_leader`` returns."""
    queue = CommitQueue(acks_needed=0)
    queue.add(PendingWrite([wrec(1)], lambda: queue.add(
        PendingWrite([wrec(2)])))).forced = True
    assert [r.lsn.seq for r in queue.advance_leader()] == [1]
    assert [r.lsn for r in queue.pending_records()] == [LSN(1, 2)]
