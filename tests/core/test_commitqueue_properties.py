"""Property tests on the commit queue: LSN-ordered, prefix-closed commits
no matter how forces and acks interleave."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.core.commitqueue import CommitQueue
from repro.storage.lsn import LSN
from repro.storage.records import WriteRecord


def wrec(seq):
    return WriteRecord(lsn=LSN(1, seq), cohort_id=0, key=b"k",
                       colname=b"c", value=b"v", version=seq)


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=150)
def test_commits_always_form_a_prefix(n, data):
    """Add n writes, then force/ack them in arbitrary order: after every
    step, the committed set is exactly a prefix of the LSN sequence."""
    queue = CommitQueue(acks_needed=1)
    committed = []
    for seq in range(1, n + 1):
        queue.add(wrec(seq), on_commit=lambda r: committed.append(
            r.lsn.seq))
    events = ([("force", seq) for seq in range(1, n + 1)]
              + [("ack", seq) for seq in range(1, n + 1)])
    order = data.draw(st.permutations(events))
    for kind, seq in order:
        if kind == "force":
            queue.mark_forced(LSN(1, seq))
        else:
            queue.add_ack(LSN(1, seq), "f1")
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
    for seq in range(1, n + 1):
        individual.add(wrec(seq))
        cumulative.add(wrec(seq))
        individual.mark_forced(LSN(1, seq))
        cumulative.mark_forced(LSN(1, seq))
    upto = data.draw(st.integers(min_value=1, max_value=n))
    for seq in range(1, upto + 1):
        individual.add_ack(LSN(1, seq), "f1")
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
        queue.add(wrec(seq))
    upto = data.draw(st.integers(min_value=0, max_value=25))
    committed = queue.apply_commit(LSN(1, upto))
    assert [r.lsn.seq for r in committed] == [s for s in sorted(seqs)
                                              if s <= upto]
    assert all(s > upto for s in
               (lsn.seq for lsn in queue.pending_lsns()))


# -- the queue against the implementation it replaced -----------------------

class _RefPending:
    def __init__(self, record, on_commit):
        self.record, self.on_commit = record, on_commit
        self.forced, self.acks = False, set()


class _RefQueue:
    """The commit queue as it was before the write fast path — an
    ``OrderedDict``, an ``acks`` set per entry from the start,
    ``next(iter(items()))`` + ``ready()`` + ``popitem`` — kept as the
    reference the rewritten one must agree with."""

    def __init__(self, acks_needed):
        self.acks_needed = acks_needed
        self.entries = OrderedDict()
        self.committed_lsn = LSN.zero()

    def add(self, record, on_commit=None):
        entry = self.entries.get(record.lsn)
        if entry is None:
            self.entries[record.lsn] = _RefPending(record, on_commit)
        elif on_commit is not None:
            entry.on_commit = on_commit

    def mark_forced(self, lsn):
        if lsn in self.entries:
            self.entries[lsn].forced = True

    def add_ack(self, lsn, follower):
        if lsn in self.entries:
            self.entries[lsn].acks.add(follower)

    def add_ack_upto(self, lsn, follower):
        for pending_lsn, entry in self.entries.items():
            if pending_lsn > lsn:
                break
            entry.acks.add(follower)

    def advance_leader(self):
        committed = []
        while self.entries:
            lsn, entry = next(iter(self.entries.items()))
            if not (entry.forced and len(entry.acks) >= self.acks_needed):
                break
            self.entries.popitem(last=False)
            self.committed_lsn = lsn
            committed.append(entry.record)
            if entry.on_commit is not None:
                entry.on_commit(entry.record)
        return committed

    def apply_commit(self, upto):
        committed = []
        while self.entries:
            lsn, entry = next(iter(self.entries.items()))
            if lsn > upto:
                break
            self.entries.popitem(last=False)
            self.committed_lsn = max(self.committed_lsn, lsn)
            committed.append(entry.record)
            if entry.on_commit is not None:
                entry.on_commit(entry.record)
        if upto > self.committed_lsn:
            self.committed_lsn = upto
        return committed

    def pending_older_than(self, lsn, limit):
        count = 0
        for pending_lsn in self.entries:
            if pending_lsn >= lsn or count >= limit:
                break
            count += 1
        return count

    def drop(self, lsn):
        entry = self.entries.pop(lsn, None)
        return entry.record if entry is not None else None

    def clear(self):
        self.entries.clear()


_SEQS = st.integers(min_value=1, max_value=8)
_FOLLOWERS = st.sampled_from(["f1", "f2"])
_QUEUE_OPS = st.one_of(
    st.tuples(st.just("add"), _SEQS, st.booleans()),
    st.tuples(st.just("mark_forced"), _SEQS),
    st.tuples(st.just("add_ack"), _SEQS, _FOLLOWERS),
    st.tuples(st.just("add_ack_upto"), _SEQS, _FOLLOWERS),
    st.tuples(st.just("advance_leader")),
    st.tuples(st.just("apply_commit"), _SEQS),
    st.tuples(st.just("pending_older_than"), _SEQS,
              st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("drop"), _SEQS),
    st.tuples(st.just("clear")),
)


@given(st.integers(min_value=0, max_value=2),
       st.lists(_QUEUE_OPS, min_size=1, max_size=40))
@settings(max_examples=300)
def test_queue_agrees_with_the_ordered_dict_reference(acks_needed, ops):
    """Any interleaving of adds (in any LSN order, as a follower's
    backfills arrive), forces, single and cumulative acks (a follower
    acking twice counts once), leader advances, follower commits, drops
    and clears, with 0, 1 or 2 acks needed: same answers, same callback
    order, same commit point, same pending set."""
    queue, ref = CommitQueue(acks_needed), _RefQueue(acks_needed)
    fired, ref_fired = [], []
    for name, *args in ops:
        if name == "add":
            seq, with_callback = args
            queue.add(wrec(seq), fired.append if with_callback else None)
            ref.add(wrec(seq), ref_fired.append if with_callback else None)
            continue
        if name in ("mark_forced", "add_ack", "add_ack_upto",
                    "apply_commit", "pending_older_than", "drop"):
            args[0] = LSN(1, args[0])
        assert getattr(queue, name)(*args) == getattr(ref, name)(*args), name
        assert fired == ref_fired
        assert queue.committed_lsn == ref.committed_lsn
        assert queue.pending_lsns() == list(ref.entries)
        assert len(queue) == len(ref.entries)


def test_a_follower_acking_twice_counts_once():
    queue = CommitQueue(acks_needed=2)
    queue.add(wrec(1))
    queue.mark_forced(LSN(1, 1))
    queue.add_ack_upto(LSN(1, 1), "f1")
    queue.add_ack(LSN(1, 1), "f1")
    queue.add_ack_upto(LSN(1, 1), "f1")
    assert queue.advance_leader() == []
    queue.add_ack_upto(LSN(1, 1), "f2")
    assert [r.lsn for r in queue.advance_leader()] == [LSN(1, 1)]


def test_a_commit_callback_may_queue_more_writes():
    """``on_commit`` resumes the writer, which may queue its next write
    before ``advance_leader`` returns (takeover re-proposes this way)."""
    queue = CommitQueue(acks_needed=0)
    queue.add(wrec(1), on_commit=lambda _rec: queue.add(wrec(2)))
    queue.mark_forced(LSN(1, 1))
    assert [r.lsn.seq for r in queue.advance_leader()] == [1]
    assert queue.pending_lsns() == [LSN(1, 2)]
