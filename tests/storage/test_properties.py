"""Property-based tests (hypothesis) on storage invariants."""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.sim.disk import DiskProfile, LogDevice
from repro.sim.events import Event, Simulator
from repro.sim.rng import RngRegistry
from repro.storage.bloom import BloomFilter
from repro.storage.compaction import compact
from repro.storage.engine import StorageEngine
from repro.storage.lsn import LSN, SEQ_BITS
from repro.storage.memtable import Memtable
from repro.storage.records import (CommitMarker, WriteRecord, decode_record,
                                   encode_record)
from repro.storage.sstable import SSTable
from repro.storage.wal import DuplicateLSN, SharedLog, StaleLSN

# -- strategies -------------------------------------------------------------

lsns = st.builds(LSN,
                 epoch=st.integers(min_value=0, max_value=100),
                 seq=st.integers(min_value=0, max_value=(1 << 32)))

small_bytes = st.binary(min_size=0, max_size=32)
nonempty_bytes = st.binary(min_size=1, max_size=16)

write_records = st.builds(
    WriteRecord,
    lsn=lsns,
    cohort_id=st.integers(min_value=0, max_value=20),
    key=nonempty_bytes,
    colname=nonempty_bytes,
    value=st.one_of(st.none(), small_bytes),
    version=st.integers(min_value=0, max_value=1 << 30),
    timestamp=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    tombstone=st.booleans(),
)


# -- LSN --------------------------------------------------------------------

@given(lsns, lsns)
def test_lsn_int_packing_is_order_isomorphic(a, b):
    assert (a < b) == (a.to_int() < b.to_int())
    assert (a == b) == (a.to_int() == b.to_int())


@given(lsns)
def test_lsn_round_trip(lsn):
    assert LSN.from_int(lsn.to_int()) == lsn


@given(lsns)
def test_lsn_next_is_strictly_greater(lsn):
    assert lsn.next() > lsn


# -- record serialization ---------------------------------------------------

@given(write_records)
def test_write_record_serialization_round_trips(record):
    encoded = encode_record(record)
    assert decode_record(encoded) == record
    assert len(encoded) == record.encoded_size()


# -- memtable / engine -----------------------------------------------------

@given(st.lists(write_records.map(
    lambda r: WriteRecord(lsn=r.lsn, cohort_id=0, key=r.key,
                          colname=r.colname, value=r.value,
                          version=r.version, timestamp=r.timestamp,
                          tombstone=r.tombstone)),
    min_size=0, max_size=40))
def test_memtable_keeps_max_lsn_cell_per_column(records):
    mt = Memtable()
    for record in records:
        mt.apply(record)
    expected = {}
    for record in records:
        cur = expected.get((record.key, record.colname))
        if cur is None or (record.lsn, record.timestamp,
                           record.version) > (cur.lsn, cur.timestamp,
                                              cur.version):
            expected[(record.key, record.colname)] = record
    for (key, col), record in expected.items():
        cell = mt.get(key, col)
        assert cell is not None
        assert cell.lsn == record.lsn


@given(st.lists(write_records, min_size=0, max_size=40, unique_by=lambda
                r: r.lsn),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=40)
def test_engine_reads_unaffected_by_flush_boundaries(records, flush_every):
    """Reads must be identical no matter where flushes happened.

    LSNs are unique (as the cohort protocol guarantees) and records are
    rebased to one cohort.
    """
    records = [WriteRecord(lsn=r.lsn, cohort_id=0, key=r.key,
                           colname=r.colname, value=r.value,
                           version=r.version, timestamp=r.timestamp,
                           tombstone=r.tombstone) for r in records]
    plain = StorageEngine(0)
    flushy = StorageEngine(0)
    for i, record in enumerate(records):
        plain.apply(record)
        flushy.apply(record)
        if i % flush_every == flush_every - 1:
            flushy.flush()
    for record in records:
        a = plain.get(record.key, record.colname)
        b = flushy.get(record.key, record.colname)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.lsn == b.lsn
            assert a.value == b.value
            assert a.tombstone == b.tombstone


@given(st.lists(st.tuples(nonempty_bytes, small_bytes),
                min_size=1, max_size=30))
def test_compaction_preserves_latest_values(items):
    """Split writes across several tables; the merge keeps the newest."""
    mt_all = Memtable()
    tables = []
    mt = Memtable()
    for seq, (key, value) in enumerate(items, start=1):
        record = WriteRecord(lsn=LSN(1, seq), cohort_id=0, key=key,
                             colname=b"c", value=value, version=seq)
        mt_all.apply(record)
        mt.apply(record)
        if seq % 7 == 0:
            tables.append(SSTable.from_memtable(mt))
            mt = Memtable()
    if len(mt._rows):
        tables.append(SSTable.from_memtable(mt))
    merged = compact(tables)
    reference = SSTable.from_memtable(mt_all)
    for key, _value in items:
        a = merged.get(key, b"c")
        b = reference.get(key, b"c")
        assert a is not None and b is not None
        assert a.lsn == b.lsn and a.value == b.value


# -- bloom filter ----------------------------------------------------------

@given(st.sets(st.binary(min_size=1, max_size=24), min_size=1,
               max_size=200))
def test_bloom_never_false_negative(items):
    bloom = BloomFilter(expected_items=len(items))
    for item in items:
        bloom.add(item)
    assert all(bloom.might_contain(item) for item in items)


# -- WAL -----------------------------------------------------------------

@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1,
                max_size=30, unique=True),
       st.sets(st.integers(min_value=1, max_value=60), max_size=10))
def test_wal_skipped_lsns_never_returned(seqs, skipped):
    log = SharedLog()
    for seq in sorted(seqs):
        log.append(WriteRecord(lsn=LSN(1, seq), cohort_id=0, key=b"k",
                               colname=b"c", value=b"v", version=seq))
    log.add_skipped(0, [LSN(1, s) for s in skipped])
    visible = {r.lsn.seq for r in log.write_records(0)}
    assert visible == set(seqs) - skipped
    last = log.last_lsn(0)
    assert last.seq in (set(seqs) - skipped) or last == LSN.zero()


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=100),
                          st.booleans()),
                min_size=1, max_size=40))
def test_wal_range_queries_are_consistent(entries):
    """write_records(after, upto) == filter of write_records()."""
    log = SharedLog()
    seen = set()
    appended = []
    for seq, _flag in entries:
        if seq in seen:
            continue
        seen.add(seq)
        appended.append(seq)
    for seq in sorted(appended):
        log.append(WriteRecord(lsn=LSN(1, seq), cohort_id=0, key=b"k",
                               colname=b"c", value=b"v", version=seq))
    everything = log.write_records(0)
    lo, hi = LSN(1, 20), LSN(1, 80)
    ranged = log.write_records(0, after=lo, upto=hi)
    assert ranged == [r for r in everything if lo < r.lsn <= hi]


# -- WAL: the fast queries against the loop versions they replaced ---------
#
# ``_RefLog`` is the log as the code before the write fast path kept and
# queried it — one ``_Entry(record, seq)`` wrapper per record (the real
# view now holds the records themselves and maps LSN -> physical
# sequence number), ``append_batch`` re-resolving the view and ``n.lst``
# per record and appending at the physical tail, ``write_records``
# filtering and re-sorting the whole view, the follower asking
# ``is_skipped`` / ``contains`` per record — kept here as the reference.
# It learns what is durable from the force events alone, never from the
# real log's ``_durable_seq``.  The machine drives it and a real
# SharedLog with the same calls and requires the same answers, the same
# exceptions, the same crash survivors, and a strictly LSN-ascending view.

_COHORTS = (0, 1)
_GRID = [LSN(e, s) for e in (1, 2, 3) for s in range(1, 9)]
_BOUNDS = [LSN.zero(), LSN(1, 3), LSN(1, 8), LSN(2, 4), LSN(3, 2), LSN(3, 8)]
_PREVS = [LSN.zero()] + _GRID


def _grid_record(cohort_id, lsn):
    return WriteRecord(lsn=lsn, cohort_id=cohort_id, key=b"k%d" % lsn.seq,
                       colname=b"c", value=b"v" * lsn.epoch, version=lsn.seq)


class _Entry:
    """The per-record wrapper ``storage/wal.py`` kept before PR 18."""

    def __init__(self, record, seq):
        self.record = record
        self.seq = seq


class _RefLog:
    def __init__(self):
        self.seq = 0
        self.durable_seq = 0
        self.bytes_appended = 0
        self.writes = {c: [] for c in _COHORTS}     # _Entry per record
        self.markers = []                           # _Entry per marker
        self.skipped = {c: set() for c in _COHORTS}
        self.min_retained = {c: LSN.zero() for c in _COHORTS}

    def on_force(self, event):
        """``event`` is the force covering everything appended so far."""
        seq = self.seq

        def completed(_event):
            self.durable_seq = max(self.durable_seq, seq)

        event.add_callback(completed)

    def contains(self, cid, lsn):
        return any(e.record.lsn == lsn for e in self.writes[cid])

    def record_at(self, cid, lsn):
        for e in self.writes[cid]:
            if e.record.lsn == lsn:
                return e.record
        return None

    def last_lsn(self, cid):
        for e in reversed(self.writes[cid]):
            if e.record.lsn not in self.skipped[cid]:
                return e.record.lsn
        return self.min_retained[cid]

    def last_committed_lsn(self, cid):
        return max((e.record.committed_lsn for e in self.markers
                    if e.record.cohort_id == cid), default=LSN.zero())

    def append_marker(self, marker):
        self.seq += 1
        self.bytes_appended += marker.encoded_size()
        self.markers.append(_Entry(marker, self.seq))

    def _check(self, record):
        cid = record.cohort_id
        if self.contains(cid, record.lsn):
            raise DuplicateLSN(record.lsn)
        if record.lsn <= self.last_lsn(cid):
            raise StaleLSN(record.lsn)

    def _insert(self, record):
        self.seq += 1
        self.bytes_appended += record.encoded_size()
        writes = self.writes[record.cohort_id]
        idx = len(writes)
        while idx > 0 and writes[idx - 1].record.lsn > record.lsn:
            idx -= 1
        writes.insert(idx, _Entry(record, self.seq))

    def append(self, record):
        self._check(record)
        self._insert(record)

    def append_batch(self, records):
        for record in records:
            if not isinstance(record, WriteRecord):
                raise TypeError("append_batch takes WriteRecords only")
            self._check(record)
            self.seq += 1
            self.bytes_appended += record.encoded_size()
            self.writes[record.cohort_id].append(_Entry(record, self.seq))

    def append_after(self, cid, prev, records, held):
        """The prefix rule as PROTOCOL.md states it: ascending above
        ``prev``; ``prev`` held (or at or below ``held`` or the GC
        horizon); the non-skipped log above ``prev`` and the propose
        agree until one ends; the rest goes in, skip-listed LSNs back
        off the list.  The bytes appended, or None."""
        lsns = [record.lsn for record in records]
        if any(b <= a for a, b in zip([prev] + lsns, lsns)):
            return None
        skipped, floor = self.skipped[cid], self.min_retained[cid]
        if not (prev <= held or prev <= floor
                or (self.contains(cid, prev) and prev not in skipped)):
            return None
        mine = sorted(e.record.lsn for e in self.writes[cid]
                      if e.record.lsn > prev and e.record.lsn not in skipped)
        theirs = [record for record in records if record.lsn > floor]
        if [r.lsn for r in theirs[:len(mine)]] != mine[:len(theirs)]:
            return None
        total = 0
        for record in theirs[len(mine):]:
            if record.lsn in skipped:
                skipped.discard(record.lsn)
                if self.contains(cid, record.lsn):
                    continue
            self._insert(record)
            total += record.encoded_size()
        return total

    def durable(self, cid, records):
        lsns = {record.lsn for record in records}
        return all(e.seq <= self.durable_seq for e in self.writes[cid]
                   if e.record.lsn in lsns)

    def write_records(self, cid, after, upto, include_skipped):
        out = [e.record for e in self.writes[cid]
               if e.record.lsn > after
               and (upto is None or e.record.lsn <= upto)
               and (include_skipped
                    or e.record.lsn not in self.skipped[cid])]
        out.sort(key=lambda rec: rec.lsn)
        return out

    def gc_through(self, cid, upto):
        self.writes[cid] = [e for e in self.writes[cid]
                            if e.record.lsn > upto]
        self.skipped[cid] = {lsn for lsn in self.skipped[cid] if lsn > upto}
        self.min_retained[cid] = max(self.min_retained[cid], upto)

    def crash(self):
        """Survivors: physical sequence number <= the last completed
        force's."""
        for cid in _COHORTS:
            self.writes[cid] = [e for e in self.writes[cid]
                                if e.seq <= self.durable_seq]
        self.markers = [e for e in self.markers
                        if e.seq <= self.durable_seq]


def _same_outcome(ref, ref_call, real_call):
    """Run both; they must raise the same exception type or neither.
    The real call's force event, if any, is the reference's too."""
    raised = []
    for call in (ref_call, real_call):
        try:
            force = call()
            raised.append(None)
        except (DuplicateLSN, StaleLSN, TypeError) as exc:
            raised.append(type(exc))
    assert raised[0] is raised[1], raised
    if raised[1] is None:
        ref.on_force(force)


class WalEquivalence(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.device = LogDevice(
            self.sim, RngRegistry(9), "log",
            profile=DiskProfile("flat", 1e-3, 1e-3, transfer_rate=0))
        self.log = SharedLog(self.device)
        self.ref = _RefLog()
        #: per propose taken: its cohort, records and whether it is acked
        self.proposes = []

    @rule(cid=st.sampled_from(_COHORTS), lsn=st.sampled_from(_GRID))
    def append(self, cid, lsn):
        record = _grid_record(cid, lsn)
        _same_outcome(self.ref,
                      lambda: self.ref.append(record),
                      lambda: self.log.append(record))

    def _top(self, cid):
        """The view's tail LSN — its GC horizon when it holds nothing."""
        return max((e.record.lsn for e in self.ref.writes[cid]),
                   default=self.ref.min_retained[cid])

    def _above(self, cid, n):
        """The first ``n`` grid LSNs above the view's tail, ascending."""
        top = self._top(cid)
        return [lsn for lsn in _GRID if lsn > top][:n]

    @rule(cid=st.sampled_from(_COHORTS), prev=st.sampled_from(_PREVS),
          lsns=st.lists(st.sampled_from(_GRID), min_size=1, max_size=4),
          held=st.sampled_from(_PREVS))
    def log_propose(self, cid, prev, lsns, held):
        """``append_after`` takes or refuses a propose as the prefix rule
        says and appends the same records; a propose it takes is acked
        once its one force completes."""
        self._log_propose(cid, prev, sorted(set(lsns)), held)

    # Proposes shaped to reach each exit of the steady-state path (the
    # log ends at ``prev``, which is not skipped, and the propose ascends
    # above it) and of the general one.

    @rule(cid=st.sampled_from(_COHORTS), n=st.integers(1, 4))
    def propose_on_the_tail(self, cid, n):
        self._log_propose(cid, self._top(cid), self._above(cid, n))

    @rule(cid=st.sampled_from(_COHORTS), n=st.integers(2, 4))
    def propose_descending_above_the_tail(self, cid, n):
        self._log_propose(cid, self._top(cid), self._above(cid, n)[::-1])

    @rule(cid=st.sampled_from(_COHORTS), n=st.integers(1, 3),
          pick=st.integers(0, len(_GRID)))
    def propose_straddling_the_tail(self, cid, n, pick):
        """A re-proposal from below the tail: the log holds its head."""
        held = [e.record.lsn for e in self.ref.writes[cid]]
        if held:
            at = pick % len(held)
            prev = held[at - 1] if at else self.ref.min_retained[cid]
            self._log_propose(cid, prev, sorted(held)[at:at + 1]
                              + self._above(cid, n))

    @rule(cid=st.sampled_from(_COHORTS), upto=st.sampled_from(_GRID),
          lsns=st.sets(st.sampled_from(_GRID), min_size=1, max_size=4),
          prev=st.sampled_from(_PREVS))
    def propose_into_a_view_gc_emptied(self, cid, upto, lsns, prev):
        self.gc_through(cid, max(upto, self._top(cid)))
        assert self.log.min_retained_lsn(cid) > LSN.zero()
        assert self.log.write_records(cid, include_skipped=True) == []
        self._log_propose(cid, prev, sorted(lsns))

    @rule(cid=st.sampled_from(_COHORTS), skip=st.sampled_from(_GRID),
          n=st.integers(1, 3))
    def propose_while_an_lsn_is_skipped(self, cid, skip, n):
        self.add_skipped(cid, {skip})
        self._log_propose(cid, self._top(cid), self._above(cid, n))

    @rule(cid=st.sampled_from(_COHORTS), n=st.integers(1, 3),
          pick=st.integers(0, 2), propose=st.booleans())
    def batch_repeating_an_lsn(self, cid, n, pick, propose):
        """As a batch the repeat raises ``DuplicateLSN`` after the
        records before it were appended: the log keeps them, as the
        reference does.  As a propose it is refused whole."""
        lsns = self._above(cid, n)
        if not lsns:
            return
        lsns.append(lsns[pick % len(lsns)])
        if propose:
            self._log_propose(cid, self._top(cid), lsns)
        else:
            self.append_batch([(cid, lsn) for lsn in lsns], None)

    def _log_propose(self, cid, prev, lsns, held=LSN.zero()):
        records = [_grid_record(cid, lsn) for lsn in lsns]
        nbytes = self.ref.append_after(cid, prev, records, held)
        assert self.log.append_after(cid, prev, records, held) == nbytes
        if nbytes is None:
            return
        assert self.log.durable(cid, records) == self.ref.durable(cid,
                                                                  records)
        acked = [False]
        force = Event(self.sim)
        self.ref.on_force(force)
        self.log.force(nbytes, force.succeed)
        force.add_callback(lambda _ev: acked.__setitem__(0, True))
        self.proposes.append((cid, records, acked))

    @rule(items=st.lists(st.tuples(st.sampled_from(_COHORTS),
                                   st.sampled_from(_GRID)),
                         min_size=1, max_size=5),
          marker_at=st.one_of(st.none(), st.integers(0, 4)))
    def append_batch(self, items, marker_at):
        batch = [_grid_record(cid, lsn) for cid, lsn in items]
        if marker_at is not None and marker_at < len(batch):
            batch[marker_at] = CommitMarker(lsn=LSN(1, 1), cohort_id=0,
                                            committed_lsn=LSN(1, 1))
        _same_outcome(self.ref,
                      lambda: self.ref.append_batch(batch),
                      lambda: self.log.append_batch(batch))

    @rule(cid=st.sampled_from(_COHORTS), lsn=st.sampled_from(_GRID))
    def append_commit_marker(self, cid, lsn):
        """Non-forced: durable once a later force completes."""
        marker = CommitMarker(lsn=lsn, cohort_id=cid, committed_lsn=lsn)
        self.ref.append_marker(marker)
        assert self.log.append(marker, force=False) is None

    @rule(cid=st.sampled_from(_COHORTS),
          lsns=st.sets(st.sampled_from(_GRID), max_size=4))
    def add_skipped(self, cid, lsns):
        self.ref.skipped[cid].update(lsns)
        self.log.add_skipped(cid, lsns)

    @rule(cid=st.sampled_from(_COHORTS), upto=st.sampled_from(_GRID))
    def gc_through(self, cid, upto):
        self.ref.gc_through(cid, upto)
        self.log.gc_through(cid, upto)

    @rule()
    def forces_complete(self):
        self.sim.run()

    @rule()
    def one_device_operation_completes(self):
        """The group in flight, not the forces queued behind it."""
        self.sim.run(until=self.sim.now + 1e-3)

    @rule()
    def crash(self):
        self.device.crash()
        self.ref.crash()
        self.log.crash()
        self.device.restart()

    @invariant()
    def answers_match_the_reference(self):
        log, ref = self.log, self.ref
        assert log.bytes_appended == ref.bytes_appended
        assert log._seq == ref.seq
        for cid in _COHORTS:
            view = log._view(cid)
            held = [record.lsn for record in view.writes]
            assert held == sorted(set(held)), "view not strictly ascending"
            # the same records (crash survivors included), each under
            # the physical sequence number the reference gave it
            assert len(view.seqs) == len(held)
            assert dict(zip(held, view.seqs)) == {e.record.lsn: e.seq
                                                  for e in ref.writes[cid]}
            assert log.last_lsn(cid) == ref.last_lsn(cid)
            assert log.last_committed_lsn(cid) == ref.last_committed_lsn(cid)
            for lsn in _GRID:
                assert log.contains(cid, lsn) == ref.contains(cid, lsn)
                assert log.record_at(cid, lsn) is ref.record_at(cid, lsn)
            for after in _BOUNDS:
                for upto in [None] + _BOUNDS:
                    for include_skipped in (False, True):
                        assert log.write_records(
                            cid, after, upto, include_skipped
                        ) == ref.write_records(
                            cid, after, upto, include_skipped)
            assert log.skipped_lsns(cid) == ref.skipped[cid]

    @invariant()
    def a_propose_is_acked_once_all_of_it_is_durable(self):
        """The cumulative ack names only records a crash now keeps."""
        for cid, records, acked in self.proposes:
            if acked[0]:
                assert self.ref.durable(cid, records)


WalEquivalence.TestCase.settings = settings(max_examples=60,
                                            stateful_step_count=30,
                                            deadline=None)
test_wal_fast_queries_equal_the_loop_versions = WalEquivalence.TestCase
