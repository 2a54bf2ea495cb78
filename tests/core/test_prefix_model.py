"""A bounded model check of the prefix rule (PROTOCOL.md, *The prefix rule*).

Three replicas of one cohort run the real ``CohortReplica`` handlers —
the leader's ``_replicate`` / ``propose`` / ``_on_ack`` /
``broadcast_commit``, a follower's ``handle_propose`` / ``handle_commit``,
catch-up's ``build_catchup_chunk`` and the node's chunk handler, local
recovery — on device-less logs, so every step runs to its end at once.
The network is a FIFO channel per ordered pair; the model, not a clock,
picks what happens next.  From a cohort whose first leader has just
opened, it enumerates every interleaving of:

* a client write at the first leader (``MAX_LSNS`` records in all);
* delivering the head of any channel — a propose (its ack goes back at
  once, unless the leader crashed since: a stale reply) or a commit —
  or losing it (``MAX_DROPS`` in all);
* a crash of the leader: it restarts at once, ``RECOVERING``, its log
  intact (a device-less log has no volatile tail);
* once what it had in flight has landed or been lost (an election takes
  a session timeout), an election (``MAX_ELECTIONS``): any replica whose
  n.lst is at least a voter's wins a new epoch (§7, App. B), and its
  takeover's catch-up pushes land at one peer or both; its re-proposal
  rounds and its opening follow as their commits allow;
* the open leader's catch-up push to a ``RECOVERING`` peer — one atomic
  final page, pending tail included.

Commit points ride on proposes (``piggyback_commits``) besides the
commit a takeover broadcasts as it opens; a channel holds at most
``IN_FLIGHT`` messages.  States are merged by a fingerprint of
everything a later step reads, under both namings of the two replicas
that start as followers.  In every state it asserts:

* every record a leader committed is in the log of every leader since
  (the election's premise, §7);
* no replica applied a record no leader committed;
* an ack names an LSN only when its sender's log holds the leader's
  whole stream up to it (the premise of ``CommitQueue.add_ack_upto``).

Before a follower logged a propose only on top of its ``prev``, the
third failed five steps in: a follower lost 1.1's propose and acked
1.2.  With it waived, the first failed on the shape of ``chaos --dcs 3
--nodes 5 --seed 9``: that follower tied the restarted leader on n.lst
and won without 1.1.

Three shapes lie past this scope — a third epoch, a leader losing an
unforced tail as it crashes, a push of more than one page — and are
replayed as single histories: a commit from an epoch newer than the
follower's last accepted propose, a re-proposal shorter than the
follower's log (neither may let it commit its log through n.lst), and a
catch-up page that ships a record below the follower's stale tail.
"""

import copyreg
import io
import pickle
import sys
from dataclasses import fields, replace
from functools import partial

from repro.core.config import SpinnakerConfig
from repro.core.messages import CatchupRequest, Commit
from repro.core.node import SpinnakerNode
from repro.core.partition import Cohort, KeyRange
from repro.core.recovery import build_catchup_chunk, local_recovery
from repro.core.replication import CohortReplica, Role
from repro.storage.engine import StorageEngine
from repro.storage.lsn import LSN
from repro.storage.records import WriteRecord
from repro.storage.wal import SharedLog
from repro.values import _frozen_setattr

COHORT = 0
NAMES = ("a", "b", "c")
#: the scope: records written (all by the first leader), elections
#: after the first leader's (epochs: one more), messages in flight per
#: channel, messages lost
MAX_LSNS = 4
MAX_ELECTIONS = 1
IN_FLIGHT = 1
MAX_DROPS = 1


def _noop(*_args, **_kwargs):
    pass


class _Engine(StorageEngine):
    """Remembers each record it applied and whether a leader applied it."""

    def __init__(self, cohort_id):
        super().__init__(cohort_id)
        self.owner = None
        self.applied = []

    def apply(self, record):
        self.applied.append((record.lsn, self.owner.role == Role.LEADER))
        super().apply(record)


class _Endpoint:
    """Proposes and commits wait in a FIFO channel per peer."""

    def __init__(self, world, name):
        self.world, self.name = world, name

    def request(self, peer, payload, size=0, then=None, timeout=None):
        node = self.world.replicas[self.name].node
        self.world.channels[(self.name, peer)].append(
            (payload, node.incarnation))

    send = request


class _Node:
    """What the replica's handlers use of their node: steps run at once
    (a CPU slice is over when charged, a force when issued)."""

    def __init__(self, world, name):
        self.name = name
        self.config = SpinnakerConfig(propose_batching=False,
                                      piggyback_commits=True)
        self.wal = SharedLog()
        self.sim = self.wal._sim
        self.endpoint = _Endpoint(world, name)
        self.incarnation = 0
        self.alive = True
        self.request_tracer = None
        self.catchup_served = []

    def make_engine(self, cohort_id):
        return _Engine(cohort_id)

    def guarded(self, then, *args):
        return partial(then, *args)

    def charge(self, cpu_time, step, *args):
        step(*args)

    def spawn(self, gen, name="", *args):
        gen.close()         # a resync's asker: the model pushes instead

    charge_background = maybe_flush = trace = on_membership_commit = _noop


class _Request:
    """A delivered propose; its ack reaches the leader at once, unless
    the leader crashed since it sent the propose (a stale reply)."""

    def __init__(self, world, src, dst, payload, incarnation):
        self.world, self.src, self.dst = world, src, dst
        self.payload, self.incarnation = payload, incarnation

    def respond(self, value, size=0):
        self.world.check_ack(self.dst, self.src, value)
        leader = self.world.replicas[self.src]
        if leader.node.incarnation == self.incarnation:
            leader._on_ack(value)


class World:
    def __init__(self):
        cohort = Cohort(COHORT, KeyRange(0, 1 << 64), NAMES)
        self.replicas = {}
        for name in NAMES:
            replica = CohortReplica(_Node(self, name), cohort)
            replica.engine.owner = replica
            self.replicas[name] = replica
        self.channels = {(s, d): [] for s in NAMES for d in NAMES
                         if s != d}
        self.lsns = self.elections = self.crashes = self.drops = 0
        self.epoch = 0
        self.violations = []
        self.elect("a", "b", ("b", "c"))
        self._takeover()
        self.elections = 0

    def check_ack(self, sender, leader, ack):
        """The ack premise: the sender holds the leader's stream up to
        the acked LSN."""
        mine = set(self._log(sender))
        missing = [lsn for lsn in self._log(leader)
                   if lsn <= ack.lsn and lsn not in mine]
        if missing:
            self.violations.append(
                f"{sender} acked {ack.lsn} without {missing}")

    # -- actors --------------------------------------------------------
    def leader(self):
        for name, replica in self.replicas.items():
            if replica.role == Role.LEADER:
                return name
        return None

    def _log(self, name):
        wal = self.replicas[name].node.wal
        return [r.lsn for r in wal.write_records(COHORT)]

    def _n_lst(self, name):
        return self.replicas[name].node.wal.last_lsn(COHORT)

    def write(self):
        leader = self.replicas[self.leader()]
        self.lsns += 1
        record = WriteRecord(lsn=leader.alloc_lsn(), cohort_id=COHORT,
                             key=b"k%d" % self.lsns, colname=b"c",
                             value=b"v", version=1)
        leader._replicate([record], _noop)

    def commit(self):
        self.replicas[self.leader()].broadcast_commit()

    def deliver(self, channel):
        payload, incarnation = self.channels[channel].pop(0)
        src, dst = channel
        if isinstance(payload, Commit):
            self.replicas[dst].handle_commit(src, payload)
        else:
            self.replicas[dst].handle_propose(
                _Request(self, src, dst, payload, incarnation))

    def drop(self, channel):
        self.drops += 1
        self.channels[channel].pop(0)

    def crash(self, name):
        """A crash and at once a restart: volatile state gone, proposes
        in flight to it lost, local recovery replayed."""
        replica = self.replicas[name]
        node = replica.node
        self.crashes += 1
        replica.crash()
        node.wal.crash()
        for (src, dst), queue in self.channels.items():
            if dst == name:
                queue.clear()
        node.incarnation += 1
        replica.prepare_restart()
        for _ in local_recovery(replica):
            pass

    def elect(self, winner, voter, reached):
        """§7: the max n.lst among a majority wins (the model offers
        every winner at or above a voter); the epoch is bumped past
        every one seen (App. B); leader_takeover's pushes land at the
        peers ``reached`` (a quorum: one at least) and are lost on the
        way to the others."""
        self.elections += 1
        self.epoch = max(self.epoch, *(r.epoch for r in
                                       self.replicas.values())) + 1
        for replica in self.replicas.values():
            if replica.role == Role.FOLLOWER:
                replica.role = Role.CANDIDATE
        for name, replica in self.replicas.items():
            if name != winner:
                replica.set_leader(winner)
        replica = self.replicas[winner]
        replica.epoch = self.epoch
        replica.role = Role.LEADER
        replica.leader = winner
        replica.open_for_writes = False
        self.l_cmt = replica.committed_lsn
        self.l_lst = replica.node.wal.last_lsn(COHORT)
        replica.proposed_top = self.l_cmt
        self.pushed = frozenset()
        self.round = None
        for peer in reached:
            self.push(peer)

    def push(self, peer):
        """push_catchup, its pages landing at once: the peer's committed
        state, the truncation of what the leader's log does not hold,
        and the pending tail proposed on top of the last page's commit
        point.  Under the default page budget that is one final page."""
        name = self.leader()
        leader = self.replicas[name]
        target = self.replicas[peer]
        if leader.epoch >= target.epoch:
            target.epoch = leader.epoch          # TakeoverState
        chunk = None
        while chunk is None or chunk.more:
            chunk = build_catchup_chunk(leader, CatchupRequest(
                cohort_id=COHORT, follower=peer,
                follower_cmt=target.committed_lsn,
                floor=target.catchup_floor))
            chunk = replace(chunk, final=not chunk.more)
            req = _Request(self, name, peer, chunk, None)
            req.respond = _noop
            for _ in SpinnakerNode._handle_catchup_chunk(target.node, req,
                                                         target):
                pass
        pending = tuple(leader.queue) if leader.open_for_writes else ()
        self.pushed |= {peer}
        if pending:
            leader.propose(
                [record for entry in pending for record in entry.records],
                pending, chunk.committed_lsn, (peer,))

    def _takeover(self):
        """leader_takeover's line 9 — the next unresolved record once the
        last has committed — and, all committed, line 10: open."""
        name = self.leader()
        if name is None:
            return
        leader = self.replicas[name]
        if leader.open_for_writes or (
                self.round is not None and leader.committed_lsn < self.round):
            return
        todo = [r for r in leader.node.wal.write_records(
                    COHORT, after=self.l_cmt, upto=self.l_lst)
                if self.round is None or r.lsn > self.round]
        if todo:
            self.round = todo[0].lsn
            leader._replicate([todo[0]], _noop, already_logged=True)
        else:
            leader.next_seq = max(leader.next_seq, self.l_lst.seq + 1)
            leader.open_for_writes = True
            leader.broadcast_commit()

    # -- the model -----------------------------------------------------
    def actions(self):
        leader = self.leader()
        if leader is not None:
            replica = self.replicas[leader]
            peers = [n for n in NAMES if n != leader]
            room = [peer for peer in peers
                    if len(self.channels[(leader, peer)]) < IN_FLIGHT]
            if replica.open_for_writes:
                if (self.lsns < MAX_LSNS and len(room) == 2
                        and not self.elections):
                    yield ("write",)
            for peer in room:
                if peer not in self.pushed or (
                        replica.open_for_writes
                        and self.replicas[peer].role == Role.RECOVERING):
                    yield ("push", peer)
        elif self.elections < MAX_ELECTIONS and not any(
                self.channels.values()):
            # an election takes a session timeout: what the dead leader
            # had in flight has long landed or been lost
            for winner in NAMES:
                for voter in NAMES:
                    if voter != winner and (self._n_lst(winner)
                                            >= self._n_lst(voter)):
                        peers = [n for n in NAMES if n != winner]
                        for reached in ((peers[0],), (peers[1],),
                                        tuple(peers)):
                            yield ("elect", winner, voter, reached)
        for channel, queue in self.channels.items():
            if queue:
                yield ("deliver", channel)
                if self.drops < MAX_DROPS:
                    yield ("drop", channel)
        if leader is not None and self.crashes < MAX_ELECTIONS:
            yield ("crash", leader)

    def step(self, action):
        kind, *args = action
        getattr(self, kind)(*args)
        self._takeover()
        self.check()

    def check(self):
        committed = {lsn for r in self.replicas.values()
                     for lsn, by_leader in r.engine.applied if by_leader}
        for name in NAMES:
            replica = self.replicas[name]
            if replica.role == Role.LEADER:
                lost = committed - set(self._log(name))
                if lost:
                    self.violations.append(
                        f"leader {name} of epoch {replica.epoch} lacks "
                        f"committed {sorted(lost)}")
            stray = {lsn for lsn, _ in replica.engine.applied} - committed
            if stray:
                self.violations.append(
                    f"{name} applied uncommitted {sorted(stray)}")

    def fingerprint(self):
        """Everything a later step reads or an invariant checks, under
        both namings of the two replicas that start as followers: the
        model treats them alike, so states that differ only by swapping
        them are one state."""
        return frozenset(self._fingerprint(rename)
                         for rename in ({}, {"b": "c", "c": "b"}))

    def _fingerprint(self, rename):
        def named(name):
            return rename.get(name, name)

        parts = [self.lsns, self.elections, self.crashes, self.drops,
                 frozenset(map(named, self.pushed)), self.round,
                 frozenset(lsn for r in self.replicas.values()
                           for lsn, by_leader in r.engine.applied
                           if by_leader)]
        for name in sorted(NAMES, key=named):
            r = self.replicas[name]
            wal = r.node.wal
            parts.append((
                r.role, r.epoch, getattr(r, "accepted_epoch", None),
                named(r.leader), r.open_for_writes, r.committed_lsn,
                r._last_commit_broadcast, r.next_seq,
                getattr(r, "proposed_top", None),
                tuple((rec.lsn, wal.is_skipped(COHORT, rec.lsn))
                      for rec in wal.write_records(
                          COHORT, include_skipped=True)),
                tuple((tuple(rec.lsn for rec in e.records), e.forced,
                       frozenset(map(named, e.acks))) for e in r.queue)))
        for src, dst in sorted(self.channels,
                               key=lambda ch: (named(ch[0]), named(ch[1]))):
            incarnation_now = self.replicas[src].node.incarnation
            parts.append(tuple(
                (payload.epoch, payload.lsn) if isinstance(payload, Commit)
                else (payload.epoch, getattr(payload, "prev", None),
                      tuple(r.lsn for r in payload.records),
                      incarnation == incarnation_now)
                for payload, incarnation in self.channels[(src, dst)]))
        return tuple(parts)


def _rebuild(obj):
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj)
                            if f.init)


#: value types refuse attribute stores, which is how pickle restores a
#: slotted object: rebuild them through their constructor instead
_DISPATCH = copyreg.dispatch_table.copy()
_DISPATCH.update(
    (cls, _rebuild) for module in list(sys.modules.values())
    if getattr(module, "__name__", "").startswith("repro.")
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__setattr__ is _frozen_setattr)


def _dumps(world):
    out = io.BytesIO()
    pickler = pickle.Pickler(out, pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = _DISPATCH
    pickler.dump(world)
    return out.getvalue()


def explore(world, limit=None):
    """Depth-first over every reachable state; returns (states, the
    first violating trace or None, its violations)."""
    seen = {world.fingerprint()}
    stack = [(_dumps(world), list(world.actions()), ())]
    while stack:
        blob, actions, trace = stack.pop()
        for i, action in enumerate(actions):
            child = pickle.loads(blob)
            child.step(action)
            if child.violations:
                return len(seen), trace + (action,), child.violations
            key = child.fingerprint()
            if key not in seen:
                seen.add(key)
                stack.append((_dumps(child), list(child.actions()),
                              trace + (action,)))
            if limit is not None and len(seen) > limit:
                return len(seen), None, None
    return len(seen), None, None


def test_every_reachable_state_keeps_the_prefix_invariants():
    states, trace, violations = explore(World())
    assert trace is None, (trace, violations)
    assert states > 2000         # the enumeration did explore


def replay(world, *actions):
    for action in actions:
        world.step(action)
    return world


AB, AC, BA, BC = ("a", "b"), ("a", "c"), ("b", "a"), ("b", "c")


def test_a_follower_that_lost_a_propose_cannot_win_the_election():
    """The seed-9 shape: b loses 1.1's propose; 1.1 commits on a and c;
    a crashes.  b refused 1.2 (its ``prev`` is the lost 1.1): its log is
    empty, below every other n.lst, and it cannot win."""
    world = replay(World(), ("write",), ("drop", AB), ("deliver", AC),
                   ("write",), ("deliver", AB), ("crash", "a"),
                   ("deliver", AC))
    b = world.replicas["b"]
    assert b.role == Role.RECOVERING and b.resyncs == 1
    assert world._log("b") == [] and world._log("c") == [LSN(1, 1),
                                                          LSN(1, 2)]
    elections = [a for a in world.actions() if a[0] == "elect"]
    assert elections and all(a[1] != "b" for a in elections)
    assert world.violations == []


def test_a_commit_from_an_epoch_it_never_followed_is_not_applied():
    """Three epochs.  b leads epoch 2 after a; it logs 2.2 and crashes
    before the force lands, but c had logged 2.2.  a wins epoch 3 with
    b's vote (both end at 1.1); its push to c is lost, so c follows it
    with epoch 2's stream in its log.  a commits 3.2 on b and broadcasts
    it; the propose of 3.2 to c is lost.  Committing its log through
    min(3.2, n.lst) would apply 2.2, which no leader committed: c, whose
    last accepted propose is epoch 2's, resyncs instead."""
    world = replay(World(), ("write",), ("deliver", AB), ("deliver", AC),
                   ("crash", "a"), ("elect", "b", "c", ("c",)),
                   ("deliver", BC), ("deliver", BA), ("deliver", BA),
                   ("deliver", BC), ("push", "a"), ("write",))
    b_wal = world.replicas["b"].node.wal
    view = b_wal._view(COHORT)
    b_wal._durable_seq = view.seqs[view.find(LSN(2, 2))] - 1
    replay(world, ("crash", "b"), ("deliver", BC), ("drop", BA),
           ("elect", "a", "b", ("b",)), ("write",), ("deliver", AB),
           ("deliver", AB), ("commit",))
    c = world.replicas["c"]
    assert world._log("c") == [LSN(1, 1), LSN(2, 2)]
    assert (c.role, c.epoch, c.committed_lsn) == (Role.FOLLOWER, 2,
                                                  LSN(1, 1))
    assert world.replicas["a"].committed_lsn == LSN(3, 2)
    assert world.violations == []
    blob = _dumps(world)

    replay(world, ("deliver", AC), ("drop", AC), ("deliver", AC))
    assert c.role == Role.RECOVERING and c.resyncs == 1
    assert world.violations == []

    # Were it to take epoch 3's commits as its own stream's:
    world = pickle.loads(blob)
    world.replicas["c"].accepted_epoch = 3
    replay(world, ("deliver", AC), ("drop", AC), ("deliver", AC))
    assert world.violations == ["c applied uncommitted [LSN(epoch=2, seq=2)]"]


def _lose_unforced(world, name, lsn):
    """Make ``name``'s force of ``lsn`` not have landed: its next crash
    loses the record (a device-less log has no volatile tail)."""
    wal = world.replicas[name].node.wal
    view = wal._view(COHORT)
    wal._durable_seq = view.seqs[view.find(lsn)] - 1


def test_a_short_re_proposal_does_not_adopt_the_new_leader_s_stream():
    """a writes 1.1-1.3; c holds all three, b the first two, and a loses
    1.3 as it crashes.  b wins epoch 2 (a's vote) and re-proposes 1.2 on
    top of 1.1; c's log agrees up to where the propose ends, 1.3 lies
    past it.  b commits 2.3 on a and broadcasts it.  Had the short
    re-proposal made c take epoch 2's commits as its own stream's, c
    would commit its log through min(2.3, n.lst) and apply 1.3, which
    no leader committed: it resyncs instead."""
    world = replay(World(), ("write",), ("deliver", AB), ("deliver", AC),
                   ("write",), ("deliver", AB), ("deliver", AC),
                   ("write",))
    _lose_unforced(world, "a", LSN(1, 3))
    replay(world, ("crash", "a"), ("deliver", AC), ("drop", AB),
           ("elect", "b", "a", ("a",)), ("deliver", BA), ("deliver", BC),
           ("drop", BC), ("write",), ("drop", BC), ("deliver", BA),
           ("deliver", BA), ("commit",))
    c = world.replicas["c"]
    assert world._log("c") == [LSN(1, 1), LSN(1, 2), LSN(1, 3)]
    assert (c.role, c.epoch) == (Role.FOLLOWER, 2)
    assert world.replicas["b"].committed_lsn == LSN(2, 3)
    replay(world, ("deliver", BC))
    assert world.violations == []
    assert c.role == Role.RECOVERING and c.resyncs == 1
    assert c.committed_lsn == LSN(1, 2)


def test_a_catch_up_page_below_a_stale_tail_cuts_the_tail():
    """Three epochs.  a writes 1.1-1.3; b and c log only 1.1.  b leads
    epoch 2 and c logs its 2.2, which b loses as it crashes.  a wins
    epoch 3 with b's vote and commits 1.2 and 1.3 by re-proposal while
    its proposes to c are lost; c resyncs.  The push pages one record
    at a time, so the first page ships 1.2 with its window ending there
    — below c's 2.2, which no page lists.  A record above a committed
    one c lacks is on a stream without it, never committed: c skip-lists
    2.2 and logs 1.2 at its tail (an append below it was refused)."""
    world = replay(World(), ("write",), ("deliver", AB), ("deliver", AC),
                   ("write",), ("drop", AB), ("drop", AC),
                   ("write",), ("drop", AB), ("drop", AC), ("crash", "a"),
                   ("elect", "b", "c", ("c",)), ("deliver", BA),
                   ("deliver", BC), ("deliver", BC), ("write",))
    assert world._log("c") == [LSN(1, 1)]
    _lose_unforced(world, "b", LSN(2, 2))
    replay(world, ("crash", "b"), ("deliver", BC))
    assert world._log("c") == [LSN(1, 1), LSN(2, 2)]
    a = world.replicas["a"]
    a.node.config = replace(a.node.config, catchup_chunk_bytes=1)
    replay(world, ("elect", "a", "b", ("b",)))
    while world.channels[AB] or world.channels[AC]:
        if world.channels[AC]:
            propose = not isinstance(world.channels[AC][0][0], Commit)
            world.step(("drop" if propose else "deliver", AC))
        else:
            world.step(("deliver", AB))
    assert a.open_for_writes and a.committed_lsn == LSN(1, 3)
    c = world.replicas["c"]
    assert c.role == Role.RECOVERING
    chunks = c.catchup_chunks_ingested
    replay(world, ("push", "c"))
    assert c.catchup_chunks_ingested == chunks + 2   # a page per record
    assert c.role == Role.FOLLOWER and c.committed_lsn == LSN(1, 3)
    assert world._log("c") == [LSN(1, 1), LSN(1, 2), LSN(1, 3)]
    assert c.node.wal.is_skipped(COHORT, LSN(2, 2))
    assert world.violations == []
