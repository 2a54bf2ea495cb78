"""Leader election via the coordination service (§7, Fig. 7).

Per cohort, election state lives under ``/cohorts/<r>``:

* ``candidates/`` — sequential ephemeral znodes, one per candidate, each
  holding the candidate's last LSN (n.lst);
* ``leader`` — ephemeral znode naming the leader (its deletion, via
  session expiry, is the failure signal that triggers re-election);
* ``epoch`` — persistent counter, bumped by the winner before it accepts
  writes, so new LSNs exceed anything previously used (Appendix B).

The protocol: announce yourself under ``candidates/``, wait until a
majority of the cohort appears, pick the candidate with the max n.lst
(znode sequence numbers break ties), and let the winner atomically claim
``leader`` (ephemeral create — losers of the create race just follow).
The winner then runs leader takeover (Fig. 6).

Safety argument (§7.2): a committed write is in the logs of ≥ 2 of 3
nodes; ≥ 2 nodes participate in the election; hence some participant
holds the last committed write, and the max-n.lst rule makes that node
(or one at least as current) the leader.
"""

from __future__ import annotations

from ..sim.events import Event
from ..sim.process import timeout
from ..storage.lsn import LSN
from ..coord.znode import (BadVersionError, CoordError, NoNodeError,
                           NodeExistsError)
from .config import ELECTION_RETRY
from .partition import preference_order
from .recovery import leader_takeover
from .replication import Role

__all__ = ["run_election", "leader_monitor", "cohort_zk_path"]


def cohort_zk_path(cohort_id: int) -> str:
    return f"/cohorts/{cohort_id}"


def _candidate_seq(name: str) -> int:
    return int(name.rsplit("-", 1)[1])


def run_election(replica):
    """One election round; ``yield from`` me.

    Returns the leader's name if one was determined this round (by us
    winning, or by reading ``leader``), or None if the round was
    inconclusive (caller — the leader monitor — retries).
    """
    node, cfg = replica.node, replica.node.config
    zk = node.zk
    sim = node.sim
    root = cohort_zk_path(replica.cohort_id)
    if node.name not in replica.cohort.members:
        # A prepared joiner (replace move, pre-switch) is a learner, not
        # a voter: its near-empty log must never count toward the
        # majority whose max-n.lst rule guarantees a committed-data
        # holder wins (§7.2).  It follows whatever leader emerges.
        return None
    if node.replicas.get(replica.cohort_id) is not replica:
        return None     # retired (or replaced) while the monitor slept
    if replica.electing:
        return None
    replica.electing = True
    try:
        if replica.role != Role.LEADER:
            replica.role = (Role.CANDIDATE
                            if replica.role == Role.FOLLOWER
                            else replica.role)
        yield from zk.ensure_path(f"{root}/candidates")
        # Lines 1 & 4: announce our last LSN in a sequential ephemeral
        # znode.  If our candidate znode from a previous round still
        # exists with the same n.lst we keep it — deleting and recreating
        # every round can livelock two candidates that keep invalidating
        # each other's view of /candidates mid-round.
        # First announcement in a round: stagger by placement order so
        # that when every candidate ties on n.lst (bootstrap, preloaded
        # clusters) the sequence-number tie-break resolves to the
        # base-range owner (Fig. 2), spreading leadership one cohort per
        # node.  On a placed topology with a preferred (client-majority)
        # datacenter, preference_order puts that DC's replicas first so
        # bootstrap leadership lands next to the clients.  Pure timing
        # bias — whenever logs differ the max-n.lst rule dominates.
        order = preference_order(replica.cohort.members,
                                 node.network.topology)
        position = order.index(node.name)
        if position and replica.candidate_path is None:
            yield timeout(sim, 0.04 * position)
        n_lst = node.n_lst(replica.cohort_id)
        announce = str(n_lst.to_int()).encode()
        reuse = False
        if replica.candidate_path is not None:
            try:
                data, _ = yield from zk.get(replica.candidate_path)
                if data == announce:
                    reuse = True
                else:
                    yield from zk.delete(replica.candidate_path)
            except CoordError:
                pass
        if not reuse:
            replica.candidate_path = yield from zk.create(
                f"{root}/candidates/c-", data=announce,
                ephemeral=True, sequential=True)
        node.trace("election", "candidate announced",
                   cohort=replica.cohort_id, n_lst=str(n_lst))
        my_name = replica.candidate_path.rsplit("/", 1)[1]
        # Line 5: wait for a majority of the cohort.
        majority = cfg.majority
        while True:
            changed = Event(sim)

            def _on_change(_ev, target=changed):
                if not target.triggered:
                    target.succeed()

            kids = yield from zk.get_children(f"{root}/candidates",
                                              watcher=_on_change)
            if len(kids) >= majority:
                break
            yield changed
            if not node.alive:
                return None
        # Line 6: the candidate with the max n.lst wins; znode sequence
        # numbers break ties (lowest wins — first to announce).
        candidates = []
        for kid in kids:
            try:
                data, _version = yield from zk.get(
                    f"{root}/candidates/{kid}")
            except NoNodeError:
                continue  # candidate died (or re-announced) mid-round
            candidates.append((LSN.from_int(int(data)),
                               -_candidate_seq(kid), kid))
        if len(candidates) < majority:
            # Our snapshot went stale mid-round; back off with jitter so
            # two candidates cannot invalidate each other in lockstep.
            yield timeout(sim, ELECTION_RETRY
                          * node.rng_stream.uniform(0.1, 0.5))
            return None
        candidates.sort(reverse=True)
        winner = candidates[0][2]
        if winner == my_name:
            # Lines 7-9: claim leadership and take over.
            try:
                yield from zk.create(f"{root}/leader",
                                     data=node.name.encode(),
                                     ephemeral=True)
            except NodeExistsError:
                data, _ = yield from zk.get(f"{root}/leader")
                replica.set_leader(data.decode())
                return replica.leader
            yield from _bump_epoch(replica, zk, root)
            replica.set_leader(node.name)
            node.trace("election", "won election",
                       cohort=replica.cohort_id, epoch=replica.epoch)
            yield from leader_takeover(replica)
            return node.name
        # Line 11: learn the new leader (bounded wait; monitor retries).
        try:
            data, _ = yield from zk.get(f"{root}/leader")
        except NoNodeError:
            yield timeout(sim, ELECTION_RETRY)
            try:
                data, _ = yield from zk.get(f"{root}/leader")
            except NoNodeError:
                return None  # winner may have died; run another round
        replica.set_leader(data.decode())
        node.trace("election", "following", cohort=replica.cohort_id,
                   leader=replica.leader)
        return replica.leader
    finally:
        # This process owns the flag: the re-entrancy gate at the
        # top makes it the only setter.
        # lint: allow(write-after-yield-unguarded)
        replica.electing = False


def _bump_epoch(replica, zk, root: str):
    """Increment the cohort's epoch before accepting writes (App. B).

    The new epoch must exceed both the stored value and any epoch this
    node has locally witnessed (in its log, or via messages) — a restart
    can know a higher epoch than a coordination service that lost its
    ``epoch`` znode would otherwise hand out.
    """
    while True:
        try:
            data, version = yield from zk.get(f"{root}/epoch")
        except NoNodeError:
            try:
                yield from zk.create(f"{root}/epoch", b"0")
            except NodeExistsError:
                pass
            continue
        new_epoch = max(int(data), replica.epoch) + 1
        try:
            yield from zk.set_data(f"{root}/epoch",
                                   str(new_epoch).encode(), version=version)
        except BadVersionError:
            continue  # somebody raced us; re-read
        # Merge, don't assign: the CAS yielded, and a message handler
        # may have adopted an even higher epoch in the meantime.
        replica.epoch = max(replica.epoch, new_epoch)
        return


def assume_leadership(replica):
    """Take over after being *named* leader by a graceful transfer
    (:func:`repro.core.loadbalance.transfer_leadership`).

    Re-owns the ``leader`` znode under our own session (it belonged to
    the old leader's), bumps the epoch, and runs the standard takeover —
    which is trivial here because the old leader drained its queue, but
    re-running it keeps one code path and one safety argument.
    """
    node = replica.node
    zk = node.zk
    root = cohort_zk_path(replica.cohort_id)
    try:
        yield from zk.delete(f"{root}/leader")
    except CoordError:
        pass
    try:
        yield from zk.create(f"{root}/leader", data=node.name.encode(),
                             ephemeral=True)
    except NodeExistsError:
        # A concurrent election beat us to it; follow whoever won.
        try:
            data, _ = yield from zk.get(f"{root}/leader")
            replica.set_leader(data.decode())
        except NoNodeError:
            pass
        return
    yield from _bump_epoch(replica, zk, root)
    replica.set_leader(node.name)
    yield from leader_takeover(replica)


def leader_monitor(replica):
    """Long-running per-replica process: tracks ``leader``, reacts to its
    deletion by running an election, and (on restarts) has the replica
    ask for catch-up once a leader is known.  Spawned by the node at
    (re)start."""
    node = replica.node
    sim = node.sim
    root = cohort_zk_path(replica.cohort_id)
    zk = node.zk
    while node.alive and node.zk is zk:
        if node.replicas.get(replica.cohort_id) is not replica:
            return      # replica retired (or replaced) under us
        changed = Event(sim)

        def _on_change(_ev, target=changed):
            if not target.triggered:
                target.succeed()

        try:        # one round; any CoordError retries it
            try:
                data, _ = yield from zk.get(f"{root}/leader",
                                            watcher=_on_change)
            except NoNodeError:
                # No leader: stop hinting clients at the dead one; elect.
                if replica.leader != node.name:
                    replica.leader = None
                if (yield from run_election(replica)) is None:
                    yield timeout(sim, ELECTION_RETRY)
                continue
            leader = data.decode()
            if leader != node.name:
                replica.set_leader(leader)
                if replica.role == Role.RECOVERING:
                    replica.request_catchup()
            elif replica.role != Role.LEADER or not replica.open_for_writes:
                # We were *named* leader (graceful transfer) but have not
                # assumed the role yet: re-own the znode and take over.
                yield from assume_leadership(replica)
            # Wait for the leader znode to change or vanish.
            yield changed
        except CoordError:
            yield timeout(sim, ELECTION_RETRY)
