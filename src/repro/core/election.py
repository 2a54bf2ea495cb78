"""Leader election via the coordination service (§7, Fig. 7).

Per cohort, election state lives in the children of ``/cohorts/<r>``:

* ``epoch`` — persistent counter, bumped by each winner before it
  accepts writes, so new LSNs exceed anything previously used
  (Appendix B); a missing ``epoch`` reads as 0;
* ``leader`` — ephemeral znode naming the leader (its deletion, via
  session expiry, is the failure signal that triggers re-election);
* ``c-<epoch>-<n.lst>-<node>-<seq>`` — the announcements: sequential
  ephemeral znodes whose *name* carries the round's epoch, the
  candidate's last LSN (n.lst) and its node.

A round reads ``epoch``, checks that no ``leader`` exists, announces,
and reads the cohort's children (with a watch) until :func:`tally`
names a winner: each member counts once, by its latest announcement of
the round's epoch; the max n.lst wins and placement order breaks ties.
The winner claims ``leader`` (an ephemeral create — the loser of a
create race follows), bumps ``epoch`` by a compare-and-set from the
version its round read, and runs leader takeover (Fig. 6); everyone
else follows ``leader`` once it appears.  Why that winner holds every
committed write (§7.2): PROTOCOL.md, *Leader election*.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..sim.events import Event
from ..sim.process import timeout
from ..storage.lsn import LSN
from ..coord.znode import (BadVersionError, CoordError, NoNodeError,
                           NodeExistsError)
from .config import ELECTION_RETRY
from .partition import preference_order
from .recovery import leader_takeover
from .replication import Role

__all__ = ["run_election", "leader_monitor", "cohort_zk_path", "tally"]


def cohort_zk_path(cohort_id: int) -> str:
    return f"/cohorts/{cohort_id}"


def tally(children: Sequence[str], epoch: int, members: Sequence[str],
          majority: int) -> Optional[str]:
    """The round's winner, or None while fewer than ``majority`` members
    have announced in ``epoch``.

    ``children`` are the cohort znode's children; ``members`` is the
    cohort in placement-preference order.  Each member counts once, by
    its latest announcement of ``epoch`` (the highest sequence number: a
    restarted node's new incarnation, or a later round of the same
    epoch, supersedes the older znode); an announcement of another epoch,
    or of a node that is not a member, counts for nothing.  The max
    n.lst wins, and of equal n.lsts the member earliest in ``members``:
    a re-announcement that keeps its n.lst cannot move the winner.
    """
    latest: Dict[str, Tuple[int, LSN]] = {}
    for name in children:
        if not name.startswith("c-"):
            continue                        # ``epoch``, ``leader``
        _, their_epoch, n_lst, rest = name.split("-", 3)
        member, seq = rest.rsplit("-", 1)
        if int(their_epoch) != epoch or member not in members:
            continue
        if member not in latest or int(seq) > latest[member][0]:
            latest[member] = (int(seq), LSN(*map(int, n_lst.split("."))))
    if len(latest) < majority:
        return None
    return max(latest, key=lambda m: (latest[m][1], -members.index(m)))


def run_election(replica):
    """One election round; ``yield from`` me.

    Returns False when this replica may not stand (the caller backs
    off), else True once the round is over — won, a ``leader`` appeared,
    or the named winner did not claim in time — and the caller reads
    ``leader`` again.
    """
    node = replica.node
    zk, sim = node.zk, node.sim
    root = cohort_zk_path(replica.cohort_id)
    if node.name not in replica.cohort.members:
        # A prepared joiner (replace move, pre-switch) is a learner, not
        # a voter: its near-empty log must never count toward the
        # majority whose max-n.lst rule guarantees a committed-data
        # holder wins (§7.2).  It follows whatever leader emerges.
        return False
    if node.replicas.get(replica.cohort_id) is not replica:
        return False    # retired (or replaced) while the monitor slept
    if replica.role == Role.FOLLOWER:
        replica.role = Role.CANDIDATE
    # Lines 1-4: read the epoch, then check that no term has begun —
    # an announcement made while a leader serves could carry an n.lst
    # that the leader's writes overtake.
    epoch, version = yield from _read_epoch(zk, root)
    try:
        if "leader" in (yield from zk.get_children(root)):
            return True
    except NoNodeError:
        pass            # the cohort's first round
    order = preference_order(replica.cohort.members, node.network.topology)
    if epoch == 0:
        # A cohort that never had a leader: stagger by placement order,
        # so that the first majority to announce — every n.lst tied —
        # holds the base-range owner (Fig. 2), one leader per node.  On
        # a placed topology with a preferred (client-majority)
        # datacenter, preference_order puts that DC's replicas first.
        yield timeout(sim, 0.04 * order.index(node.name))
    n_lst = node.n_lst(replica.cohort_id)
    announce = f"{root}/c-{epoch}-{n_lst}-{node.name}-"
    try:
        yield from zk.create(announce, ephemeral=True, sequential=True)
    except NoNodeError:
        yield from zk.ensure_path(root)
        yield from zk.create(announce, ephemeral=True, sequential=True)
    node.trace("election", "candidate announced",
               cohort=replica.cohort_id, epoch=epoch, n_lst=str(n_lst))
    # Lines 5-6 and 11: read the round until a majority has announced
    # and the winner claims ``leader`` — a bounded wait once a winner
    # is named, since it may die first.
    deadline = None
    while True:
        changed = Event(sim)

        def _wake(_ev, target=changed):
            if not target.triggered:
                target.succeed()

        kids = yield from zk.get_children(root, watcher=_wake)
        if "leader" in kids:
            return True
        winner = tally(kids, epoch, order, node.config.majority)
        if winner == node.name:
            break
        if winner is not None:
            if deadline is None:
                deadline = sim.now + ELECTION_RETRY
            elif sim.now >= deadline:
                return True
            timeout(sim, deadline - sim.now).add_callback(_wake)
        yield changed
    # Lines 7-9: claim leadership, bump the epoch from the version this
    # round read, take over.
    try:
        yield from zk.create(f"{root}/leader", data=node.name.encode(),
                             ephemeral=True)
    except NodeExistsError:
        return True
    if not (yield from _set_epoch(replica, zk, root, epoch, version)):
        # The epoch moved since this round read it: a term began in
        # between, whose writes the round's announcements may predate.
        yield from zk.delete(f"{root}/leader")
        return True
    replica.set_leader(node.name)
    node.trace("election", "won election",
               cohort=replica.cohort_id, epoch=replica.epoch)
    yield from leader_takeover(replica)
    return True


def _read_epoch(zk, root: str):
    """``(epoch, version)`` of the cohort's epoch; ``(0, None)`` while
    the znode does not exist."""
    try:
        data, version = yield from zk.get(f"{root}/epoch")
    except NoNodeError:
        return 0, None
    return int(data), version


def _set_epoch(replica, zk, root: str, epoch: int,
               version: Optional[int]):
    """Compare-and-set the cohort's epoch from what a read returned
    (App. B); returns False if the znode moved since that read.

    The new epoch must exceed both the stored value and any epoch this
    node has locally witnessed (in its log, or via messages) — a restart
    can know a higher epoch than a coordination service that lost its
    ``epoch`` znode would otherwise hand out.
    """
    new_epoch = max(epoch, replica.epoch) + 1
    path, data = f"{root}/epoch", str(new_epoch).encode()
    cas = (zk.create(path, data) if version is None
           else zk.set_data(path, data, version=version))
    try:
        yield from cas
    except (BadVersionError, NodeExistsError):
        return False
    # Merge, don't assign: the CAS yielded, and a message handler may
    # have adopted an even higher epoch in the meantime.
    replica.epoch = max(replica.epoch, new_epoch)
    return True


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
    while True:     # bump the epoch, re-reading until the CAS lands
        epoch, version = yield from _read_epoch(zk, root)
        if (yield from _set_epoch(replica, zk, root, epoch, version)):
            break
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
                if not (yield from run_election(replica)):
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
