"""Online leadership rebalancing — the §10 future-work item.

All writes (and strong reads) for a cohort hit its leader (§8.3), so
leader *placement* is Spinnaker's load-balancing lever.  After failures,
leadership drifts: the node that takes over a dead peer's cohort ends up
leading two ranges while the revived peer leads none.  This module adds:

* :func:`transfer_leadership` — a graceful, zero-loss handoff protocol:
  the leader drains its commit queue with writes momentarily blocked,
  verifies the successor holds every committed write, then names the
  successor in the cohort's ``leader`` znode.  The successor re-owns the
  znode under its own session, bumps the epoch and runs the normal
  takeover (trivial: nothing is unresolved), so the safety argument is
  exactly the election's.
* :func:`plan_rebalance` — a pure planner that proposes transfers to
  even out per-node leader counts, preferring each cohort's base-range
  owner (Fig. 2 placement).

Interrupted handoffs degrade to ordinary failure handling.  If the old
leader dies mid-transfer the leader znode disappears with its session
and a regular election picks the max-n.lst survivor.  The reverse hole
— the successor dying *after* being named but *before* re-owning the
znode (which until then still belongs to the old leader's session, so
its death deletes nothing) — is closed by a watchdog on the old leader:
if the cohort epoch has not been bumped within a session timeout of the
handoff, the old leader deletes the znode it still owns, and the
ordinary election takes over.  Committed writes are never at risk: the
drain step finished before the successor was named, so every survivor
of the quorum holds them and the max-n.lst rule finds one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..coord.znode import CoordError
from ..sim.process import timeout
from .config import ELECTION_RETRY
from .election import cohort_zk_path
from .recovery import try_push_catchup

__all__ = ["transfer_leadership", "plan_rebalance"]


def transfer_leadership(replica, successor: str):
    """Hand this cohort's leadership to ``successor``; ``yield from`` me.

    Returns True on success.  Returns False (leaving the current leader
    in place) if the replica is not an open leader, the successor is not
    a cohort peer, or the successor cannot be verified caught-up.
    """
    node, cfg = replica.node, replica.node.config
    if not replica.is_leader or not replica.open_for_writes:
        return False
    if successor not in replica.peers():
        return False
    zk = node.zk
    root = cohort_zk_path(replica.cohort_id)
    replica.block_writes()
    try:
        # 1. Drain: every accepted write must commit before we hand off.
        while len(replica.queue) > 0:
            yield timeout(node.sim, 0.002)
            if not replica.is_leader:
                return False
        # 2. Verify the successor is caught up to l.cmt; top it up if
        #    not (chunked push — same path as takeover and rebalance).
        if not (yield from try_push_catchup(replica, (successor,))):
            return False
        # The push yields for as long as the successor needs: we may
        # have been deposed meanwhile (session loss, rival election).
        # Naming a successor on a znode we no longer stand behind would
        # overwrite the *real* leader's claim — re-check before acting.
        if not replica.is_leader:
            return False
        # 3. Name the successor.  From here on we bounce writes with the
        #    new hint; the successor's monitor sees the change and runs
        #    the takeover path under a fresh epoch.
        try:
            yield from zk.set_data(f"{root}/leader", successor.encode())
        except CoordError:
            return False
        # Past the commit point: the znode names the successor, so
        # closing writes here is mandatory under every interleaving.
        # lint: allow(write-after-yield-unguarded)
        replica.open_for_writes = False
        epoch_at_handoff = replica.epoch
        replica.set_leader(successor)
        node.spawn(_handoff_watchdog(replica, successor, epoch_at_handoff),
                   f"handoff-watchdog-{replica.cohort_id}")
        node.trace("replication", "leadership transferred",
                   cohort=replica.cohort_id, to=successor)
        return True
    finally:
        replica.unblock_writes()


# The handoff-time epoch is deliberately a snapshot: any later bump
# means *someone* (successor or a fresh election) took over.
# lint: allow(stale-guard-across-yield)
def _handoff_watchdog(replica, successor: str, epoch_at_handoff: int):
    """Guard a graceful handoff against the successor dying mid-way.

    Until the successor re-owns the ``leader`` znode (bumping the epoch
    in the process), the znode still belongs to the *old* leader's
    session — so a successor crash deletes nothing and would leave the
    cohort leaderless forever.  Watch for the epoch bump; if it has not
    happened within a session timeout, delete the znode we still own so
    the ordinary election takes over.
    """
    node, cfg = replica.node, replica.node.config
    zk = node.zk
    root = cohort_zk_path(replica.cohort_id)
    deadline = node.sim.now + cfg.session_timeout
    while node.alive and node.zk is zk:
        try:
            data, _ = yield from zk.get(f"{root}/epoch")
            if int(data) > epoch_at_handoff:
                return          # successor assumed leadership; disarm
        except CoordError:
            pass
        if node.sim.now >= deadline:
            break
        yield timeout(node.sim, ELECTION_RETRY / 2)
    if not node.alive or node.zk is not zk:
        return
    try:
        data, _ = yield from zk.get(f"{root}/leader")
    except CoordError:
        return                  # already gone: an election is underway
    if data.decode() != successor:
        return                  # somebody else took over meanwhile
    node.trace("replication", "handoff watchdog: successor never "
               "assumed leadership; forcing election",
               cohort=replica.cohort_id, successor=successor)
    try:
        yield from zk.delete(f"{root}/leader")
    except CoordError:
        pass


def plan_rebalance(partitioner, leaders: Dict[int, Optional[str]],
                   max_leaders_per_node: Optional[int] = None
                   ) -> List[Tuple[int, str, str]]:
    """Plan transfers to even out leadership.

    ``leaders`` maps cohort id → current leader (None entries are
    skipped: an election is already pending there).  Returns a list of
    ``(cohort_id, from_node, to_node)`` moves.  The target ceiling
    defaults to ⌈cohorts / nodes⌉ (one, for the standard layout).
    """
    nodes = list(partitioner.nodes)
    if max_leaders_per_node is None:
        max_leaders_per_node = -(-len(partitioner.cohorts) // len(nodes))
    counts = {name: 0 for name in nodes}
    for leader in leaders.values():
        if leader is not None:
            counts[leader] += 1
    moves: List[Tuple[int, str, str]] = []
    # Prefer giving each cohort back to its base-range owner (Fig. 2).
    for cohort in partitioner.cohorts:
        leader = leaders.get(cohort.cohort_id)
        if leader is None or counts[leader] <= max_leaders_per_node:
            continue
        candidates = [m for m in cohort.members if m != leader]
        candidates.sort(key=lambda m: (counts[m],
                                       cohort.members.index(m)))
        target = candidates[0]
        if counts[target] >= max_leaders_per_node:
            continue
        moves.append((cohort.cohort_id, leader, target))
        counts[leader] -= 1
        counts[target] += 1
    return moves
