"""Fixture: continuations — plain functions parked to run after a
scheduling point they do not contain (a CPU charge, a node's ``after``,
an event's ``add_callback``, bare or under ``partial``).  The whole body
of each is a post-yield segment.

``open_after_force`` (an unguarded protocol-state write), ``seal_epoch``
(a guard-named argument used as if live), ``late_promote`` (parked
under ``partial``) and ``serve_on_old_layout`` (a snapshot compared with
another snapshot, the request's immutable payload) are the hazards;
``open_if_leader``, ``seal_checked``, ``count_ack`` and
``serve_if_same_layout`` (the live attribute read through a chain) show
the re-check idioms and must stay green; ``on_arrival`` is never parked
— it runs before any wait, so its write is part of an atomic first
segment; ``suppressed_open`` carries a pragma.
"""

from functools import partial


def on_arrival(self, req):
    self.leader = req.src                 # fine: nothing parked this
    charge(self.cpu, 0.001, open_after_force, self)
    charge(self.cpu, 0.001, open_if_leader, self)
    self.node.charge(0.001, self.count_ack, req)
    self.node.after(req.force, seal_epoch, self, self.epoch)
    self.node.after(req.force, seal_checked, self, self.epoch)
    req.force.add_callback(partial(late_promote, self))
    req.force.add_callback(suppressed_open)
    version = self.node.partitioner.version
    self.node.charge(0.001, serve_if_same_layout, self, req, version)
    self.node.charge(0.001, serve_on_old_layout, self, req, version)


def open_after_force(self):
    self.open_for_writes = True           # write-after-yield-unguarded


def open_if_leader(self):
    if self.is_leader:                    # re-tested in this function
        self.open_for_writes = True       # fine


def seal_epoch(self, epoch):
    self.seal(epoch)                      # stale-guard-across-yield


def seal_checked(self, epoch):
    if self.epoch != epoch:               # the live attribute, re-read
        return
    self.seal(epoch)                      # fine


def late_promote(self, _event):
    self.role = "leader"                  # write-after-yield-unguarded


def serve_if_same_layout(self, req, map_version):
    if map_version != self.node.partitioner.version:    # live, via a chain
        return
    self.serve(req)                       # fine


def serve_on_old_layout(self, req, map_version):
    if map_version != req.payload.map_version:          # both are snapshots
        return
    self.serve(req)                       # stale-guard-across-yield


def count_ack(self, req):
    self.acks_seen += 1                   # fine: read-modify-write
    self.committed_lsn = max(self.committed_lsn, req.lsn)   # fine: merge


def suppressed_open(self):
    # lint: allow(write-after-yield-unguarded)
    self.open_for_writes = True


def charge(resource, service_time, then, *args):
    return then
