"""Disk models: the logging device (with group commit) and the data disk.

The paper's write experiments are bottlenecked by commit-time log forces
(Appendix C): Cassandra's log manager — reused by Spinnaker — lacks
preallocated log files, so file growth causes filesystem metadata updates
and *unwanted seeks* on the dedicated SATA logging disk.  Storing the log
on an SSD removes the seeks and drops write latency to ~6 ms (Fig. 13);
committing to main-memory logs drops it to ~2 ms (Fig. 16).

:class:`LogDevice` reproduces this bottleneck:

* the device performs one *force operation* at a time;
* force requests arriving while the device is busy accumulate and are
  written together by the next operation (**group commit**, [13] in the
  paper); the ablation flag ``group_commit=False`` serializes them instead;
* a queued force can take more bytes until its operation starts
  (:meth:`LogDevice.join`) — a follower folds a later propose into its
  queued force that way, one completion for both;
* per-operation latency is drawn from a :class:`DiskProfile` — rotational
  delay + transfer time + a periodic file-growth seek penalty for the
  SATA profile.

Three built-in profiles correspond to the paper's three logging setups:
``DiskProfile.sata_log()`` (Figs. 9, 12, 14, 15), ``DiskProfile.ssd_log()``
(Fig. 13), and ``DiskProfile.memory_log()`` (Fig. 16).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .events import Event, Simulator
from .rng import RngRegistry

__all__ = ["DiskProfile", "LogDevice", "DataDisk"]


class DiskProfile:
    """Latency parameters for one logging device.

    Parameters
    ----------
    min_latency, max_latency:
        Uniform range of the base per-operation latency (models rotational
        positioning for magnetic disks; a tight band for SSDs).
    transfer_rate:
        Sequential write bandwidth in bytes/second.
    seek_penalty, seek_interval:
        Every ``seek_interval`` bytes of file growth adds ``seek_penalty``
        seconds to one operation — the missing-preallocation metadata seek
        the paper blames for its poor absolute write latency.
    name:
        Used in reports.
    """

    def __init__(self, name: str, min_latency: float, max_latency: float,
                 transfer_rate: float, seek_penalty: float = 0.0,
                 seek_interval: int = 0):
        self.name = name
        self.min_latency = min_latency
        self.max_latency = max_latency
        self.transfer_rate = transfer_rate
        self.seek_penalty = seek_penalty
        self.seek_interval = seek_interval

    # -- canned profiles -------------------------------------------------
    @classmethod
    def sata_log(cls) -> "DiskProfile":
        """Dedicated SATA logging disk, write cache off, no preallocation."""
        return cls("sata", min_latency=2.0e-3, max_latency=10.5e-3,
                   transfer_rate=80e6, seek_penalty=11.0e-3,
                   seek_interval=192 * 1024)

    @classmethod
    def ssd_log(cls) -> "DiskProfile":
        """FusionIO-style NAND flash device (Fig. 13)."""
        return cls("ssd", min_latency=0.15e-3, max_latency=0.35e-3,
                   transfer_rate=400e6)

    @classmethod
    def ec2_log(cls) -> "DiskProfile":
        """EC2 local disk with the write cache on (§D.2 — the paper could
        not disable it): forces return from cache, no metadata seeks."""
        return cls("ec2", min_latency=0.6e-3, max_latency=3.0e-3,
                   transfer_rate=100e6)

    @classmethod
    def memory_log(cls) -> "DiskProfile":
        """Main-memory log; a background thread drains it to disk (§D.6.2)."""
        return cls("memory", min_latency=3e-6, max_latency=8e-6,
                   transfer_rate=5e9)

    # -- latency -----------------------------------------------------------
    def op_latency(self, batch_bytes: int, grew_past_boundary: bool,
                   rng) -> float:
        latency = rng.uniform(self.min_latency, self.max_latency)
        if self.transfer_rate:
            latency += batch_bytes / self.transfer_rate
        if grew_past_boundary and self.seek_penalty:
            latency += self.seek_penalty
        return latency


class LogDevice:
    """A node's dedicated logging device with group commit."""

    def __init__(self, sim: Simulator, rng: RngRegistry, name: str,
                 profile: Optional[DiskProfile] = None,
                 group_commit: bool = True):
        self.sim = sim
        self.name = name
        self.profile = profile or DiskProfile.sata_log()
        self.group_commit = group_commit
        self._rng = rng.stream(f"disk:{name}")
        #: queued forces, ``[nbytes, then, op]``: ``op`` is the number
        #: of device operations started before it was queued
        self._pending: List[list] = []
        self._busy = False
        self._ops = 0           # device operations started (or lost)
        self._file_pos = 0
        self._last_seek_boundary = 0
        self.forces_completed = 0
        self.ops_performed = 0
        self.bytes_written = 0
        self.alive = True
        self._incarnation = 0   # bumped by crash(): see _finish_op

    # -- public API ----------------------------------------------------------
    def force(self, nbytes: int,
              then: Optional[Callable[[], None]] = None) -> Optional[Event]:
        """Durably write ``nbytes``; ``then()`` runs when the data is on
        media (or, without ``then``, the returned event fires)."""
        ev = None
        if then is None:
            ev = Event(self.sim)
            then = ev.succeed
        self.submit(nbytes, then)
        return ev

    def submit(self, nbytes: int, then: Callable[[], None]) -> Optional[list]:
        """Queue a force of ``nbytes``; ``then()`` once it is on media.
        Returns its queue entry, a handle for :meth:`join` (None while
        the node is down: the force never completes)."""
        if not self.alive:
            return None
        entry = [nbytes, then, self._ops]
        self._pending.append(entry)
        if not self._busy:
            self._start_op()
        return entry

    def join(self, entry: Optional[list], nbytes: int) -> bool:
        """Add ``nbytes`` to the queued force ``entry`` if its device
        operation has not started: under group commit the next
        operation writes every queued force, so the device writes the
        same bytes as for a force of its own.  False — nothing added —
        once it has started, and always without group commit."""
        if entry is None or entry[2] != self._ops or not self.group_commit:
            return False
        entry[0] += nbytes
        return True

    def append_noforce(self, nbytes: int) -> None:
        """A non-forced append (e.g. the last-committed-LSN record, §5).

        It rides along with the next force at no extra cost; only file
        growth is tracked.
        """
        self._file_pos += nbytes
        self.bytes_written += nbytes

    def crash(self) -> None:
        """Power loss: in-flight and queued forces never complete."""
        self.alive = False
        self._incarnation += 1
        self._ops += 1          # the queued forces are gone: none joins
        self._pending.clear()

    def restart(self) -> None:
        self.alive = True
        self._busy = False
        # A restarted log appends at the recovered end of the file; the
        # exact position does not matter for latency modelling.

    # -- internals -----------------------------------------------------------
    def _start_op(self) -> None:
        if not self._pending or not self.alive:
            self._busy = False
            return
        self._busy = True
        self._ops += 1
        if self.group_commit:
            batch, self._pending = self._pending, []
        else:
            batch = [self._pending.pop(0)]
        batch_bytes = 0
        for entry in batch:
            batch_bytes += entry[0]
        self._file_pos += batch_bytes
        self.bytes_written += batch_bytes
        grew = False
        if self.profile.seek_interval:
            boundary = self._file_pos // self.profile.seek_interval
            if boundary > self._last_seek_boundary:
                self._last_seek_boundary = boundary
                grew = True
        latency = self.profile.op_latency(batch_bytes, grew, self._rng)
        self.sim.schedule(latency, lambda incarnation=self._incarnation:
                          self._finish_op(batch, incarnation))

    def _finish_op(self, batch: List[list], incarnation: int) -> None:
        if incarnation != self._incarnation:
            # Crashed mid-operation: the forces are lost, even if the
            # node is already back up (``lose_disk`` reboots at once).
            return
        self.ops_performed += 1
        for entry in batch:
            entry[1]()
            self.forces_completed += 1
        self._start_op()


class DataDisk:
    """The striped data volume holding SSTables.

    The paper's read experiments keep the working set cached in memory, so
    reads rarely touch this device; it exists for cold reads and for
    charging SSTable flush/compaction I/O time.
    """

    def __init__(self, sim: Simulator, rng: RngRegistry, name: str,
                 read_latency: float = 6.0e-3,
                 transfer_rate: float = 300e6):
        self.sim = sim
        self.name = name
        self.read_latency = read_latency
        self.transfer_rate = transfer_rate
        self._rng = rng.stream(f"datadisk:{name}")
        self.reads = 0
        self.bytes_read = 0

    def read(self, nbytes: int) -> Event:
        """A random read of ``nbytes`` (cold SSTable block)."""
        self.reads += 1
        self.bytes_read += nbytes
        latency = (self._rng.uniform(0.5, 1.5) * self.read_latency
                   + nbytes / self.transfer_rate)
        ev = Event(self.sim)
        self.sim.schedule(latency, ev.succeed)
        return ev
