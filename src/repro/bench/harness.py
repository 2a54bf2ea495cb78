"""Closed-loop benchmark harness.

Reproduces the paper's methodology (Appendix C): a cluster of client
nodes drives the datastore with closed-loop threads; load is swept by
doubling threads per client node; the reported latency is the full
client round trip; throughput is the *measured* completed requests per
second.  Instead of a fixed wall-clock window, each thread performs a
fixed number of operations (with a warm-up prefix excluded), which keeps
simulation cost proportional to the sample count.

Two *targets* adapt the harness to the two stores; they share node
counts, hardware profiles, key distribution, and value sizes so the
comparison isolates the replication protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Hashable, List, Mapping, Optional,
                    Sequence, Tuple)

from ..baseline import CassandraCluster, CassandraConfig
from ..core import SpinnakerCluster, SpinnakerConfig
from ..core.datamodel import RequestTimeout, VersionMismatch
from ..core.partition import key_of
from ..sim.metrics import Histogram
from ..sim.process import all_of, drive, spawn
from ..storage.lsn import LSN
from ..storage.records import CommitMarker, WriteRecord
from .workload import Workload

__all__ = ["LoadPoint", "SpinnakerTarget", "CassandraTarget", "run_load",
           "sweep", "curves", "traced_point", "scaled_ladder",
           "scaled_ops", "N_CLIENT_NODES"]

#: the paper used a second 10-node cluster for clients
N_CLIENT_NODES = 10


@dataclass
class LoadPoint:
    """One point on a latency-vs-load curve."""

    threads: int
    throughput: float          # measured completed ops/sec
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    ops: int
    errors: int
    version_conflicts: int = 0

    def __str__(self) -> str:
        return (f"{self.threads:5d} thr  {self.throughput:9.0f} req/s  "
                f"mean {self.mean_ms:7.2f} ms  p95 {self.p95_ms:7.2f} ms")


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

def _tuned_overlay(config: Optional[SpinnakerConfig]
                   ) -> Optional[SpinnakerConfig]:
    """Apply the active ``--tuned-profile`` overlay, if any.

    ``repro.tune.profiles.activate_tuned_profile`` arms a knob overlay
    (loaded from ``configs/tuned-<profile>.json``); every Spinnaker
    cluster the harness builds while it is armed gets those values laid
    over whatever config the experiment chose, so one flag retunes a
    whole bench run.  Imported lazily: the tuner's evaluator drives
    this harness, so the module dependency must stay one-way.
    """
    from ..tune.profiles import active_overlay
    from ..tune.registry import apply_values
    overlay = active_overlay()
    if not overlay:
        return config
    return apply_values(config or SpinnakerConfig(), overlay)


class SpinnakerTarget:
    """Adapter: the harness drives a Spinnaker cluster."""

    kind = "spinnaker"
    config_class = SpinnakerConfig

    def __init__(self, n_nodes: int = 10,
                 config: Optional[SpinnakerConfig] = None, seed: int = 0,
                 request_tracer=None, topology=None,
                 placement: str = "ring"):
        self.cluster = SpinnakerCluster(n_nodes=n_nodes,
                                        config=_tuned_overlay(config),
                                        seed=seed,
                                        request_tracer=request_tracer,
                                        topology=topology,
                                        placement=placement)
        self.sim = self.cluster.sim

    def start(self) -> None:
        self.cluster.start()

    # -- preloading ------------------------------------------------------
    def preload(self, keys: List[bytes], value_size: int) -> None:
        """Seed rows durably into every replica's log *before* boot, so
        local recovery installs them: versions start at 1 and later
        writes (higher epoch after the bootstrap election) win."""
        part = self.cluster.partitioner
        seqs: Dict[str, Dict[int, int]] = {
            name: {} for name in self.cluster.nodes}
        value = b"x" * value_size
        for key in keys:
            cohort = part.cohort_for_key(key_of(key))
            for member in cohort.members:
                node = self.cluster.nodes[member]
                seq = seqs[member].get(cohort.cohort_id, 0) + 1
                seqs[member][cohort.cohort_id] = seq
                node.wal.append(WriteRecord(
                    lsn=LSN(1, seq), cohort_id=cohort.cohort_id, key=key,
                    colname=b"v", value=value, version=1), force=True)
        for name, per_cohort in seqs.items():
            node = self.cluster.nodes[name]
            for cohort_id, seq in per_cohort.items():
                node.wal.append(CommitMarker(
                    lsn=LSN(1, seq), cohort_id=cohort_id,
                    committed_lsn=LSN(1, seq)), force=False)
        self.sim.run(until=self.sim.now + 1.0)  # land the forces

    # -- operations ---------------------------------------------------------
    def make_thread(self, client_name: str, workload: Workload,
                    thread_id: int, keys: List[bytes], rng):
        client = self.cluster.client(client_name)
        value = b"x" * workload.value_size
        choose_key = workload.key_chooser(keys, rng) if keys else None

        def read_op():
            key = choose_key()
            consistent = workload.read_mode == "strong"
            yield from client.get(key, b"v", consistent=consistent)

        def write_op():
            write_op.seq += 1
            key = b"w%d-%d" % (thread_id, write_op.seq)  # consecutive keys
            yield from client.put(key, b"v", value)
        write_op.seq = 0

        def conditional_op():
            # §D.5: replace values whose version the client knows (the
            # paper's clients learned versions during the insert phase).
            # Alternate insert (expected version 0) and replace (version
            # 1) over thread-private consecutive keys, so every call
            # pays the leader's read + version compare and no extra RTT.
            conditional_op.seq += 1
            replace = conditional_op.seq % 2 == 0
            key = b"cw%d-%d" % (thread_id,
                                (conditional_op.seq - 1) // 2)
            yield from client.conditional_put(
                key, b"v", value, 1 if replace else 0)
        conditional_op.seq = 0

        if workload.write_mode == "conditional":
            return read_op, conditional_op
        return read_op, write_op


class CassandraTarget:
    """Adapter: the harness drives the eventually consistent baseline."""

    kind = "cassandra"
    config_class = CassandraConfig

    def __init__(self, n_nodes: int = 10,
                 config: Optional[CassandraConfig] = None, seed: int = 0):
        self.cluster = CassandraCluster(n_nodes=n_nodes, config=config,
                                        seed=seed)
        self.sim = self.cluster.sim

    def start(self) -> None:
        pass  # baseline nodes serve immediately

    def preload(self, keys: List[bytes], value_size: int) -> None:
        part = self.cluster.partitioner
        value = b"x" * value_size
        for key in keys:
            cohort = part.cohort_for_key(key_of(key))
            for member in cohort.members:
                node = self.cluster.nodes[member]
                gid = cohort.cohort_id
                node._local_seq[gid] = node._local_seq.get(gid, 0) + 1
                record = WriteRecord(
                    lsn=LSN(1, node._local_seq[gid]), cohort_id=gid,
                    key=key, colname=b"v", value=value, version=1,
                    timestamp=0.0)
                node.wal.append(record, force=True)
                node.engines[gid].apply(record)
        self.sim.run(until=self.sim.now + 1.0)

    def make_thread(self, client_name: str, workload: Workload,
                    thread_id: int, keys: List[bytes], rng):
        client = self.cluster.client(client_name)
        value = b"x" * workload.value_size
        choose_key = workload.key_chooser(keys, rng) if keys else None
        read_mode = ("quorum" if workload.read_mode
                     in ("quorum", "strong") else "weak")
        write_mode = ("weak" if workload.write_mode == "weak"
                      else "quorum")

        def read_op():
            key = choose_key()
            yield from client.read(key, b"v", consistency=read_mode)

        def write_op():
            write_op.seq += 1
            key = b"w%d-%d" % (thread_id, write_op.seq)
            yield from client.write(key, b"v", value,
                                    consistency=write_mode)
        write_op.seq = 0

        return read_op, write_op


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def run_load(target, workload: Workload, threads: int,
             ops_per_thread: int = 60, warmup_ops: int = 10,
             seed: int = 1) -> LoadPoint:
    """Run one load point: ``threads`` closed-loop clients, each doing
    ``warmup_ops`` unmeasured then ``ops_per_thread`` measured ops."""
    workload.validate()
    sim = target.sim
    rng_master = target.cluster.rng.fork(f"bench-{seed}")
    keys = [b"row-%06d" % i for i in range(workload.preload_rows)]
    if workload.preload_rows:
        target.preload(keys, workload.value_size)
    target.start()

    hist = Histogram()
    stats = {"errors": 0, "conflicts": 0,
             "first_ts": None, "last_ts": None}

    def thread_body(tid: int):
        client_name = f"bclient{tid % N_CLIENT_NODES}"
        rng = rng_master.stream(f"thread-{tid}")
        read_op, write_op = target.make_thread(client_name, workload, tid,
                                               keys, rng)
        total = warmup_ops + ops_per_thread
        for i in range(total):
            is_write = rng.random() < workload.write_fraction
            op = write_op if is_write else read_op
            start = sim.now
            try:
                yield from op()
            except VersionMismatch:
                stats["conflicts"] += 1
                continue
            except RequestTimeout:
                stats["errors"] += 1
                continue
            if i < warmup_ops:
                continue
            hist.add(sim.now - start)
            if stats["first_ts"] is None:
                stats["first_ts"] = sim.now
            stats["last_ts"] = sim.now

    # Waiting on the processes themselves (not a done-counter) makes a
    # thread that dies of anything else fail the run with its own error.
    procs = [spawn(sim, thread_body(tid), name=f"bench-thread-{tid}")
             for tid in range(threads)]
    drive(target.cluster, all_of(sim, procs), limit=36000.0, step=5.0,
          what="benchmark threads")

    window = ((stats["last_ts"] - stats["first_ts"])
              if stats["first_ts"] is not None else 0.0)
    throughput = hist.count / window if window > 0 else 0.0
    return LoadPoint(
        threads=threads, throughput=throughput,
        mean_ms=hist.mean() * 1e3, p50_ms=hist.percentile(50) * 1e3,
        p95_ms=hist.percentile(95) * 1e3,
        p99_ms=hist.percentile(99) * 1e3,
        ops=hist.count, errors=stats["errors"],
        version_conflicts=stats["conflicts"])


def sweep(target_factory: Callable[[], object], workload: Workload,
          thread_counts: Sequence[int], ops_per_thread: int = 60,
          warmup_ops: int = 10) -> List[LoadPoint]:
    """One latency-vs-load curve: a fresh cluster per load point (the
    paper likewise restarts between runs)."""
    points = []
    for threads in thread_counts:
        target = target_factory()
        points.append(run_load(target, workload, threads,
                               ops_per_thread=ops_per_thread,
                               warmup_ops=warmup_ops))
    return points


#: one curve of a figure: (fresh-target factory, workload)
Arm = Tuple[Callable[[], object], Workload]


def curves(arms: Mapping[Hashable, Arm], thread_counts: Sequence[int],
           ops_per_thread: int = 60,
           warmup_ops: int = 10) -> Dict[Hashable, List[LoadPoint]]:
    """A figure: every labelled arm swept over the same thread ladder."""
    return {label: sweep(factory, workload, thread_counts,
                         ops_per_thread, warmup_ops)
            for label, (factory, workload) in arms.items()}


def scaled_ladder(base: Sequence[int], scale: float) -> List[int]:
    """``base`` thread counts scaled by ``scale``, floored at two, and
    with the rungs that collapse onto the one below dropped."""
    out: List[int] = []
    for t in base:
        scaled = max(2, int(round(t * scale)))
        if not out or scaled > out[-1]:
            out.append(scaled)
    return out


def scaled_ops(scale: float, base: int = 50) -> int:
    """Measured ops per thread at ``scale`` (full size from 0.5 up)."""
    return max(15, int(round(base * min(1.0, scale * 2))))


def traced_point(workload: Workload, threads: int, ops_per_thread: int,
                 warmup_ops: int = 8, n_nodes: int = 10,
                 config: Optional[SpinnakerConfig] = None, seed: int = 1,
                 sample_every: int = 1, topology=None,
                 placement: str = "ring"):
    """One traced load point on a fresh Spinnaker cluster; returns
    ``(LoadPoint, RequestTracer)``.

    The only place a request tracer is wired to a load run: the report's
    phase probes, the tuner's trials and ``python -m repro trace`` all
    attribute latency from this.  The cluster is never shared with an
    untraced sweep, so tracing overhead cannot contaminate a curve.
    """
    from ..obs import RequestTracer
    tracer = RequestTracer(sample_every=sample_every)
    target = SpinnakerTarget(n_nodes, config=config, seed=seed,
                             request_tracer=tracer, topology=topology,
                             placement=placement)
    point = run_load(target, workload, threads,
                     ops_per_thread=ops_per_thread, warmup_ops=warmup_ops,
                     seed=seed)
    return point, tracer
