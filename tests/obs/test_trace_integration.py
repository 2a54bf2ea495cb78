"""End-to-end tracing through the protocol: full write/read traces,
span truncation across a leader takeover, and shared-force attribution
under proposal batching."""

import pytest

from repro.core import SpinnakerCluster, SpinnakerConfig
from repro.core.partition import key_of
from repro.obs import (WRITE_PHASES, RequestTracer, collect_traces,
                       phase_durations)
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn


def _traced_cluster(n_nodes=3, seed=3, config=None, sample_every=1):
    tracer = RequestTracer(sample_every=sample_every)
    cluster = SpinnakerCluster(n_nodes=n_nodes, config=config, seed=seed,
                               request_tracer=tracer)
    cluster.start()
    return cluster, tracer


class TestWriteTrace:
    def test_write_trace_has_every_phase_once(self):
        cluster, tracer = _traced_cluster()
        client = cluster.client("c0")

        def wl():
            yield from client.put(b"k", b"v", b"x" * 64)

        proc = spawn(cluster.sim, wl(), name="wl")
        cluster.run_until(lambda: proc.triggered, limit=30.0)
        views = collect_traces(tracer, op="write")
        assert len(views) == 1
        view = views[0]
        assert view.op == "write" and view.completed
        names = [s.name for s in view.spans]
        for phase in WRITE_PHASES:
            assert names.count(phase) == 1, (phase, names)
        # Leader-side spans stay inside the client round trip, and the
        # force precedes commit.
        root = view.root
        by_name = {s.name: s for s in view.spans}
        for span in view.spans:
            assert root.start <= span.start
            assert span.end <= root.end + 1e-12
        assert (by_name["log_force"].end
                <= by_name["quorum_wait"].end + 1e-12)
        assert by_name["reply"].node == "c0"

    def test_read_trace_phases(self):
        cluster, tracer = _traced_cluster()
        client = cluster.client("c0")

        def wl():
            yield from client.put(b"k", b"v", b"val")
            got = yield from client.get(b"k", b"v", consistent=True)
            assert got.value == b"val"

        proc = spawn(cluster.sim, wl(), name="wl")
        cluster.run_until(lambda: proc.triggered, limit=30.0)
        reads = collect_traces(tracer, op="read")
        assert len(reads) == 1
        names = [s.name for s in reads[0].spans]
        assert names == ["route", "read_serve", "reply"]

    def test_unsampled_requests_leave_no_spans(self):
        cluster, tracer = _traced_cluster(sample_every=1000)
        client = cluster.client("c0")

        def wl():
            for i in range(3):
                yield from client.put(b"k%d" % i, b"v", b"x")

        proc = spawn(cluster.sim, wl(), name="wl")
        cluster.run_until(lambda: proc.triggered, limit=30.0)
        assert tracer.spans() == []
        # 3 writes plus any startup catch-up begins, all unsampled.
        assert tracer.skipped >= 3

    def test_null_tracer_cluster_serves_writes(self):
        cluster = SpinnakerCluster(n_nodes=3, seed=3)
        cluster.start()
        client = cluster.client("c0")

        def wl():
            yield from client.put(b"k", b"v", b"x")

        proc = spawn(cluster.sim, wl(), name="wl")
        cluster.run_until(lambda: proc.triggered, limit=30.0)
        assert cluster.request_tracer.spans() == []


def traced_entries(replica):
    """The leader's in-flight trace state: its commit-queue entries
    that carry a trace."""
    return [entry for entry in replica.queue if entry.ctx is not None]


def _sata_config():
    # Slow forces (2-10 ms) keep the write in flight long enough for a
    # fine-grained run_until poll to observe the leader's trace state.
    return SpinnakerConfig(log_profile=DiskProfile.sata_log())


class TestTakeoverTruncation:
    def test_leader_crash_truncates_open_spans(self):
        cluster, tracer = _traced_cluster(seed=5, config=_sata_config())
        client = cluster.client("c0")
        cohort = cluster.partitioner.cohort_for_key(key_of(b"tk"))
        cid = cohort.cohort_id
        leader_name = cluster.leader_of(cid)
        leader_node = cluster.nodes[leader_name]
        replica = leader_node.replicas[cid]

        done = {}

        def wl():
            yield from client.put(b"tk", b"v", b"x" * 64)
            done["ok"] = True

        spawn(cluster.sim, wl(), name="wl")
        # Run until the leader holds in-flight trace state (the write's
        # force/propose are pending), then fail-stop it mid-request.
        cluster.run_until(lambda: bool(traced_entries(replica)),
                          limit=10.0, step=0.001,
                          what="write in flight on the leader")
        leader_node.crash()
        cluster.run_until(lambda: done.get("ok", False), limit=60.0,
                          what="write completes after failover")

        views = collect_traces(tracer, op="write")
        assert len(views) == 1
        view = views[0]
        assert view.completed            # the retry eventually succeeded
        assert view.truncated            # but the first attempt shows
        truncated = [s for s in view.spans if s.truncated]
        assert truncated
        assert all(s.node == leader_name for s in truncated)
        # No span may outlive the crash instant on the dead leader, and
        # nothing of the write is left open anywhere (rejoin catch-up
        # traces may legitimately still be in flight elsewhere).
        crash_at = max(s.end for s in truncated)
        new_leader = cluster.leader_of(cid)
        assert new_leader != leader_name
        assert [s for s in tracer.open_spans()
                if s.trace_id == view.trace_id] == []
        assert all(s.node != leader_name for s in tracer.open_spans())
        complete = [s for s in view.spans
                    if not s.truncated and s.name == "quorum_wait"]
        assert complete and all(s.start >= crash_at for s in complete)

    def test_replica_has_no_trace_state_after_crash(self):
        cluster, tracer = _traced_cluster(seed=5, config=_sata_config())
        client = cluster.client("c0")
        cohort = cluster.partitioner.cohort_for_key(key_of(b"tk"))
        cid = cohort.cohort_id
        leader_node = cluster.nodes[cluster.leader_of(cid)]
        replica = leader_node.replicas[cid]

        spawn(cluster.sim, client.put(b"tk", b"v", b"x"), name="wl")
        cluster.run_until(lambda: bool(traced_entries(replica)),
                          limit=10.0, step=0.001)
        leader_node.crash()
        assert traced_entries(replica) == []

    def test_step_down_truncates_open_spans_and_emits_no_more(self):
        """The leader loses its coordination session — not a crash — with
        a traced write in flight: the write's open spans end truncated at
        the step-down, and nothing of that attempt is emitted after it,
        though its leftover entry may still commit or be answered."""
        cluster, tracer = _traced_cluster(seed=5, config=_sata_config())
        client = cluster.client("c0")
        cid = cluster.partitioner.cohort_for_key(key_of(b"tk")).cohort_id
        leader_name = cluster.leader_of(cid)
        leader_node = cluster.nodes[leader_name]
        replica = leader_node.replicas[cid]
        done = {}

        def wl():
            yield from client.put(b"tk", b"v", b"x" * 64)
            done["ok"] = True

        spawn(cluster.sim, wl(), name="wl")
        cluster.run_until(lambda: bool(traced_entries(replica)),
                          limit=10.0, step=0.001,
                          what="write in flight on the leader")
        trace_id = traced_entries(replica)[0].ctx.trace_id
        open_before = [s for s in tracer.open_spans(leader_name)
                       if s.trace_id == trace_id]
        assert open_before
        leader_node._on_session_loss(leader_node.zk)
        stepped_down_at = cluster.sim.now
        assert traced_entries(replica) == []
        assert all(s.truncated and s.end == stepped_down_at
                   for s in open_before)
        assert [s for s in tracer.open_spans(leader_name)
                if s.trace_id == trace_id] == []
        cluster.run_until(lambda: done.get("ok", False), limit=60.0,
                          what="write completes after the step-down")
        cluster.run(2.0)
        attempt = [s for s in tracer.spans(trace_id)
                   if s.node == leader_name and s.start < stepped_down_at]
        assert attempt and all(s.end <= stepped_down_at for s in attempt)
        assert [s for s in tracer.open_spans()
                if s.trace_id == trace_id] == []


class TestBatchedForceAttribution:
    def test_shared_force_attributed_once_per_member(self):
        # SATA forces are slow; a burst of concurrent same-cohort writes
        # queues forces behind a busy log device, whose group commit
        # writes them in one device operation.
        cluster, tracer = _traced_cluster(
            seed=2, config=SpinnakerConfig(
                log_profile=DiskProfile.sata_log()))
        client = cluster.client("c0")
        cohort = cluster.partitioner.cohort_for_key(key_of(b"bk-0"))
        cid = cohort.cohort_id
        keys = cluster.keys_in_cohort(cid, 12, b"bk-")
        leader = cluster.nodes[cluster.leader_of(cid)].replicas[cid]
        sent = leader.proposes_sent
        done = {"n": 0}

        def one(key):
            yield from client.put(key, b"v", b"x" * 64)
            done["n"] += 1

        for key in keys:
            spawn(cluster.sim, one(key), name=f"w-{key.decode()}")
        cluster.run_until(lambda: done["n"] == len(keys), limit=60.0,
                          what="burst writes")
        # one force and one propose per write, none held for company
        assert leader.proposes_sent - sent == len(keys)

        views = collect_traces(tracer, op="write")
        assert len(views) == len(keys)
        ends = []
        for view in views:
            assert view.completed and not view.truncated
            forces = [s for s in view.spans if s.name == "log_force"]
            # exactly one force span per request: its own force, from
            # its submission to the device operation that wrote it
            assert len(forces) == 1
            span = forces[0]
            ends.append(span.end)
            assert span.fields["batch_records"] == 1
            # per-trace phase sums see the full force duration
            assert phase_durations(view)["log_force"] == pytest.approx(
                span.end - span.start)
        # forces queued behind one device operation finish together
        assert max(ends.count(end) for end in ends) >= 2, \
            "no two writes shared a device operation"
        # and the span count matches requests, not requests x batchmates
        leader_forces = [s for s in tracer.spans()
                         if s.name == "log_force"]
        assert len(leader_forces) == len(keys)


@pytest.mark.parametrize("workload", ["write", "read", "mixed"])
def test_trace_cli_renders_each_workload(workload, capsys):
    # "mixed" used to die building its workload (missing arguments).
    from repro.obs.cli import main
    assert main(["--phases", "--scale", "0.05", "--nodes", "3",
                 "--workload", workload]) == 0
    out = capsys.readouterr().out
    assert f"ran {workload} load" in out and "slowest" in out
