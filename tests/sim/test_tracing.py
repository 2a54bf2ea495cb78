"""Tests for the tracing subsystem and its protocol integration."""

from repro.core import SpinnakerCluster, SpinnakerConfig
from repro.sim.disk import DiskProfile
from repro.sim.events import Simulator
from repro.sim.tracing import NullTracer, TraceEvent, Tracer


def test_tracer_collects_and_filters():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.emit("election", "n1", "won", epoch=2)
    sim.schedule(1.0, lambda: tracer.emit("node", "n2", "crash"))
    sim.run()
    assert len(tracer) == 2
    elections = tracer.events(category="election")
    assert len(elections) == 1
    assert elections[0].fields == {"epoch": 2}
    assert tracer.events(node="n2")[0].time == 1.0
    assert tracer.events(since=0.5) == tracer.events(node="n2")


def test_tracer_category_allowlist():
    tracer = Tracer(categories={"node"})
    tracer.emit("node", "n1", "boot")
    tracer.emit("election", "n1", "won")
    assert len(tracer) == 1
    assert tracer.dropped == 1


def test_tracer_ring_buffer_bounds_memory():
    tracer = Tracer(max_events=10)
    for i in range(25):
        tracer.emit("node", "n", f"e{i}")
    assert len(tracer) == 10
    assert tracer.events()[0].message == "e15"


def test_event_format_readable():
    event = TraceEvent(time=1.5, category="takeover", node="node3",
                       message="open", fields={"epoch": 2})
    text = event.format()
    assert "takeover" in text and "node3" in text and "epoch=2" in text


def test_null_tracer_is_silent():
    tracer = NullTracer()
    tracer.emit("x", "n", "whatever")
    assert tracer.events() == []


def test_cluster_integration_traces_failover_story():
    tracer = Tracer()
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=9,
                               tracer=tracer)
    cluster.start()
    assert tracer.sim is cluster.sim
    boots = tracer.events(category="node")
    assert sum(1 for e in boots if e.message == "boot") == 3
    wins = [e for e in tracer.events(category="election")
            if e.message == "won election"]
    assert len(wins) == 3  # one per cohort
    opens = [e for e in tracer.events(category="takeover")
             if e.message == "cohort open for writes"]
    assert len(opens) == 3

    t_kill = cluster.sim.now
    cluster.kill_leader(0)
    cluster.run_until(lambda: cluster.leader_of(0) is not None,
                      limit=30.0, what="failover")
    crashes = [e for e in tracer.events(category="node", since=t_kill)
               if e.message == "crash"]
    assert len(crashes) == 1
    new_wins = [e for e in tracer.events(category="election",
                                         since=t_kill)
                if e.message == "won election" and e.fields["cohort"] == 0]
    assert len(new_wins) == 1
    assert new_wins[0].node == cluster.leader_of(0)
    # The human-readable dump mentions the whole story.
    dump = tracer.format(since=t_kill)
    assert "crash" in dump and "won election" in dump
