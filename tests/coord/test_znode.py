"""Tests for the znode tree (data model semantics, §7.1)."""

import pytest

from repro.coord.znode import (BadVersionError, CoordError, EphemeralError,
                               NoNodeError, NodeExistsError, NotEmptyError,
                               ZNodeTree)


def test_create_get_round_trip():
    tree = ZNodeTree()
    actual, _ = tree.create("/a", b"data")
    assert actual == "/a"
    assert tree.get("/a") == (b"data", 0)


def test_create_nested_requires_parent():
    tree = ZNodeTree()
    with pytest.raises(NoNodeError):
        tree.create("/a/b")
    tree.create("/a")
    actual, _ = tree.create("/a/b", b"x")
    assert actual == "/a/b"
    assert tree.children("/a") == ["b"]


def test_create_duplicate_rejected():
    tree = ZNodeTree()
    tree.create("/a")
    with pytest.raises(NodeExistsError):
        tree.create("/a")


def test_sequential_names_are_monotonic_per_parent():
    tree = ZNodeTree()
    tree.create("/q")
    p1, _ = tree.create("/q/n-", sequential=True)
    p2, _ = tree.create("/q/n-", sequential=True)
    assert p1 == "/q/n-0000000000"
    assert p2 == "/q/n-0000000001"
    assert p1 < p2


def test_sequence_counter_survives_deletes():
    tree = ZNodeTree()
    tree.create("/q")
    p1, _ = tree.create("/q/n-", sequential=True)
    tree.delete(p1)
    p2, _ = tree.create("/q/n-", sequential=True)
    assert p2 > p1  # never reused — ties in leader election stay unique


def test_delete_nonempty_rejected():
    tree = ZNodeTree()
    tree.create("/a")
    tree.create("/a/b")
    with pytest.raises(NotEmptyError):
        tree.delete("/a")


def test_versioned_set_and_delete():
    tree = ZNodeTree()
    tree.create("/a", b"v0")
    version, _ = tree.set_data("/a", b"v1")
    assert version == 1
    with pytest.raises(BadVersionError):
        tree.set_data("/a", b"v2", version=0)
    with pytest.raises(BadVersionError):
        tree.delete("/a", version=0)
    tree.delete("/a", version=1)
    assert tree.children("/") == []


def test_ephemeral_requires_session_and_cannot_have_children():
    tree = ZNodeTree()
    with pytest.raises(CoordError):
        tree.create("/e", ephemeral=True)
    tree.create("/e", ephemeral=True, session=7)
    with pytest.raises(EphemeralError):
        tree.create("/e/child")


def test_expire_session_deletes_only_that_sessions_ephemerals():
    tree = ZNodeTree()
    tree.create("/grp")
    tree.create("/grp/a", ephemeral=True, session=1)
    tree.create("/grp/b", ephemeral=True, session=2)
    tree.create("/grp/c")  # persistent
    tree.expire_session(1)
    assert tree.children("/grp") == ["b", "c"]


def test_data_watch_fires_once_on_change():
    tree = ZNodeTree()
    tree.create("/a", b"x")
    tree.add_data_watch("/a", ("client", 1))
    _, fired = tree.set_data("/a", b"y")
    assert [(o, e.kind) for o, e in fired] == [(("client", 1), "changed")]
    _, fired_again = tree.set_data("/a", b"z")
    assert fired_again == []  # one-shot


def test_data_watch_fires_on_delete():
    tree = ZNodeTree()
    tree.create("/a")
    tree.add_data_watch("/a", ("c", 1))
    fired = tree.delete("/a")
    assert fired[0][1].kind == "deleted"


def test_child_watch_fires_on_child_create_and_delete():
    tree = ZNodeTree()
    tree.create("/grp")
    tree.add_child_watch("/grp", ("c", 1))
    _, fired = tree.create("/grp/x")
    assert fired[0][1] .kind == "children"
    tree.add_child_watch("/grp", ("c", 2))
    fired = tree.delete("/grp/x")
    assert any(e.kind == "children" for _, e in fired)


def test_expire_session_fires_watches():
    tree = ZNodeTree()
    tree.create("/r")
    tree.create("/r/leader", ephemeral=True, session=9)
    tree.add_data_watch("/r/leader", ("follower", 4))
    fired = tree.expire_session(9)
    assert (("follower", 4), ) and fired[0][1].kind == "deleted"


def test_relative_path_rejected():
    tree = ZNodeTree()
    with pytest.raises(CoordError):
        tree.create("a")
    with pytest.raises(CoordError):
        tree.create("//a")
