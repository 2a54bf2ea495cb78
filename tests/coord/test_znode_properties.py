"""Model-based property test: the znode tree vs a reference dict model."""

from hypothesis import given, settings, strategies as st

from repro.coord.znode import CoordError, NoNodeError, ZNodeTree

# Operations over a tiny path universe so collisions actually happen.
PATHS = ["/a", "/b", "/a/x", "/a/y", "/b/z"]

ops = st.lists(st.tuples(
    st.sampled_from(["create", "delete", "set", "create-eph"]),
    st.sampled_from(PATHS),
    st.binary(max_size=4),
    st.integers(min_value=1, max_value=3),   # session id for ephemerals
), max_size=60)


def parent(path):
    head = path.rsplit("/", 1)[0]
    return head if head else "/"


def exists(tree, path):
    try:
        tree.get(path)
    except NoNodeError:
        return False
    return True


@given(ops)
@settings(max_examples=200)
def test_tree_matches_reference_model(operations):
    tree = ZNodeTree()
    model = {}          # path -> (data, ephemeral_session)

    for op, path, data, session in operations:
        # Compute what the model says should happen.
        parent_ok = parent(path) == "/" or parent(path) in model
        parent_eph = (parent(path) in model
                      and model.get(parent(path), (b"", None))[1]
                      is not None)
        if op in ("create", "create-eph"):
            should_fail = (path in model or not parent_ok or parent_eph)
            try:
                tree.create(path, data,
                            ephemeral=(op == "create-eph"),
                            session=session if op == "create-eph"
                            else None)
                assert not should_fail, f"create {path} should have failed"
                model[path] = (data, session if op == "create-eph"
                               else None)
            except CoordError:
                assert should_fail, f"create {path} should have succeeded"
        elif op == "delete":
            has_children = any(parent(other) == path for other in model
                               if other != path)
            should_fail = path not in model or has_children
            try:
                tree.delete(path)
                assert not should_fail
                del model[path]
            except CoordError:
                assert should_fail
        elif op == "set":
            should_fail = path not in model
            try:
                tree.set_data(path, data)
                assert not should_fail
                model[path] = (data, model[path][1])
            except CoordError:
                assert should_fail

    # Final states agree.
    for path, (data, _session) in model.items():
        assert exists(tree, path)
        assert tree.get(path)[0] == data
    for path in PATHS:
        if path not in model:
            assert not exists(tree, path)


@given(ops, st.integers(min_value=1, max_value=3))
@settings(max_examples=100)
def test_session_expiry_removes_exactly_that_sessions_ephemerals(
        operations, victim):
    tree = ZNodeTree()
    model = {}

    for op, path, data, session in operations:
        try:
            if op in ("create", "create-eph"):
                tree.create(path, data, ephemeral=(op == "create-eph"),
                            session=session if op == "create-eph"
                            else None)
                model[path] = session if op == "create-eph" else None
            elif op == "delete":
                tree.delete(path)
                model.pop(path, None)
            elif op == "set":
                tree.set_data(path, data)
        except CoordError:
            pass

    tree.expire_session(victim)
    for path, owner in model.items():
        if owner == victim:
            # Deleted unless it had children (then deletion is skipped —
            # but ephemerals cannot have children, so any children were
            # persistent... which create() forbids; so always gone).
            assert not exists(tree, path)
        else:
            assert exists(tree, path)
