"""Cross-yield atomicity lints: static check-then-act race detection.

Cooperative protocol code runs inside generator *processes*: every
``yield`` is a point where the rest of the world may move — elections
depose leaders, epochs advance, commit queues drain, membership and
range maps change.  The paper's safety argument (§4–6) leans on
leaders re-checking their authority at every decision point.  These
rules enforce that discipline statically.

The unit of analysis is the **yield segment**: the run of code between
two yields inside one generator, which executes atomically under the
cooperative scheduler.  Each sim-visible process body (discovered with
the same ``spawn``/``yield from`` closure the yield-discipline rule
uses, extended across modules by the runner) is split into segments,
and per-segment read/write/guard sets over tracked receivers (``self``
plus parameters and their attribute aliases) drive three rules.

A message handler is not a process but a chain of plain functions, each
parked — on the CPU-charge primitive, a node's ``after``, or an event's
``add_callback``, bare or under ``partial`` — to run once the world has
moved.  Such a **continuation** contains no yield, yet its whole body is
a post-yield segment: a guard-named argument is a stale snapshot, and a
protocol-state write needs a re-test in the same function.  Rules (a)
and (b) treat every parked function as a root of that kind:

``stale-guard-across-yield``
    A guard attribute (epoch, term, role, leader/status flags,
    versions, generations — a configurable seed list plus names
    compared in ``if``/``while`` guards) snapshotted into a local (or
    passed in as a guard-named parameter) before a yield and used
    after it without re-reading the live attribute.  The canonical
    safe idiom re-reads: ``if not self.is_leader or self.epoch !=
    epoch: return``.  The live attribute may sit at the end of a chain
    from a tracked receiver (``node.partitioner.version``), as long as
    the chain passes through no immutable snapshot (``req.payload``,
    ``node.config``): reading one snapshot re-validates no other.

``write-after-yield-unguarded``
    Replicated/protocol state written in a post-yield segment whose
    dominating guards were all established before the yield.  A write
    is considered guarded when its segment re-tests any tracked
    attribute (an ``if``/``while`` guard since the last yield) or
    re-reads the written attribute itself — so monotonic merges like
    ``self.committed_lsn = max(self.committed_lsn, new)`` and
    counters (``+=``) are exempt.

``mutate-while-iterating``
    A live collection iterated by a loop whose body both yields and
    mutates the same collection.  Another process can interleave at
    the yield and observe (or trip over) the half-mutated state;
    iterate a snapshot (``list(self.peers)``) instead.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .determinism import (close_process_names, collect_continuations,
                          collect_spawned, collect_yield_edges)
from .findings import Finding

__all__ = ["ATOMICITY_RULES", "DEFAULT_GUARD_ATTRS", "lint_atomicity"]

ATOMICITY_RULES: Dict[str, str] = {
    "stale-guard-across-yield": "guard value snapshotted before a yield "
                                "and used after it without re-reading "
                                "the live attribute",
    "write-after-yield-unguarded": "protocol state written after a yield "
                                   "with no re-validation since the "
                                   "world last moved",
    "mutate-while-iterating": "collection mutated while a loop over it "
                              "spans a yield; iterate a snapshot",
}

#: Seed guard attributes: authority and freshness markers a process
#: must re-check after any yield before acting on a snapshot of them.
DEFAULT_GUARD_ATTRS: FrozenSet[str] = frozenset({
    "epoch", "term", "role", "leader", "is_leader", "open_for_writes",
    "alive", "migrating", "status", "map_version",
})
#: Substrings that make any attribute or parameter name guard-like.
_GUARD_MARKERS = ("epoch", "term", "version", "generation", "leader",
                  "status")
#: Attribute names that count as replicated/protocol state for the
#: write-after-yield rule, beyond the name markers below.
_STATE_EXACT = frozenset({
    "open_for_writes", "migrating", "alive", "zk",
    "write_block",
})
_STATE_MARKERS = ("epoch", "term", "version", "generation", "leader",
                  "role", "status", "lsn", "floor", "seq", "member")

#: wrappers that snapshot a collection before iterating it
_SNAPSHOT_WRAPPERS = {"list", "tuple", "sorted", "set", "frozenset"}
#: mutating methods on dict/list/set receivers
_MUTATOR_METHODS = {"append", "add", "remove", "discard", "pop",
                    "popitem", "clear", "update", "insert", "extend",
                    "setdefault"}
#: attributes that alias immutable snapshots (message payloads,
#: config) — locals bound through them cannot go stale
_NONSTATE_ALIAS_ATTRS = {"payload", "config"}


def _is_guard_name(name: str, extra: FrozenSet[str] = frozenset()) -> bool:
    if name in DEFAULT_GUARD_ATTRS or name in extra:
        return True
    if name.endswith("_gen") or name == "gen":
        return True
    low = name.lower()
    return any(marker in low for marker in _GUARD_MARKERS)


def _is_state_name(name: str, extra: FrozenSet[str] = frozenset()) -> bool:
    if name in _STATE_EXACT or name in extra:
        return True
    low = name.lower()
    return any(marker in low for marker in _STATE_MARKERS)


def _guard_names_match(attr: str, param: str) -> bool:
    """Does a re-read of attribute ``attr`` refresh guard-named
    parameter ``param``?  (``leader`` ~ ``leader``, ``epoch`` ~
    ``epoch_at_handoff``.)"""
    if attr == param:
        return True
    if len(attr) < 3:
        return False
    return attr in param or param in attr


def _contains_yield(nodes: Iterable[ast.AST]) -> bool:
    """Any yield in the statements, not descending into nested defs."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _all_param_names(args: ast.arguments) -> List[str]:
    params = list(getattr(args, "posonlyargs", ())) + list(args.args)
    params += list(args.kwonlyargs)
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            params.append(extra)
    return [a.arg for a in params]


class _Event:
    """One recorded read / use / guard-test / write occurrence."""

    __slots__ = ("seg", "line", "yloops", "nid")

    def __init__(self, seg: int, line: int, yloops: FrozenSet[int],
                 nid: int = 0) -> None:
        self.seg = seg
        self.line = line
        self.yloops = yloops
        self.nid = nid


class _Bind:
    """A local (or parameter) holding a pre-yield guard snapshot."""

    __slots__ = ("var", "base", "attr", "seg", "line", "yloops",
                 "value_id", "is_param")

    def __init__(self, var: str, base: Optional[str], attr: Optional[str],
                 seg: int, line: int, yloops: FrozenSet[int],
                 value_id: int = 0, is_param: bool = False) -> None:
        self.var = var
        self.base = base
        self.attr = attr
        self.seg = seg
        self.line = line
        self.yloops = yloops
        self.value_id = value_id
        self.is_param = is_param


class _Write:
    __slots__ = ("base", "attr", "seg", "line", "yloops")

    def __init__(self, base: str, attr: str, seg: int, line: int,
                 yloops: FrozenSet[int]) -> None:
        self.base = base
        self.attr = attr
        self.seg = seg
        self.line = line
        self.yloops = yloops


class _FuncAnalysis:
    """Segment one process-body generator and apply the three rules.
    A ``continuation`` starts in segment 1: its parameters were bound
    (segment 0) before the scheduling point that precedes its body."""

    def __init__(self, func: ast.FunctionDef, seed: Set[str],
                 guard_attrs: FrozenSet[str], emit,
                 continuation: bool = False) -> None:
        self.func = func
        self.emit = emit
        self.seg = 1 if continuation else 0
        #: stack of (loop node id, loop-body-contains-yield)
        self.loops: List[Tuple[int, bool]] = []
        self.tracked = self._collect_tracked(set(seed))
        self.inferred = self._infer_guards()
        self.guard_attrs = frozenset(guard_attrs) | self.inferred
        self.state_attrs = self.guard_attrs
        self.reads: Dict[Tuple[str, str], List[_Event]] = {}
        self.guard_tests: List[_Event] = []
        self.binds: Dict[str, _Bind] = {}
        self.uses: List[Tuple[_Bind, _Event]] = []
        self.writes: List[_Write] = []
        self.mutations: List[Tuple[str, str, int]] = []  # rule (c) hits
        for name in _all_param_names(func.args):
            if name != "self" and _is_guard_name(name, self.guard_attrs):
                self.binds[name] = _Bind(name, None, None, seg=0,
                                         line=func.lineno,
                                         yloops=frozenset(),
                                         is_param=True)

    # -- pre-passes --------------------------------------------------------
    def _own_nodes(self) -> Iterable[ast.AST]:
        """Every node in the body, not descending into nested defs."""
        stack: List[ast.AST] = list(self.func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _collect_tracked(self, tracked: Set[str]) -> Set[str]:
        """Fixpoint of receiver aliases: ``node = replica.node`` makes
        ``node`` a tracked receiver too (but not through ``.payload``)."""
        assigns: List[Tuple[ast.expr, ast.expr]] = []
        for node in self._own_nodes():
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if isinstance(target, ast.Tuple) and isinstance(value,
                                                                ast.Tuple) \
                        and len(target.elts) == len(value.elts):
                    assigns.extend(zip(target.elts, value.elts))
                else:
                    assigns.append((target, value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                assigns.append((node.target, node.value))
        changed = True
        while changed:
            changed = False
            for target, value in assigns:
                if not isinstance(target, ast.Name) \
                        or target.id in tracked:
                    continue
                root, attrs = _attr_chain(value)
                if root is None or not attrs:
                    continue
                if root in tracked and not any(
                        a in _NONSTATE_ALIAS_ATTRS for a in attrs):
                    tracked.add(target.id)
                    changed = True
        return tracked

    def _infer_guards(self) -> FrozenSet[str]:
        """Attributes of tracked receivers compared in if/while tests."""
        inferred: Set[str] = set()
        for node in self._own_nodes():
            if not isinstance(node, (ast.If, ast.While, ast.IfExp)):
                continue
            func_positions = {id(sub.func) for sub in ast.walk(node.test)
                              if isinstance(sub, ast.Call)}
            for sub in ast.walk(node.test):
                if (isinstance(sub, ast.Attribute)
                        and id(sub) not in func_positions
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id in self.tracked):
                    inferred.add(sub.attr)
        return frozenset(inferred)

    # -- the walk ----------------------------------------------------------
    def run(self) -> None:
        for stmt in self.func.body:
            self._walk(stmt)
        self._report()

    def _yloops(self) -> FrozenSet[int]:
        return frozenset(lid for lid, has_yield in self.loops if has_yield)

    def _event(self, node: ast.AST) -> _Event:
        return _Event(self.seg, getattr(node, "lineno", self.func.lineno),
                      self._yloops(), id(node))

    def _walk(self, node: ast.AST) -> None:
        method = getattr(self, "_walk_" + type(node).__name__, None)
        if method is not None:
            method(node)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        for child in ast.iter_child_nodes(node):
            self._walk(child)

    def _walk_Yield(self, node: ast.Yield) -> None:
        if node.value is not None:
            self._walk(node.value)
        self.seg += 1

    def _walk_YieldFrom(self, node: ast.YieldFrom) -> None:
        self._walk(node.value)
        self.seg += 1

    def _walk_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            bind = self.binds.get(node.id)
            if bind is not None:
                self.uses.append((bind, self._event(node)))
        else:
            self.binds.pop(node.id, None)

    def _walk_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            base = self._live_base(node)
            if base is not None:
                self.reads.setdefault((base, node.attr),
                                      []).append(self._event(node))
        self._walk(node.value)

    def _live_base(self, node: ast.Attribute) -> Optional[str]:
        """What ``node``'s attribute is read off, when that is live
        state: a tracked receiver, or a chain of attributes from one
        (``node.partitioner`` in ``node.partitioner.version``) that
        passes through no immutable snapshot."""
        root, attrs = _attr_chain(node.value)
        if root not in self.tracked or any(
                a in _NONSTATE_ALIAS_ATTRS for a in attrs):
            return None
        return ".".join([root] + attrs)

    def _walk_Assign(self, node: ast.Assign) -> None:
        # ``x.attr = yield from gen(...)`` stores the result of a
        # yield decided on *before* it: a continuation, not a
        # check-then-act race, so rule (b) skips it.
        result_store = _contains_yield([node.value])
        self._walk(node.value)
        for target in node.targets:
            self._store(target, result_store=result_store)
        if len(node.targets) == 1:
            self._maybe_bind(node.targets[0], node.value)

    def _walk_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is None:
            return
        result_store = _contains_yield([node.value])
        self._walk(node.value)
        self._store(node.target, result_store=result_store)
        self._maybe_bind(node.target, node.value)

    def _walk_AugAssign(self, node: ast.AugAssign) -> None:
        # ``x.a += 1`` reads its own target: a read-modify-write of
        # live state, not a blind overwrite of a stale decision.
        self._walk(node.value)
        target = node.target
        if isinstance(target, ast.Name):
            self.binds.pop(target.id, None)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._walk(target.value)

    def _store(self, target: ast.expr,
               result_store: bool = False) -> None:
        if isinstance(target, ast.Name):
            self.binds.pop(target.id, None)
        elif isinstance(target, ast.Attribute):
            if (not result_store
                    and isinstance(target.value, ast.Name)
                    and target.value.id in self.tracked
                    and _is_state_name(target.attr, self.state_attrs)):
                self.writes.append(_Write(target.value.id, target.attr,
                                          self.seg, target.lineno,
                                          self._yloops()))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._store(elt, result_store=result_store)
        elif isinstance(target, (ast.Subscript, ast.Starred)):
            self._walk(target.value)

    def _maybe_bind(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name) \
                or not isinstance(value, ast.Attribute):
            return
        base = self._live_base(value)
        if (base is not None and base != target.id
                and _is_guard_name(value.attr, self.guard_attrs)):
            self.binds[target.id] = _Bind(
                target.id, base, value.attr, self.seg,
                target.lineno, self._yloops(), value_id=id(value))

    def _walk_test(self, test: ast.expr,
                   record_guard: bool = True) -> bool:
        """Walk an if/while test; when it reads any tracked-receiver
        attribute it is a guard point.  Returns that fact."""
        before = {key: len(evts) for key, evts in self.reads.items()}
        self._walk(test)
        reads_state = any(len(evts) > before.get(key, 0)
                          for key, evts in self.reads.items())
        if reads_state and record_guard:
            self.guard_tests.append(self._event(test))
        return reads_state

    def _walk_If(self, node: ast.If) -> None:
        self._walk_test(node.test)
        for stmt in node.body:
            self._walk(stmt)
        for stmt in node.orelse:
            self._walk(stmt)

    def _walk_While(self, node: ast.While) -> None:
        self._walk_test(node.test)
        has_yield = _contains_yield(node.body)
        self.loops.append((id(node), has_yield))
        for stmt in node.body:
            self._walk(stmt)
        self.loops.pop()
        if has_yield:
            # The test re-executes after every iteration, so its reads
            # are live again in the loop-exit segment — that is what
            # keeps ``while self.epoch == epoch: ... yield`` clean.
            # As a *guard* it only dominates code AFTER the loop (a
            # resumed body runs to the write before the test re-runs),
            # so the guard event is pinned to the loop's last line.
            reads_state = self._walk_test(node.test, record_guard=False)
            if reads_state:
                end = getattr(node, "end_lineno", node.lineno) \
                    or node.lineno
                self.guard_tests.append(
                    _Event(self.seg, end, self._yloops()))
        for stmt in node.orelse:
            self._walk(stmt)

    def _walk_For(self, node: ast.For) -> None:
        self._walk(node.iter)
        has_yield = _contains_yield(node.body)
        live = self._live_iter_target(node.iter)
        if has_yield and live is not None:
            self._check_loop_mutations(node, live)
        self.loops.append((id(node), has_yield))
        self._store(node.target)
        for stmt in node.body:
            self._walk(stmt)
        self.loops.pop()
        for stmt in node.orelse:
            self._walk(stmt)

    def _walk_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # nested generators are analyzed on their own visit

    _walk_AsyncFunctionDef = _walk_FunctionDef
    _walk_Lambda = _walk_FunctionDef  # type: ignore[assignment]

    # -- rule (c): mutate-while-iterating ----------------------------------
    def _live_iter_target(self, expr: ast.expr
                          ) -> Optional[Tuple[str, str]]:
        """(base, attr) when the loop iterates a live collection
        attribute (directly or via a dict view), else None."""
        if (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in {"keys", "values", "items"}
                and not expr.args):
            expr = expr.func.value
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id in self.tracked):
            return expr.value.id, expr.attr
        return None

    def _check_loop_mutations(self, loop: ast.For,
                              live: Tuple[str, str]) -> None:
        base, attr = live

        def is_target(expr: ast.expr) -> bool:
            return (isinstance(expr, ast.Attribute)
                    and expr.attr == attr
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == base)

        seen_lines: Set[int] = set()
        stack: List[ast.AST] = list(loop.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            hit = None
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATOR_METHODS
                    and is_target(node.func.value)):
                hit = f".{node.func.attr}()"
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if is_target(target) or (
                            isinstance(target, ast.Subscript)
                            and is_target(target.value)):
                        hit = "assignment"
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) \
                            and is_target(target.value):
                        hit = "del"
            if hit is not None and node.lineno not in seen_lines:
                seen_lines.add(node.lineno)
                self.emit("mutate-while-iterating", node,
                          f"'{base}.{attr}' is mutated ({hit}) inside a "
                          f"loop over it that also yields; iterate a "
                          f"snapshot (list({base}.{attr})) instead")

    # -- reporting ---------------------------------------------------------
    def _revalidated(self, bind: _Bind, use: _Event) -> bool:
        if bind.is_param:
            for (_, attr), events in self.reads.items():
                if not _guard_names_match(attr, bind.var):
                    continue
                if not _is_guard_name(attr, self.guard_attrs):
                    continue
                for r in events:
                    if r.seg > 0 and r.line <= use.line:
                        return True
            return False
        for r in self.reads.get((bind.base, bind.attr), ()):
            if r.nid == bind.value_id:
                continue
            if r.seg > bind.seg and r.line <= use.line:
                return True
        return False

    def _report(self) -> None:
        # rule (a): stale-guard-across-yield, one finding per snapshot
        reported: Set[int] = set()
        receivers = {base for base, _ in self.reads}
        for bind, use in self.uses:
            if id(bind) in reported:
                continue
            if bind.is_param and bind.var in receivers:
                continue    # an object we call into, not a snapshot
            crossed = (use.seg > bind.seg
                       or bool(use.yloops - bind.yloops))
            if not crossed or self._revalidated(bind, use):
                continue
            reported.add(id(bind))
            later = sum(1 for b, u in self.uses
                        if b is bind and u.line > use.line)
            more = f" (+{later} later stale use(s))" if later else ""
            if bind.is_param:
                # Anchor at the def line: the pragma argument ("this
                # parameter is not a live guard") belongs there.
                anchor = _Event(use.seg, bind.line, use.yloops)
                what = (f"parameter '{bind.var}' carries a guard value "
                        f"from before the last scheduling point")
            else:
                anchor = use
                what = (f"'{bind.var}' snapshots guard "
                        f"'{bind.base}.{bind.attr}' at line {bind.line}")
            self.emit("stale-guard-across-yield", anchor,
                      f"{what} and is used after a yield without "
                      f"re-reading the live attribute{more}")

        # rule (b): write-after-yield-unguarded
        for w in self.writes:
            if w.seg == 0 and not w.yloops:
                continue            # pre-yield: the segment is atomic
            key = (w.base, w.attr)
            fresh = any(r.seg == w.seg and r.line <= w.line
                        for r in self.reads.get(key, ()))
            guarded = any(g.seg == w.seg and g.line <= w.line
                          for g in self.guard_tests)
            if not fresh and not guarded:
                self.emit("write-after-yield-unguarded", w,
                          f"'{w.base}.{w.attr}' is written after a yield "
                          f"with no guard re-checked (and no re-read of "
                          f"'{w.attr}') since the last scheduling point")


def _attr_chain(expr: ast.expr) -> Tuple[Optional[str], List[str]]:
    """``replica.node.zk`` -> ('replica', ['node', 'zk']); None for
    anything that is not a plain attribute chain on a name."""
    attrs: List[str] = []
    while isinstance(expr, ast.Attribute):
        attrs.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id, attrs[::-1]
    return None, attrs


class _ModuleWalker(ast.NodeVisitor):
    def __init__(self, path: str, lines: List[str],
                 process_names: Set[str], continuation_names: Set[str],
                 guard_attrs: FrozenSet[str]) -> None:
        self.path = path
        self.lines = lines
        self.process_names = process_names
        self.continuation_names = continuation_names
        self.guard_attrs = guard_attrs
        self.findings: List[Finding] = []
        self._param_stack: List[List[str]] = []

    def _emit_for(self, func: ast.FunctionDef, kind: str):
        def emit(rule: str, node, message: str) -> None:
            if isinstance(node, (_Write, _Event)):
                line = node.line
            else:
                line = getattr(node, "lineno", func.lineno)
            code = ""
            if 1 <= line <= len(self.lines):
                code = self.lines[line - 1].strip()
            self.findings.append(Finding(
                rule=rule, path=self.path, line=line,
                message=f"in {kind} {func.name!r}: {message}",
                code=code))
        return emit

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._param_stack.append(_all_param_names(node.args))
        try:
            is_generator = _contains_yield(node.body)
            if (node.name in self.process_names if is_generator
                    else node.name in self.continuation_names):
                seed = {"self"}
                for params in self._param_stack:
                    seed.update(params)
                kind = "process" if is_generator else "continuation"
                analysis = _FuncAnalysis(node, seed, self.guard_attrs,
                                         self._emit_for(node, kind),
                                         continuation=not is_generator)
                analysis.run()
            self.generic_visit(node)
        finally:
            self._param_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


def lint_atomicity(source: str, path: str,
                   spawned: Iterable[str] = (),
                   guard_attrs: Optional[Iterable[str]] = None,
                   continuations: Iterable[str] = ()) -> List[Finding]:
    """Run the cross-yield atomicity rules over one module's source.

    ``spawned`` carries process-body names discovered in *other*
    modules (the runner passes the cross-module ``yield from``
    closure); local ``spawn`` sites and ``yield from`` edges are added
    here.  ``continuations`` likewise carries functions parked from
    other modules; local parking sites are added here.  ``guard_attrs``
    overrides :data:`DEFAULT_GUARD_ATTRS`.
    """
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    local_spawned = collect_spawned(tree) | set(spawned)
    edges = collect_yield_edges(tree)
    process_names = close_process_names(local_spawned, edges)
    guards = (frozenset(guard_attrs) if guard_attrs is not None
              else DEFAULT_GUARD_ATTRS)
    walker = _ModuleWalker(path, lines, process_names,
                           collect_continuations(tree) | set(continuations),
                           guards)
    walker.visit(tree)
    return sorted(walker.findings, key=lambda f: (f.line, f.rule))
