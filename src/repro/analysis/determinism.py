"""AST determinism lints for simulation-visible code.

The simulator's contract is that a run is a pure function of ``(seed,
config)``.  Python makes that easy to break silently: an ``import
random`` picks up ambient global state, ``time.time()`` leaks the wall
clock, iterating a ``set`` of objects visits them in address order, and
a process that yields a non-:class:`~repro.sim.events.Event` dies at
runtime in whatever schedule happens to reach it first.  Each rule here
catches one of those hazard classes at parse time:

``nondet-import``
    Ambient entropy: importing ``random``/``secrets``/``uuid``/``time``/
    ``datetime``, or calling ``time.time()``, ``datetime.now()``,
    ``os.urandom()``, ``uuid.uuid4()`` etc.  All randomness must come
    from :class:`~repro.sim.rng.RngRegistry` streams.

``real-io``
    Real-world side effects inside the simulation: ``threading`` /
    ``subprocess`` / ``socket`` / ``asyncio`` imports, and ``open()`` /
    ``print()`` / ``input()`` calls.  Sim code talks to the simulated
    network and disks only.

``set-iteration``
    Order-escaping iteration over a ``set``: a ``for`` loop, list
    comprehension, or ``list()``/``tuple()`` materialization of a set
    expression that is not wrapped in ``sorted()``.  Sets of objects
    iterate in address order, which varies run to run.

``dict-order``
    A ``for`` loop over ``.keys()``/``.values()``/``.items()`` whose
    body performs scheduling-visible effects (spawning, scheduling,
    sending, responding, interrupting, crashing...).  Dict order is
    insertion order in CPython, which is deterministic *only if* the
    insertion order itself is; such loops must either ``sorted(...)``
    or carry a pragma justifying the insertion order.

``id-hash-order``
    ``id()`` or ``hash()`` used as an ordering key (``sorted(xs,
    key=id)`` and friends).  Addresses and object hashes vary between
    runs.

``yield-discipline``
    A ``yield`` of a literal/constant inside a *process* body.  Every
    ``yield`` in a generator driven by :class:`~repro.sim.process.Process`
    must produce an ``Event``; yielding ``None`` or a literal is a
    guaranteed runtime failure.  Process bodies are found by tracing
    ``spawn(...)``/``Process(...)`` call sites and
    closing over ``yield from`` edges.

``write-only-slot``
    A name in a class's ``__slots__`` that no module ever *reads*
    (``x.name`` in load context, ``getattr``/``attrgetter`` by string) —
    neither the linted tree nor the project's tests and benchmarks.
    Dead state costs a store per construction on the hot path and can
    hide a reference cycle (``Timeout._entry`` did both).  Whole-tree:
    :func:`write_only_slots` is fed by the runner, not ``lint_source``.

``unset-option``
    A ``*Config`` dataclass field nothing outside its module *sets* (call
    keyword, string dict key, attribute store, config-file key).

``unpassed-parameter``
    A defaulted parameter no call in the project passes, by keyword or
    position.  Calls match by name (``Cls(...)`` is ``Cls.__init__``); a
    ``*args``/``**kwargs`` call passes everything; a function used as a
    value (``partial(f)``, ``then=f``, a registry) and dunders other
    than ``__init__`` are exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .findings import Finding

__all__ = ["DETERMINISM_RULES", "collect_spawned", "collect_continuations",
           "collect_yield_edges", "close_process_names", "lint_source",
           "loaded_attributes",
           "write_only_slots", "set_names", "unset_options",
           "collect_calls", "unpassed_parameters"]

DETERMINISM_RULES: Dict[str, str] = {
    "nondet-import": "ambient randomness or wall-clock access; use "
                     "RngRegistry streams and sim.now",
    "real-io": "real I/O or threading inside simulation code",
    "set-iteration": "order-escaping iteration over a set; wrap in "
                     "sorted(...)",
    "dict-order": "dict iteration order feeds scheduling; sort or "
                  "justify insertion order with a pragma",
    "id-hash-order": "id()/hash() used as an ordering key",
    "yield-discipline": "process bodies must yield sim Events, not "
                        "literals",
    "write-only-slot": "slot is stored but never read anywhere; delete "
                       "it and its stores",
    "unset-option": "config field is never given a second value; make "
                    "it a constant or derive it",
    "unpassed-parameter": "no call passes this parameter; make its "
                          "default the body's value",
}

#: modules whose mere import is an entropy hazard
_NONDET_MODULES = {"random", "secrets", "uuid", "time", "datetime"}
#: modules that mean real-world concurrency or I/O
_REAL_IO_MODULES = {"threading", "subprocess", "socket", "asyncio",
                    "multiprocessing", "selectors", "concurrent",
                    "signal"}
#: ``module.attr`` calls that read ambient entropy / wall clock
_NONDET_CALLS = {
    ("time", "time"), ("time", "monotonic"), ("time", "perf_counter"),
    ("time", "time_ns"), ("time", "monotonic_ns"), ("time", "sleep"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
    ("os", "urandom"), ("os", "getrandom"),
    ("uuid", "uuid1"), ("uuid", "uuid3"), ("uuid", "uuid4"),
    ("uuid", "uuid5"),
}
_REAL_IO_CALLS = {"open", "input", "print"}
#: callables whose invocation inside a loop body makes the iteration
#: order scheduling- or message-order-visible
_EFFECT_NAMES = {
    "spawn", "schedule", "call_at", "send", "request",
    "respond", "interrupt", "crash", "restart", "boot", "lose_disk",
    "expire_session_now", "succeed", "fail", "block", "heal",
    "set_drop_rate", "set_extra_delay", "step_down", "force", "append",
    # topology: a later place() of an endpoint wins, so placing
    # endpoints while iterating a dict is a hazard
    "place",
}
_SPAWN_NAMES = {"spawn", "Process"}
#: calls that park a plain function to run after the world has moved:
#: the CPU-charge primitive, a node's guarded wait or completion, a raw
#: event callback — and any call's ``then=`` (a force's, a reply's)
_PARK_NAMES = {"charge", "Charge", "after", "guarded", "add_callback"}
#: reducers whose result does not depend on iteration order
_ORDER_INSENSITIVE = {"sorted", "len", "sum", "min", "max", "set",
                      "frozenset", "any", "all"}


def _call_name(func: ast.expr) -> Optional[str]:
    """The bare name a call targets: ``f(...)`` -> f, ``a.b.f(...)`` -> f."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _attr_base_name(func: ast.expr) -> Optional[str]:
    """``time.time`` -> 'time'; ``datetime.datetime.now`` -> 'datetime'."""
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name):
            return value.id
        if isinstance(value, ast.Attribute):
            return value.attr
    return None


def _is_sorted_wrapped(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call)
            and _call_name(node.func) == "sorted")


# ---------------------------------------------------------------------------
# Process-body discovery (for yield-discipline)
# ---------------------------------------------------------------------------

def collect_spawned(tree: ast.AST) -> Set[str]:
    """Names of generator functions handed to ``spawn``-like calls.

    Matches ``spawn(sim, writer(...))``, ``self.spawn(self._flush(), ..)``,
    ``Process(sim, gen(...))`` — the first ``Call`` argument names the
    process body.
    """
    spawned: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node.func) not in _SPAWN_NAMES:
            continue
        for arg in node.args:
            if isinstance(arg, ast.Call):
                name = _call_name(arg.func)
                if name is not None:
                    spawned.add(name)
    return spawned


def collect_continuations(tree: ast.AST) -> Set[str]:
    """Names of functions handed to a parking call — ``charge(cpu, t,
    self._log_propose, req)``, ``node.guarded(self._ack_propose, req)``,
    ``ev.add_callback(partial(self._on_force, lsn))``,
    ``wal.append_batch(batch, then=_forced)`` — bare or under
    ``partial``.  Such a function runs after a scheduling point it does
    not contain: its whole body is a post-yield segment.  Every bare
    name or attribute argument is taken (``cpu``, ``req``...); only
    those that name a function defined in the tree ever matter.
    """
    parked: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        args = [kw.value for kw in node.keywords if kw.arg == "then"]
        if _call_name(node.func) in _PARK_NAMES:
            args += node.args
        for arg in args:
            if (isinstance(arg, ast.Call)
                    and _call_name(arg.func) == "partial" and arg.args):
                arg = arg.args[0]
            if isinstance(arg, (ast.Name, ast.Attribute)):
                parked.add(_call_name(arg))
    return parked


def collect_yield_edges(tree: ast.AST) -> Dict[str, Set[str]]:
    """``f -> {g, ...}`` when generator ``f`` contains ``yield from g(...)``.

    Used to close the process-name set: a generator delegated to from a
    process body is itself process code.
    """
    edges: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.YieldFrom) and isinstance(sub.value,
                                                            ast.Call):
                callee = _call_name(sub.value.func)
                if callee is not None:
                    edges.setdefault(node.name, set()).add(callee)
    return edges


def close_process_names(spawned: Iterable[str],
                        edges: Dict[str, Set[str]]) -> Set[str]:
    """Transitive closure of the spawned set over yield-from edges."""
    closed = set(spawned)
    frontier = list(closed)
    while frontier:
        name = frontier.pop()
        for callee in edges.get(name, ()):
            if callee not in closed:
                closed.add(callee)
                frontier.append(callee)
    return closed


# ---------------------------------------------------------------------------
# Set-typed expression tracking
# ---------------------------------------------------------------------------

def _annotation_is_set(ann: ast.expr) -> bool:
    if isinstance(ann, ast.Name):
        return ann.id in {"set", "frozenset", "Set", "FrozenSet",
                          "MutableSet"}
    if isinstance(ann, ast.Subscript):
        return _annotation_is_set(ann.value)
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        head = ann.value.split("[", 1)[0].strip()
        return head in {"set", "frozenset", "Set", "FrozenSet",
                        "MutableSet"}
    return False


def _expr_is_set_literalish(node: ast.expr) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call):
        return _call_name(node.func) in {"set", "frozenset"}
    return False


class _SetNames(ast.NodeVisitor):
    """Collect plain names and attribute names bound to set values."""

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self.attrs: Set[str] = set()

    def _record(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
        elif isinstance(target, ast.Attribute):
            self.attrs.add(target.attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _expr_is_set_literalish(node.value):
            for target in node.targets:
                self._record(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (_annotation_is_set(node.annotation)
                or (node.value is not None
                    and _expr_is_set_literalish(node.value))):
            self._record(node.target)
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# The linter proper
# ---------------------------------------------------------------------------

class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, lines: Sequence[str], sim_visible: bool,
                 process_names: Set[str], set_names: Set[str],
                 set_attrs: Set[str]) -> None:
        self.path = path
        self.lines = lines
        self.sim_visible = sim_visible
        self.process_names = process_names
        self.set_names = set_names
        self.set_attrs = set_attrs
        self.findings: List[Finding] = []
        self._func_stack: List[ast.FunctionDef] = []

    # -- helpers -----------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        code = ""
        if 1 <= line <= len(self.lines):
            code = self.lines[line - 1].strip()
        self.findings.append(Finding(rule=rule, path=self.path, line=line,
                                     message=message, code=code))

    def _is_set_expr(self, node: ast.expr) -> bool:
        if _expr_is_set_literalish(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_attrs
        return False

    def _is_dict_view(self, node: ast.expr) -> bool:
        """``x.keys() / .values() / .items()``, possibly list()-wrapped."""
        if (isinstance(node, ast.Call)
                and _call_name(node.func) in {"list", "tuple"}
                and len(node.args) == 1):
            node = node.args[0]
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in {"keys", "values", "items"}
                and not node.args)

    # -- imports -----------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".", 1)[0]
            if root in _NONDET_MODULES:
                self._emit("nondet-import", node,
                           f"import of {alias.name!r}: "
                           f"{DETERMINISM_RULES['nondet-import']}")
            elif self.sim_visible and root in _REAL_IO_MODULES:
                self._emit("real-io", node,
                           f"import of {alias.name!r}: "
                           f"{DETERMINISM_RULES['real-io']}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".", 1)[0]
        if node.level == 0 and root in _NONDET_MODULES:
            self._emit("nondet-import", node,
                       f"import from {node.module!r}: "
                       f"{DETERMINISM_RULES['nondet-import']}")
        elif (node.level == 0 and self.sim_visible
                and root in _REAL_IO_MODULES):
            self._emit("real-io", node,
                       f"import from {node.module!r}: "
                       f"{DETERMINISM_RULES['real-io']}")
        self.generic_visit(node)

    # -- calls -------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        base = _attr_base_name(node.func)
        if base is not None and (base, name) in _NONDET_CALLS:
            self._emit("nondet-import", node,
                       f"call to {base}.{name}(): "
                       f"{DETERMINISM_RULES['nondet-import']}")
        if (self.sim_visible and isinstance(node.func, ast.Name)
                and name in _REAL_IO_CALLS):
            self._emit("real-io", node,
                       f"call to {name}(): real I/O in simulation code")
        # id()/hash() as ordering keys inside sorted()/min()/max()
        if name in {"sorted", "min", "max"}:
            for kw in node.keywords:
                if kw.arg == "key":
                    self._check_order_key(kw.value)
        # list(s)/tuple(s) over a set expression
        if (self.sim_visible and name in {"list", "tuple"}
                and len(node.args) == 1
                and self._is_set_expr(node.args[0])):
            self._emit("set-iteration", node,
                       f"{name}() over a set: "
                       f"{DETERMINISM_RULES['set-iteration']}")
        self.generic_visit(node)

    def _check_order_key(self, key: ast.expr) -> None:
        hazard = None
        if isinstance(key, ast.Name) and key.id in {"id", "hash"}:
            hazard = key.id
        elif isinstance(key, ast.Lambda):
            for sub in ast.walk(key.body):
                if (isinstance(sub, ast.Call)
                        and _call_name(sub.func) in {"id", "hash"}):
                    hazard = _call_name(sub.func)
                    break
        if hazard is not None:
            self._emit("id-hash-order", key,
                       f"ordering by {hazard}(): "
                       f"{DETERMINISM_RULES['id-hash-order']}")

    # -- iteration ---------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if self.sim_visible and not _is_sorted_wrapped(node.iter):
            if self._is_set_expr(node.iter):
                self._emit("set-iteration", node,
                           "for-loop over a set: "
                           f"{DETERMINISM_RULES['set-iteration']}")
            elif (self._is_dict_view(node.iter)
                    and self._body_has_effects(node.body)):
                self._emit("dict-order", node,
                           "scheduling-visible loop over a dict view: "
                           f"{DETERMINISM_RULES['dict-order']}")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        if self.sim_visible:
            for gen in node.generators:
                if (self._is_set_expr(gen.iter)
                        and not _is_sorted_wrapped(gen.iter)):
                    self._emit("set-iteration", node,
                               "list comprehension over a set: "
                               f"{DETERMINISM_RULES['set-iteration']}")
        self.generic_visit(node)

    def _body_has_effects(self, body: List[ast.stmt]) -> bool:
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                    return True
                if (isinstance(sub, ast.Call)
                        and _call_name(sub.func) in _EFFECT_NAMES):
                    return True
        return False

    # -- yield discipline ---------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node)
        if self.sim_visible and node.name in self.process_names:
            self._check_yields(node)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _check_yields(self, func: ast.FunctionDef) -> None:
        # Walk the function body without descending into nested defs:
        # those are separate generators checked on their own visit.
        stack: List[ast.AST] = list(ast.iter_child_nodes(func))
        while stack:
            sub = stack.pop()
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(sub))
            if not isinstance(sub, ast.Yield):
                continue
            value = sub.value
            bad: Optional[str] = None
            if value is None:
                bad = "bare yield"
            elif isinstance(value, ast.Constant):
                bad = f"yield of constant {value.value!r}"
            elif isinstance(value, (ast.Tuple, ast.List, ast.Dict,
                                    ast.Set, ast.JoinedStr)):
                bad = "yield of a literal container"
            if bad is not None:
                self._emit("yield-discipline", sub,
                           f"{bad} in process {func.name!r}: "
                           f"{DETERMINISM_RULES['yield-discipline']}")


def lint_source(source: str, path: str, sim_visible: bool = True,
                spawned: Iterable[str] = ()) -> List[Finding]:
    """Run every determinism rule over one module's source.

    ``spawned`` carries process-body names discovered in *other*
    modules (a generator defined here may be spawned elsewhere).
    Pragmas and baseline are applied by the runner, not here.
    """
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    local_spawned = collect_spawned(tree) | set(spawned)
    edges = collect_yield_edges(tree)
    process_names = close_process_names(local_spawned, edges)
    set_collector = _SetNames()
    set_collector.visit(tree)
    linter = _Linter(path, lines, sim_visible, process_names,
                     set_collector.names, set_collector.attrs)
    linter.visit(tree)
    return sorted(linter.findings, key=lambda f: (f.line, f.rule))


# -- write-only slots (whole-tree: the runner feeds it) ----------------------

def loaded_attributes(tree: ast.AST) -> Set[str]:
    """Attribute names a module reads: ``x.name`` loads and the string
    arguments of ``getattr``/``hasattr``/``attrgetter`` calls."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                names.add(node.attr)
        elif (isinstance(node, ast.Call) and _call_name(node.func)
                in {"getattr", "hasattr", "attrgetter"}):
            names.update(part for arg in node.args
                         if isinstance(arg, ast.Constant)
                         and isinstance(arg.value, str)
                         for part in arg.value.split("."))
    return names


def write_only_slots(tree: ast.AST, path: str, lines: Sequence[str],
                     loaded: Set[str]) -> List[Finding]:
    """``__slots__`` names of this module's classes missing from
    ``loaded`` (the union of :func:`loaded_attributes` over every module
    that could read them)."""
    findings: List[Finding] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if not (isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets)):
                continue
            for elt in ast.walk(stmt.value):
                if (isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                        and not elt.value.startswith("__")
                        and elt.value not in loaded):
                    findings.append(Finding(
                        rule="write-only-slot", path=path, line=elt.lineno,
                        message=f"{cls.name}.{elt.value}: "
                                f"{DETERMINISM_RULES['write-only-slot']}",
                        code=lines[elt.lineno - 1].strip()))
    return findings


def set_names(tree: ast.AST) -> Set[str]:
    """Option names a module may set: keywords, dict keys, attribute stores."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword):
            names.add(node.arg)
        elif isinstance(node, ast.Dict):
            names.update(k.value for k in node.keys
                         if isinstance(k, ast.Constant))
        elif isinstance(node, ast.Attribute) and type(node.ctx) is ast.Store:
            names.add(node.attr)
    return names


def unset_options(tree: ast.AST, path: str, lines: Sequence[str],
                  set_elsewhere: Set[str]) -> List[Finding]:
    """Fields of this module's ``*Config`` dataclasses missing from
    ``set_elsewhere`` (every other module's :func:`set_names`)."""
    return [Finding(rule="unset-option", path=path, line=stmt.lineno,
                    message=f"{cls.name}.{stmt.target.id}: "
                            f"{DETERMINISM_RULES['unset-option']}",
                    code=lines[stmt.lineno - 1].strip())
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name.endswith("Config")
            and any(_call_name(getattr(dec, "func", dec)) == "dataclass"
                    for dec in cls.decorator_list)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and stmt.target.id not in set_elsewhere]


# -- unpassed parameters (whole-tree: the runner feeds it) -------------------

def collect_calls(tree: ast.AST, passed: Dict[str, Set], valued: Set[str]
                  ) -> None:
    """Fold a module's calls into ``passed`` (callee name -> keywords and
    positional indices passed; ``"*"`` for a star call) and the names it
    uses as values — not a call's target, not an annotation — into
    ``valued``.  ``cls(...)`` in a class body calls that class, and
    ``super().__init__(...)`` the bases."""
    skip: Set[int] = set()
    owner: Dict[int, ast.ClassDef] = {}
    for node in ast.walk(tree):         # breadth-first: outer classes first
        if isinstance(node, ast.ClassDef):
            owner.update((id(n), node) for n in ast.walk(node))
        ann = getattr(node, "annotation", None) or getattr(
            node, "returns", None)
        if isinstance(ann, ast.AST):
            skip.update(map(id, ast.walk(ann)))
        if isinstance(node, ast.Call):
            func, cls = node.func, owner.get(id(node))
            skip.add(id(func))
            names = [_call_name(func)]
            if names == ["cls"] and cls is not None:
                names = [cls.name]
            elif isinstance(func, ast.Attribute) and func.attr == "__init__":
                names = [_call_name(b) for b in cls.bases] if cls else []
            for got in (passed.setdefault(n, set()) for n in names if n):
                got.update(range(len(node.args)))
                got.update(k.arg or "*" for k in node.keywords)
                got.update("*" for a in node.args
                           if isinstance(a, ast.Starred))
        elif id(node) not in skip and isinstance(
                getattr(node, "ctx", None), ast.Load):
            valued.add(getattr(node, "id", getattr(node, "attr", "")))


def unpassed_parameters(tree: ast.AST, path: str, lines: Sequence[str],
                        passed: Dict[str, Set], valued: Set[str]
                        ) -> List[Finding]:
    """Defaulted parameters of this module's functions that no call in
    ``passed`` (:func:`collect_calls` over every module) passes."""
    owners: Dict[int, str] = {}
    findings: List[Finding] = []
    for fn in ast.walk(tree):           # a class before its methods
        if isinstance(fn, ast.ClassDef):
            owners.update((id(stmt), fn.name) for stmt in fn.body)
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = owners.get(id(fn), "") if fn.name == "__init__" else fn.name
        got = passed.get(name, set())
        if (name in valued or "*" in got or name == fn.name
                and fn.name.startswith("__") and fn.name.endswith("__")):
            continue
        # a method's first positional binds ``self``; an unbound call's
        # would bind it too, so a shift of one never flags a passed one
        shift = int(id(fn) in owners and "staticmethod" not in map(
            _call_name, fn.decorator_list))
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        unpassed = [a for i, a in enumerate(positional) if i >= first
                    and a.arg not in got and i - shift not in got]
        unpassed += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                     if d is not None and a.arg not in got]
        findings.extend(Finding(
            rule="unpassed-parameter", path=path, line=a.lineno,
            message=f"{fn.name}({a.arg}): "
                    f"{DETERMINISM_RULES['unpassed-parameter']}",
            code=lines[a.lineno - 1].strip()) for a in unpassed)
    return findings
