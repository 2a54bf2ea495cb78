"""Protocol exhaustiveness checks over message catalogs and dispatchers.

The replication and baseline protocols dispatch frozen-dataclass
messages through a type-keyed table (``core/node.py::_handlers``) or an
``isinstance`` chain (``baseline/node.py::_dispatch``), plus the handler
methods they call.  Nothing ties the catalog in ``messages.py`` to
those: add a message type and forget the entry, and the message is
silently dropped by the endpoint — the classic "partition heals but the
follower never catches up" bug class.  These checks close the loop
statically:

``unhandled-message``
    A message type that the protocol *sends* (or defines for sending)
    with no table entry or ``isinstance`` branch in a dispatcher.
    Reply-only types (returned via ``req.respond``/return annotations)
    and component types (only embedded in other messages' fields) are
    exempt automatically.

``dead-message``
    A message type never constructed anywhere outside its defining
    module — catalog rot, or a protocol feature that silently stopped
    being exercised.

``stale-epoch``
    A dispatcher branch for an epoch-carrying message whose handler
    chain never reads ``.epoch``.  Accepting a message from a deposed
    leader without an epoch check is how split-brain sneaks past the
    coordination service (§7.2 of the paper).

``missing-size``
    A wire call (``req.respond``, ``endpoint.send``,
    ``endpoint.request``) that omits its ``size=`` argument and
    silently bills the transport default to the simulated network —
    the bug class where every reply "weighed" 128 bytes regardless of
    payload.  Calls that pass ``size`` positionally or forward
    ``**kwargs`` are exempt.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .findings import Finding

__all__ = ["ProtocolSpec", "MessageInfo", "DEFAULT_PROTOCOLS",
           "check_protocol", "check_protocols", "missing_size_calls"]

PROTOCOL_RULES: Dict[str, str] = {
    "unhandled-message": "message type sent but matched by no "
                         "dispatch-table entry or isinstance branch",
    "dead-message": "message type never constructed outside its "
                    "defining module",
    "stale-epoch": "epoch-carrying message handled without an epoch "
                   "check",
    "missing-size": "wire call omits its size= argument and bills the "
                    "transport default to the simulated network",
}


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol: its message catalog and the modules that dispatch
    and construct its messages (paths relative to the lint root)."""

    name: str
    messages: str
    dispatchers: Tuple[str, ...]
    #: modules searched for constructor calls (in addition to the
    #: dispatchers); usually the whole package
    senders: Tuple[str, ...] = ()


#: The repo's real protocols, relative to ``src/repro``.
DEFAULT_PROTOCOLS: Tuple[ProtocolSpec, ...] = (
    ProtocolSpec(
        name="core",
        messages="core/messages.py",
        dispatchers=("core/node.py", "core/replication.py"),
        senders=("core/api.py", "core/recovery.py", "core/election.py",
                 "core/loadbalance.py", "core/masterslave.py",
                 "core/cluster.py", "core/multiop.py",
                 "core/commitqueue.py", "core/rebalance.py"),
    ),
    ProtocolSpec(
        name="baseline",
        messages="baseline/messages.py",
        dispatchers=("baseline/node.py",),
        senders=("baseline/client.py", "baseline/cluster.py"),
    ),
)


@dataclass
class MessageInfo:
    """What the catalog module declares about one message type."""

    name: str
    line: int
    fields: Set[str] = field(default_factory=set)
    #: message classes referenced inside this class's field annotations
    embeds: Set[str] = field(default_factory=set)


def _annotation_names(node: ast.expr) -> Set[str]:
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            for token in sub.value.replace("[", " ").replace("]", " ") \
                    .replace(",", " ").split():
                names.add(token.strip("'\" "))
    return names


def parse_catalog(source: str, path: str) -> Dict[str, MessageInfo]:
    """Top-level dataclasses of a messages module, with their fields."""
    tree = ast.parse(source, filename=path)
    catalog: Dict[str, MessageInfo] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        is_dataclass = any(
            (isinstance(dec, ast.Name) and dec.id == "dataclass")
            or (isinstance(dec, ast.Call)
                and isinstance(dec.func, (ast.Name, ast.Attribute))
                and (getattr(dec.func, "id", None) == "dataclass"
                     or getattr(dec.func, "attr", None) == "dataclass"))
            for dec in node.decorator_list)
        if not is_dataclass:
            continue
        info = MessageInfo(name=node.name, line=node.lineno)
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                              ast.Name):
                info.fields.add(stmt.target.id)
                info.embeds |= _annotation_names(stmt.annotation)
        catalog[node.name] = info
    # keep only embeds that are sibling message types
    for info in catalog.values():
        info.embeds &= set(catalog) - {info.name}
    return catalog


# ---------------------------------------------------------------------------
# Dispatcher-side facts
# ---------------------------------------------------------------------------

def _isinstance_targets(call: ast.Call) -> Set[str]:
    """Class names matched by an ``isinstance(x, T)`` call."""
    if len(call.args) != 2:
        return set()
    spec = call.args[1]
    names: Set[str] = set()
    candidates = spec.elts if isinstance(spec, ast.Tuple) else [spec]
    for cand in candidates:
        if isinstance(cand, ast.Name):
            names.add(cand.id)
        elif isinstance(cand, ast.Attribute):
            names.add(cand.attr)
    return names


@dataclass
class DispatcherFacts:
    """Everything the checker needs from one dispatcher module."""

    path: str
    handled: Dict[str, int] = field(default_factory=dict)  # type -> line
    #: isinstance line -> method names called in that branch's body
    branch_calls: Dict[str, Set[str]] = field(default_factory=dict)
    #: isinstance line -> whether the branch body references ``epoch``
    branch_epoch: Dict[str, bool] = field(default_factory=dict)
    #: method name -> whether its body references ``epoch``
    method_epoch: Dict[str, bool] = field(default_factory=dict)
    #: method name -> method names it calls
    method_calls: Dict[str, Set[str]] = field(default_factory=dict)
    return_annotations: Set[str] = field(default_factory=set)


def _called_names(nodes: Sequence[ast.stmt]) -> Set[str]:
    names: Set[str] = set()
    for stmt in nodes:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call):
                func = sub.func
                if isinstance(func, ast.Attribute):
                    names.add(func.attr)
                elif isinstance(func, ast.Name):
                    names.add(func.id)
    return names


def _mentions_epoch(nodes: Sequence[ast.stmt]) -> bool:
    for stmt in nodes:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Attribute) and sub.attr == "epoch":
                return True
            if isinstance(sub, ast.Name) and sub.id == "epoch":
                return True
    return False


def parse_dispatcher(source: str, path: str) -> DispatcherFacts:
    tree = ast.parse(source, filename=path)
    facts = DispatcherFacts(path=path)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.method_epoch[node.name] = _mentions_epoch(node.body)
            facts.method_calls[node.name] = _called_names(node.body)
            if node.returns is not None:
                facts.return_annotations |= _annotation_names(node.returns)
        if isinstance(node, ast.If):
            test = node.test
            calls = [sub for sub in ast.walk(test)
                     if isinstance(sub, ast.Call)
                     and isinstance(sub.func, ast.Name)
                     and sub.func.id == "isinstance"]
            for call in calls:
                for target in _isinstance_targets(call):
                    facts.handled.setdefault(target, node.lineno)
                    facts.branch_calls.setdefault(target, set()).update(
                        _called_names(node.body))
                    facts.branch_epoch[target] = (
                        facts.branch_epoch.get(target, False)
                        or _mentions_epoch(node.body)
                        or _mentions_epoch([ast.Expr(value=test)]))
        if isinstance(node, ast.Dict):
            # A type-keyed table ``{Propose: self._on_propose, ...}``
            for key, value in zip(node.keys, node.values):
                if (isinstance(key, ast.Name) and key.id[:1].isupper()
                        and isinstance(value, (ast.Name, ast.Attribute))):
                    facts.handled.setdefault(key.id, key.lineno)
                    facts.branch_calls.setdefault(key.id, set()).add(
                        getattr(value, "attr", None) or value.id)
    return facts


#: minimum positional-arg count that covers ``size`` positionally
_TRANSPORT_ARITY = {"respond": 2, "send": 3, "request": 3}


def missing_size_calls(source: str, path: str,
                       catalog: Dict[str, MessageInfo],
                       proto: str) -> List[Finding]:
    """Wire calls in one module that omit their ``size=`` argument.

    ``respond`` lives only on request objects, so every receiver
    counts; ``send``/``request`` are matched only on ``endpoint``
    receivers (``self.endpoint``, ``node.endpoint``, a bare
    ``endpoint``) so generator ``.send()`` and the like stay exempt.
    """
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) \
                or not isinstance(node.func, ast.Attribute):
            continue
        meth = node.func.attr
        arity = _TRANSPORT_ARITY.get(meth)
        if arity is None:
            continue
        if meth in ("send", "request"):
            base = node.func.value
            base_name = base.attr if isinstance(base, ast.Attribute) \
                else base.id if isinstance(base, ast.Name) else ""
            if base_name != "endpoint":
                continue
        if any(kw.arg == "size" or kw.arg is None
               for kw in node.keywords):
            continue              # explicit size, or **kwargs forwards it
        if len(node.args) >= arity:
            continue              # size passed positionally
        payload_idx = 0 if meth == "respond" else 1
        carrying = ""
        if len(node.args) > payload_idx:
            arg = node.args[payload_idx]
            if isinstance(arg, ast.Call):
                fname = getattr(arg.func, "id",
                                getattr(arg.func, "attr", None))
                if fname in catalog:
                    carrying = f" carrying {fname}"
        code = ""
        if 1 <= node.lineno <= len(lines):
            code = lines[node.lineno - 1].strip()
        findings.append(Finding(
            rule="missing-size", path=path, line=node.lineno,
            message=f"[{proto}] {meth}(){carrying} omits size=: "
                    f"{PROTOCOL_RULES['missing-size']}",
            code=code))
    return findings


def _constructed_names(source: str, path: str) -> Set[str]:
    """Class names instantiated anywhere in a module (CamelCase calls)."""
    tree = ast.parse(source, filename=path)
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name and name[:1].isupper():
                names.add(name)
    return names


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

def check_protocol(spec: ProtocolSpec, root: Path) -> List[Finding]:
    messages_path = root / spec.messages
    source = messages_path.read_text(encoding="utf-8")
    catalog = parse_catalog(source, spec.messages)

    dispatcher_facts: List[DispatcherFacts] = []
    for rel in spec.dispatchers:
        text = (root / rel).read_text(encoding="utf-8")
        dispatcher_facts.append(parse_dispatcher(text, rel))

    findings: List[Finding] = []
    constructed: Set[str] = set()
    reply_types: Set[str] = set()
    for rel in spec.dispatchers + spec.senders:
        full = root / rel
        if not full.exists():
            continue
        text = full.read_text(encoding="utf-8")
        constructed |= _constructed_names(text, rel)
        reply_types |= parse_dispatcher(text, rel).return_annotations
        findings.extend(missing_size_calls(text, rel, catalog, spec.name))

    handled: Set[str] = set()
    for facts in dispatcher_facts:
        handled |= set(facts.handled)

    components = {name for info in catalog.values() for name in info.embeds}

    lines = source.splitlines()

    def catalog_code(info: MessageInfo) -> str:
        if 1 <= info.line <= len(lines):
            return lines[info.line - 1].strip()
        return ""

    for name in sorted(catalog):
        info = catalog[name]
        is_dead = name not in constructed
        if is_dead:
            findings.append(Finding(
                rule="dead-message", path=spec.messages, line=info.line,
                message=f"[{spec.name}] {name} is never constructed "
                        f"outside {spec.messages}: "
                        f"{PROTOCOL_RULES['dead-message']}",
                code=catalog_code(info)))
        if (name not in handled and name not in reply_types
                and name not in components and not is_dead):
            findings.append(Finding(
                rule="unhandled-message", path=spec.messages,
                line=info.line,
                message=f"[{spec.name}] {name} is sent but no dispatcher "
                        f"in {', '.join(spec.dispatchers)} handles it",
                code=catalog_code(info)))

    # stale-epoch: the handler chain of an epoch-carrying message must
    # read .epoch somewhere (the branch itself or a method it calls,
    # resolved by name across the dispatcher modules, one level deep).
    method_epoch: Dict[str, bool] = {}
    method_calls: Dict[str, Set[str]] = {}
    for facts in dispatcher_facts:
        for meth, has in facts.method_epoch.items():
            method_epoch[meth] = method_epoch.get(meth, False) or has
        for meth, calls in facts.method_calls.items():
            method_calls.setdefault(meth, set()).update(calls)

    def chain_checks_epoch(facts: DispatcherFacts, name: str) -> bool:
        if facts.branch_epoch.get(name, False):
            return True
        seen: Set[str] = set()
        frontier = list(facts.branch_calls.get(name, ()))
        while frontier:
            meth = frontier.pop()
            if meth in seen:
                continue
            seen.add(meth)
            if method_epoch.get(meth, False):
                return True
            frontier.extend(method_calls.get(meth, ()))
        return False

    for facts in dispatcher_facts:
        text = (root / facts.path).read_text(encoding="utf-8")
        disp_lines = text.splitlines()
        for name, line in sorted(facts.handled.items()):
            info = catalog.get(name)
            if info is None or "epoch" not in info.fields:
                continue
            if not chain_checks_epoch(facts, name):
                code = ""
                if 1 <= line <= len(disp_lines):
                    code = disp_lines[line - 1].strip()
                findings.append(Finding(
                    rule="stale-epoch", path=facts.path, line=line,
                    message=f"[{spec.name}] {name} carries an epoch but "
                            f"its handler chain never reads it: "
                            f"{PROTOCOL_RULES['stale-epoch']}",
                    code=code))
    return findings


def check_protocols(root: Path,
                    specs: Optional[Sequence[ProtocolSpec]] = None
                    ) -> List[Finding]:
    """Run every protocol spec whose files exist under ``root``."""
    findings: List[Finding] = []
    for spec in (specs if specs is not None else DEFAULT_PROTOCOLS):
        if not (root / spec.messages).exists():
            continue
        findings.extend(check_protocol(spec, root))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))
