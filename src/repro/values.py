"""Immutable value types at plain-object cost.

Protocol messages, log records and client results are frozen
dataclasses: shared by reference between replicas, logs, memtables and
in-flight messages, they must never change, and ``fields()``,
``replace()``, ``__eq__``, ``__hash__`` and ``__repr__`` are wanted.
Several are built per client operation, and the ``__init__`` that
``dataclass(frozen=True)`` generates stores each field with
``object.__setattr__`` into an instance ``__dict__``.

:func:`value_type` keeps everything else ``dataclass(frozen=True)``
generates and changes two things:

* the class is rebuilt with ``__slots__`` (no ``__dict__``), the way
  ``dataclass(slots=True)`` does on Python 3.10+, but also on 3.9;
* ``__init__`` stores each field through its slot descriptor's
  ``__set__``, bound once per class.

It is compiled under the declaring module's file name, on the class
statement's line, so a profiler charges it to that module (and keys it
apart from every other class's ``__init__``) instead of to
``<string>:2``.  ``__setattr__`` and ``__delattr__`` raise
``FrozenInstanceError`` for any name: the frozen ``__setattr__`` that
``dataclass`` generates tests ``type(self) is cls`` against the class
*before* the rebuild, and would raise ``TypeError`` for a name that is
not a field.
"""

from __future__ import annotations

import linecache
import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields

__all__ = ["value_type"]


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def value_type(cls):
    """``@dataclass(frozen=True)`` with ``__slots__`` and an ``__init__``
    that stores through the slot descriptors (module docstring).

    Fields take plain defaults only (no ``default_factory``); a field
    with ``init=False`` is left for ``__post_init__`` to store.
    """
    caller = sys._getframe(1)
    filename = caller.f_code.co_filename
    line = _class_line(filename, caller.f_lineno, cls.__name__)
    cls = dataclass(frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))
    body = dict(cls.__dict__)
    for name in names + ("__dict__", "__weakref__"):
        body.pop(name, None)        # class-level defaults would shadow slots
    body["__slots__"] = names
    body["__setattr__"] = _frozen_setattr
    body["__delattr__"] = _frozen_delattr
    slotted = type(cls)(cls.__name__, cls.__bases__, body)
    slotted.__qualname__ = cls.__qualname__
    slotted.__init__ = _slot_init(slotted, filename, line)
    return slotted


def _class_line(filename: str, lineno: int, name: str) -> int:
    """The ``class`` statement's line: the decorator is called on it
    (3.9) or on the decorator's own line above it (3.11+)."""
    lines = linecache.getlines(filename)
    for number in range(lineno, min(lineno + 8, len(lines)) + 1):
        if lines[number - 1].lstrip().startswith(f"class {name}"):
            return number
    return lineno


def _slot_init(cls, filename: str, line: int):
    params, stores = ["self"], []
    env = {}
    for f in fields(cls):
        if f.default_factory is not MISSING or (
                not f.init and f.default is not MISSING):
            raise TypeError(f"{cls.__name__}.{f.name}: a value type's "
                            f"fields take plain defaults only")
        if not f.init:
            continue
        env[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        stores.append(f"_set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        stores.append("self.__post_init__()")
    # One line, so the whole function sits on the class statement's.
    source = (f"def __init__({', '.join(params)}): "
              f"{'; '.join(stores) or 'pass'}")
    exec(compile("\n" * (line - 1) + source, filename, "exec"), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
