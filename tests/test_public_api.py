"""The public import surface: every exported name resolves and the
package metadata is sane (a downstream user's first smoke test)."""

import dataclasses
import importlib
import inspect

import pytest

import repro
from repro.storage.lsn import LSN


PACKAGES = ["repro.sim", "repro.storage", "repro.coord", "repro.core",
            "repro.baseline", "repro.bench"]


def test_version():
    assert repro.__version__


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} lacks a module docstring"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_items_documented(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        item = getattr(module, name)
        if name == "LogRecord":      # a typing Union, not an API object
            continue
        if callable(item) or isinstance(item, type):
            assert item.__doc__, f"{package}.{name} lacks a docstring"


def test_headline_types_importable_from_one_place():
    from repro.core import (SpinnakerCluster, SpinnakerClient,
                            SpinnakerConfig, Transaction)
    from repro.baseline import CassandraCluster
    from repro.bench import ALL_EXPERIMENTS
    assert all(exp.exp_id == exp_id and exp.title
               for exp_id, exp in ALL_EXPERIMENTS.items())


# Records and messages are shared by reference between replicas, logs,
# memtables and in-flight messages: they must stay immutable, and stay
# *generated* frozen dataclasses — ``core/api.py`` and
# ``core/recovery.py`` re-stamp them with ``dataclasses.replace``.

def _frozen_classes():
    from repro.core import messages
    from repro.core.datamodel import GetResult, PutResult
    from repro.storage.memtable import Cell
    from repro.storage.records import (CatchupMarker, CheckpointRecord,
                                       CommitMarker, WriteRecord)
    wire = [cls for _, cls in inspect.getmembers(messages, inspect.isclass)
            if cls.__module__ == messages.__name__]
    return wire + [WriteRecord, CommitMarker, CheckpointRecord,
                   CatchupMarker, Cell, GetResult, PutResult]


def _sample(field):
    kind = field.type           # a string: annotations are deferred
    if kind.startswith("Tuple"):
        return ()
    return {"bytes": b"k", "int": 1, "bool": False, "str": "n",
            "float": 0.0, "LSN": LSN(1, 1)}.get(kind)   # else None


@pytest.mark.parametrize("cls", _frozen_classes(), ids=lambda c: c.__name__)
def test_records_and_messages_are_frozen_and_replaceable(cls):
    assert dataclasses.is_dataclass(cls)
    required = [f for f in dataclasses.fields(cls) if f.init
                and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    obj = cls(**{f.name: _sample(f) for f in required})
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.not_a_field = 1
    clone = dataclasses.replace(obj)
    assert clone == obj and clone is not obj
    if required:
        name = required[0].name
        assert dataclasses.replace(obj, **{name: getattr(obj, name)}) == obj
