"""The public import surface: every exported name resolves and the
package metadata is sane (a downstream user's first smoke test)."""

import importlib

import pytest

import repro


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
