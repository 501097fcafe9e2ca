"""The package namespace: lazy exports that resolve to their modules' objects."""

import sys
from importlib import import_module

import pytest

import raysplit


def test_every_export_is_the_object_of_its_module():
    assert raysplit.find_roots is raysplit.spectrum.find_roots
    for name in raysplit.__all__:
        if name == "__version__":
            continue
        obj = getattr(raysplit, name)
        assert obj.__module__.startswith("raysplit."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_each_layer_exports_exactly_its_public_names():
    # one list of public names per layer: the package exports what the layer's __all__ lists
    for module, names in raysplit._EXPORTS.items():
        assert sorted(import_module(f"raysplit.{module}").__all__) == sorted(names), module


def test_dir_and_star_import_list_every_export():
    assert set(raysplit.__all__) <= set(dir(raysplit))
    namespace = {}
    exec("from raysplit import *", namespace)
    assert set(raysplit.__all__) <= set(namespace)
    assert namespace["sum_rule_polynomial"](namespace["binomial_sums"](3))[1]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'raysplit' has no attribute 'no_such_name'"):
        raysplit.no_such_name
    with pytest.raises(ImportError):
        from raysplit import no_such_name  # noqa: F401
