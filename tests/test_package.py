"""The package namespace: every public name is exported lazily from the
module that defines it."""

import importlib

import pytest

import twistmod


def test_every_public_name_resolves_to_its_home_module():
    assert len(set(twistmod.__all__)) == len(twistmod.__all__)
    for name in twistmod.__all__:
        home = importlib.import_module(f"twistmod.{twistmod._HOME[name]}")
        value = getattr(twistmod, name)
        assert value is getattr(home, name)
        # classes and functions are defined there, not re-exported from elsewhere
        defined_in = getattr(value, "__module__", None) or ""
        if defined_in.startswith("twistmod"):
            assert defined_in == home.__name__, name
        # the first lookup caches the value in the package namespace
        assert vars(twistmod)[name] is value
    namespace = {}
    exec("from twistmod import *", namespace)
    for name in twistmod.__all__:
        assert namespace[name] is getattr(twistmod, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        twistmod.no_such_name
    # a module-level helper that is not public stays out of the namespace
    with pytest.raises(AttributeError):
        twistmod.dot
    with pytest.raises(ImportError):
        exec("from twistmod import no_such_name", {})
