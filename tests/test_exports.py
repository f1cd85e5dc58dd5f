"""Every name a nudgelab module exports resolves on that module."""

import importlib
import pkgutil

import pytest

import nudgelab

MODULES = ["nudgelab"] + [f"nudgelab.{info.name}"
                          for info in pkgutil.iter_modules(nudgelab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []
