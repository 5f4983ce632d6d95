"""Every exported name resolves, so `from hoytsense import *` cannot break."""

import importlib
import pkgutil

import hoytsense


def test_every_exported_name_resolves():
    modules = [hoytsense] + [
        importlib.import_module(f"hoytsense.{info.name}")
        for info in pkgutil.iter_modules(hoytsense.__path__)]
    checked = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
            checked += 1
    assert checked > len(hoytsense.__all__)
