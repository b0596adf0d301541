import importlib
import importlib.resources
import pkgutil

import shoalwave


def test_every_name_in_all_resolves():
    # A stale name in __all__ makes `from <module> import *` raise.
    # __main__ runs the command line when imported, and lists nothing.
    names = ["shoalwave"] + [
        "shoalwave." + info.name
        for info in pkgutil.iter_modules(shoalwave.__path__)
        if info.name != "__main__"
    ]
    listing = [m for m in map(importlib.import_module, names) if hasattr(m, "__all__")]
    assert len(listing) >= 8
    stale = [
        (module.__name__, name)
        for module in listing
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert stale == []


def test_the_compiled_kernel_source_ships_with_the_package():
    # Without it an installed package computes every first-order step with
    # the numpy kernel.
    assert (importlib.resources.files("shoalwave") / "_kernel.c").is_file()
