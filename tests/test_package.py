"""The package root re-exports each submodule's public names."""

import importlib

import mindsets

SUBMODULES = ("universe", "evolution", "classify", "categories", "scenarios", "io", "cli")


def test_every_exported_name_is_listed_by_exactly_one_submodule():
    listed = [
        set(importlib.import_module(f"mindsets.{name}").__all__) for name in SUBMODULES
    ]
    owners = {name: sum(name in names for names in listed) for name in mindsets.__all__}
    assert {name: n for name, n in owners.items() if n != 1} == {}
