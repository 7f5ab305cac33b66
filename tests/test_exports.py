"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil
import types

import pytest

import qngsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(qngsim.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_module_all_resolves(name):
    module = importlib.import_module(f"qngsim.{name}")
    assert module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_namespace_holds_only_module_exports():
    # each public name of the package is the object some module lists in
    # its __all__
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"qngsim.{name}")
        for attr in module.__all__:
            exported.setdefault(attr, getattr(module, attr))
    public = {attr: value for attr, value in vars(qngsim).items()
              if not attr.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public
    for attr, value in public.items():
        assert exported.get(attr) is value, attr
