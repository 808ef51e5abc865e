"""Every ``__all__`` in the ``repro`` tree names something that exists.

For each package and submodule: it imports, its ``__all__`` lists no
name twice, every listed name resolves on the module, and
``from <module> import *`` succeeds.  Cutting a definition while an
``__all__`` (its own module's or a package's re-export) still lists it
fails here.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    assert len(exported) == len(set(exported)), sorted(
        n for n in set(exported) if exported.count(n) > 1
    )
    assert [n for n in exported if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})

