"""The package root exports exactly the public names its modules list."""

from __future__ import annotations

import qgordon
from qgordon import bailey, identities, lattice_paths, partitions, qseries

MODULES = (qseries, partitions, lattice_paths, bailey, identities)


def test_root_all_is_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert qgordon.__all__ == [*names, "clear_caches", "__version__"]
    assert len(set(qgordon.__all__)) == len(qgordon.__all__)


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qgordon, name) is getattr(module, name), (module.__name__, name)
    assert callable(qgordon.clear_caches)
    assert isinstance(qgordon.__version__, str)
