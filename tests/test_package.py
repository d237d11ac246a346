from __future__ import annotations

import stardis
from stardis import admissibility, bounds, plf, sequences, variational


def test_exports_are_the_module_exports():
    names = stardis.__all__
    assert len(names) == len(set(names))
    modules = (plf, admissibility, bounds, variational, sequences)
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in modules))
    for m in modules:
        for name in m.__all__:
            assert getattr(stardis, name) is getattr(m, name)
    assert stardis.__version__ == "0.1.0"
