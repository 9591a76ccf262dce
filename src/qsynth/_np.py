"""numpy, loaded on its first attribute access instead of at import.

The synthesizers for mcx and mcmt-x, matrix-free export and count-only
bench are pure CX/Toffoli work and never build a matrix, so a request that
only does those never runs numpy's import.  Two rules keep it that way:

- qsynth modules take numpy as ``from ._np import np`` and never write
  ``import numpy``: on Python 3.11 an ``import numpy`` statement reads the
  module's ``__spec__``, and that access runs the whole load at once;
- no qsynth module builds an array at import time; constants that hold
  matrices are cached functions instead (``ir.fixed_matrix``).

A numpy that is already loaded is used as it is.  Otherwise the lazy module
is put in ``sys.modules``, so numpy's own relative imports and any later
``import numpy`` find this one object, never a second copy.
"""
import importlib.util
import sys


def _numpy():
    loaded = sys.modules.get("numpy")
    if loaded is not None:
        return loaded
    # None when numpy is not installed, or blocked by a None entry
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _numpy()
