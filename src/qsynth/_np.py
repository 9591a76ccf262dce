"""Modules loaded on their first attribute access instead of at import.

``lazy(name)`` puts a module in ``sys.modules`` without running its code;
the code runs when something first reads one of its attributes.  qsynth
uses it for numpy and for its own matrix modules ``su2``, ``approx`` and
``sim``, which ``qsynth/__init__`` registers this way.

Gate matrices are nested tuples ``((a, b), (c, d))`` of Python complex
numbers, multiplied by the 2x2 helpers in ``ir``, so synthesis, export and
count-only bench of every family never load numpy: only ``sim`` and
``verify`` do, and ``sim.gate_matrix`` turns each tuple into an array once.
Even ``verify`` leaves it, and ``sim``, unloaded when its split check
builds a circuit's operators in pure Python, on ints and tuples: every
``mcx`` and ``mcmt-x`` build, ``mcmt-su2`` builds up to 6 targets, and
``approx-u`` builds with at most 4 quantum wires, within ``verify._WORK``.
Three rules keep it that way:

- ``sim`` and ``verify`` take numpy as ``from ._np import np``, never
  ``import numpy``: on Python 3.11 an ``import`` statement reads the
  module's ``__spec__``, and that access runs the whole load at once; no
  other qsynth module uses numpy;
- for the same reason ``cli``, ``bench``, ``ir`` and ``mcx`` have no
  top-level import of ``su2``, ``approx`` or ``sim``: they import them
  inside the function branch that needs them;
- no qsynth module builds an array at import time.

A module that is already loaded is used as it is.  Otherwise the lazy module
is put in ``sys.modules``, so relative imports and any later ``import``
statement find this one object, never a second copy, and tools that look
modules up there (a tracer that rebinds their functions) find them too.
"""
import importlib.util
import sys


def lazy(name):
    """The module ``name``, registered in ``sys.modules`` but not run until
    its first attribute access.  The parent package of a submodule must be
    imported already."""
    loaded = sys.modules.get(name)
    if loaded is not None:
        return loaded
    # None when the module is not installed, or blocked by a None entry
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError("No module named %r" % name, name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = lazy("numpy")
