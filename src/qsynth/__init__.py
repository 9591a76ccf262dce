"""Log-depth multi-controlled gate synthesis with dense-simulation oracles.

The public names load their module on first use, so a request pays only
for the modules it runs.  The matrix modules ``su2``, ``approx`` and ``sim``
are registered in ``sys.modules`` without running them (see ``_np``).
"""
from importlib import import_module

from ._np import lazy

# module -> the public names it defines
_PUBLIC = {
    "ir": ("Circuit", "DecompReport", "Gate", "cnot_count", "count_gates",
           "depth", "export_text", "inverse", "lower", "parse_json", "remap",
           "report_for"),
    "sim": ("EquivResult", "apply", "equiv", "spectral_distance",
            "unitary_of"),
    "mcx": ("McxSpec", "mcx_log"),
    "su2": ("McmtSpec", "find_conjugating_gate", "mcmt_su2", "mcmt_x"),
    "approx": ("ApproxParams", "approx_mcu", "nb_from_epsilon", "su2_angle"),
    "bench": ("BenchRow", "baseline_counts", "fit_log", "run_family",
              "to_csv"),
}
_HOME = {name: mod for mod, names in _PUBLIC.items() for name in names}
__all__ = list(_HOME)

su2 = lazy(__name__ + ".su2")
approx = lazy(__name__ + ".approx")
sim = lazy(__name__ + ".sim")

__version__ = "0.1.0"


def __getattr__(name):
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(import_module("." + mod, __name__), name)
