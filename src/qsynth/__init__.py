"""Log-depth multi-controlled gate synthesis with dense-simulation oracles."""

from .approx import ApproxParams, approx_mcu, nb_from_epsilon, su2_angle
from .bench import BenchRow, fit_log, run_family, to_csv
from .ir import (Circuit, DecompReport, Gate, cnot_count, count_gates, depth,
                 export_text, inverse, lower, parse_json, remap, report_for)
from .mcx import McxSpec, mcx_log
from .sim import EquivResult, apply, equiv, spectral_distance, unitary_of
from .su2 import (McmtSpec, baseline_counts, find_conjugating_gate,
                  mcmt_su2, mcmt_x)

__all__ = [
    "Circuit", "DecompReport", "Gate", "EquivResult",
    "cnot_count", "count_gates", "depth", "export_text",
    "inverse", "lower", "parse_json", "remap", "report_for",
    "apply", "equiv", "spectral_distance", "unitary_of",
    "McxSpec", "mcx_log",
    "McmtSpec", "baseline_counts", "find_conjugating_gate",
    "mcmt_su2", "mcmt_x",
    "ApproxParams", "approx_mcu", "nb_from_epsilon", "su2_angle",
    "BenchRow", "fit_log", "run_family", "to_csv",
]

__version__ = "0.1.0"
