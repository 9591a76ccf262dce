"""The traced layers: which qsynth functions get a span, what each span
counts, and the per-layer metrics made from them.  README.md maps each layer
to the end-to-end metrics and workloads it is expected to move.

The tracer wraps every function listed in TRACED at each module attribute
bound to it, so the library itself is not edited.  Names are public ones
only, so the table survives changes to private helpers.
"""


def _gates_out(args, result):
    return len(result.gates)


def _circuit_id(args, result):
    # the tracer keeps args[0] alive, so no later circuit reuses this id
    return id(args[0])


def _unitary_bytes(args, result):
    # each gate is one read and one write of a 2^n x 2^n complex128 tensor
    c = args[0]
    return 2 * 16 * 4 ** c.num_qubits * len(c.gates)


def _state_bytes(args, result):
    c = args[0]
    return 2 * 16 * 2 ** c.num_qubits * len(c.gates)


def _gate_passes(args, result):
    return len(args[0].gates)


# "<module>.<function>" -> {count attribute: fn(args, result)}
TRACED = {
    "mcx.mcx_log": {"gates_out": _gates_out},
    "su2.mcmt_x": {},
    "su2.mcmt_su2": {},
    "su2.conjugation_frame": {},
    "approx.approx_mcu": {},
    "ir.lower": {"gates_out": _gates_out, "circuit": _circuit_id},
    "ir.depth": {},
    "ir.remap": {},
    "ir.inverse": {},
    "ir.report_for": {},
    "ir.export_text": {"bytes_out": lambda a, r: len(r.encode())},
    "ir.parse_json": {"gates_out": _gates_out},
    "sim.unitary_of": {"gate_passes": _gate_passes,
                       "bytes_computed": _unitary_bytes},
    "sim.apply": {"gate_passes": _gate_passes, "bytes_computed": _state_bytes},
    "sim.equiv": {},
    "sim.spectral_distance": {},
    "bench.run_family": {"rows": lambda a, r: len(r)},
    "bench.to_csv": {},
    "cli.run": {},
}

# per-layer metric -> (unit, better).  "proc.startup_s" runs from spawn to
# the end of `import qsynth`, "proc.exit_s" from the CLI's return to process
# exit.  "self_s" is a span's duration minus its children's; it, the proc
# times, "calls", "gate_passes", "bytes_computed" and "rows" are means per
# traced request, "gates_out" and "bytes_out" means per call.
_S, _C, _B = ("s", "lower"), ("count", "lower"), ("B", "lower")
PER_LAYER = {
    "proc.startup_s": _S, "proc.exit_s": _S,
    "mcx.mcx_log.self_s": _S, "mcx.mcx_log.calls": _C,
    "mcx.mcx_log.gates_out": _C,
    "su2.mcmt_x.self_s": _S, "su2.mcmt_x.calls": _C,
    "su2.mcmt_su2.self_s": _S, "su2.mcmt_su2.calls": _C,
    "su2.conjugation_frame.self_s": _S, "su2.conjugation_frame.calls": _C,
    "approx.approx_mcu.self_s": _S, "approx.approx_mcu.calls": _C,
    "ir.lower.self_s": _S, "ir.lower.gates_out": _C,
    "ir.lower.calls_per_circuit": ("calls/circuit", "lower"),
    "ir.depth.self_s": _S, "ir.remap.self_s": _S, "ir.inverse.self_s": _S,
    "ir.report_for.self_s": _S,
    "ir.export_text.self_s": _S, "ir.export_text.bytes_out": _B,
    "ir.parse_json.self_s": _S, "ir.parse_json.gates_out": _C,
    "sim.unitary_of.self_s": _S, "sim.unitary_of.gate_passes": _C,
    "sim.unitary_of.bytes_computed": _B,
    "sim.apply.self_s": _S, "sim.apply.gate_passes": _C,
    "sim.apply.bytes_computed": _B,
    "sim.equiv.self_s": _S, "sim.spectral_distance.self_s": _S,
    "bench.run_family.self_s": _S, "bench.run_family.rows": ("count", "higher"),
    "bench.to_csv.self_s": _S,
    "cli.run.self_s": _S,
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.coverage_frac": ("ratio", "higher"),
    "check.error_frac": ("ratio", "lower"),
    "check.wrong_frac": ("ratio", "lower"),
}
