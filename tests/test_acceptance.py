"""End-to-end acceptance checks with pinned tolerances and ranges.

Everything here is wired to fixed numbers on purpose; loosening a
tolerance or shrinking a range should be a conscious, reviewed change.
"""
import math

import numpy as np
import pytest

import qsynth.cli as cli
import qsynth.verify
from qsynth.approx import approx_mcu, nb_from_epsilon
from qsynth.bench import fit_log, run_family
from qsynth.ir import Circuit, Gate, cnot_count, depth, lower, report_for
from qsynth.mcx import McxSpec, mcx_log
from qsynth.sim import equiv, spectral_distance, unitary_of
from qsynth.su2 import McmtSpec, mcmt_su2, mcmt_x
from qsynth.verify import Spec, Verdict, verify_circuit

from conftest import X, ctrl_u, mcmt_oracle, random_su2

TOL_EXACT = 1e-9
TOL_DIAG = 1e-12
M_GRID = (1, 2, 3, 5, 8, 16, 31, 64)


# ---------------------------------------------------------------------------
# 1. count formulas over the full desk-scale range (count-only, no sim)

def test_mcx_count_formulas_n_3_to_256():
    for n in range(3, 257):
        clean = cnot_count(mcx_log(McxSpec(n, "clean")))
        dirty = cnot_count(mcx_log(McxSpec(n, "dirty")))
        assert clean <= 6 * n - 6, n
        if n >= 5:
            assert clean == 6 * n - 6, n
        assert dirty <= 12 * n - 18, n


def test_mcmt_count_formulas_n_3_to_256():
    W = np.diag([np.exp(-0.2j), np.exp(0.2j)])
    for n in range(3, 257):
        for m in M_GRID:
            got = cnot_count(mcmt_x(n, m))
            assert got <= 6 * n + 2 * m - 8, (n, m)
            assert got == 6 * n + 2 * m - 8, (n, m)
            got = cnot_count(mcmt_su2(McmtSpec(n, m, (W,) * m)))
            assert got <= 12 * n + 8 * m - 30, (n, m)
            assert got == 12 * n + 6 * m - 28, (n, m)


def test_mcmt_counts_dense_m_sweep():
    W = np.diag([np.exp(0.45j), np.exp(-0.45j)])
    for n in (3, 17, 256):
        for m in range(1, 65):
            got = cnot_count(mcmt_x(n, m))
            assert got <= 6 * n + 2 * m - 8, (n, m)
            assert got == 6 * n + 2 * m - 8, (n, m)
            got = cnot_count(mcmt_su2(McmtSpec(n, m, (W,) * m)))
            assert got <= 12 * n + 8 * m - 30, (n, m)
            assert got == 12 * n + 6 * m - 28, (n, m)


# ---------------------------------------------------------------------------
# 2. oracle equivalence

@pytest.mark.parametrize("n", range(1, 10))
def test_mcx_oracle_equivalence(n):
    # every column the ancilla allows (clean: the top wire n + 1 is 0),
    # with no phase freedom
    B = ctrl_u(n + 2, range(n), n, X)
    for mode, cols in (("clean", 1 << (n + 1)), ("dirty", 1 << (n + 2))):
        A = unitary_of(lower(mcx_log(McxSpec(n, mode))))
        d = np.abs(A - B)[:, :cols].max()
        assert d < TOL_EXACT, (n, mode, d)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("n", range(3, 8))
def test_mcmt_su2_oracle_equivalence(n, m, seed):
    rng = np.random.default_rng(10000 + 97 * n + 13 * m + seed)
    Ws = tuple(random_su2(rng) for _ in range(m))
    A = unitary_of(lower(mcmt_su2(McmtSpec(n, m, Ws))))
    B = mcmt_oracle(n + m, n, range(n, n + m), Ws)
    r = equiv(A, B, "global_phase", TOL_EXACT)
    assert r.passed, (n, m, seed, r.distance)


# ---------------------------------------------------------------------------
# 3. approximation error and count bound

def _approx_point(n, eps, simulate):
    c, params = approx_mcu(n, X, eps)
    rep = report_for(c)
    n_b = params.n_b
    assert rep.cnot_count <= 4 * (n_b - 1) ** 2 + 24 * n - 8 * n_b - 4
    if simulate:
        A = unitary_of(lower(c))
        B = ctrl_u(n + 1, range(n), n, X)
        d = spectral_distance(A, B)
        assert d <= eps, (n, eps, d)
    return rep.cnot_count


def test_approx_eps_03_minimum_n():
    n = nb_from_epsilon(math.pi, 0.3) + 5
    assert n == 9
    _approx_point(n, 0.3, simulate=True)


def test_approx_eps_01_n10_n11_error_and_slope():
    c10 = _approx_point(10, 0.1, simulate=True)
    c11 = _approx_point(11, 0.1, simulate=True)
    assert c11 - c10 == 24


def test_approx_eps_005_n12_count_only():
    # 13 qubits sits at the dense-sim cap; full-unitary verification there
    # blows the suite's time budget, so this point is count-only
    c12 = _approx_point(12, 0.05, simulate=False)
    c13 = _approx_point(13, 0.05, simulate=False)
    assert c13 - c12 == 24


def test_approx_eps_005_n12_spot_check():
    # the 13-qubit point above, every input held to the spectral bound by
    # the class check
    c, params = approx_mcu(12, X, 0.05)
    v = verify_circuit(c, Spec("approx-u", 12, (X,), epsilon=0.05,
                               n_b=params.n_b))
    assert (v.tier, v.inputs, v.fails) == ("dense", 8192, ()), v


# ---------------------------------------------------------------------------
# 4. depth scaling

def test_depth_scaling_fit():
    ns = (16, 32, 64, 128, 256, 512)
    rows = [(n, depth(lower(mcx_log(McxSpec(n, "clean"))))) for n in ns]
    a, b, r2 = fit_log(rows)
    assert r2 >= 0.98, (a, b, r2)
    d512 = dict(rows)[512]
    linear_baseline = 32 * 512 + 8 * 1 - 52
    assert d512 < 0.4 * linear_baseline, d512


# ---------------------------------------------------------------------------
# 5. primitive checks

def test_rccx_primitive_pinned():
    c = lower(Circuit(3, [Gate("RCCX", (0, 1, 2))]))
    assert sum(1 for g in c.gates if g.kind == "CX") == 3
    ccx = unitary_of(Circuit(3, [Gate("CCX", (0, 1, 2))]))
    r = equiv(unitary_of(c), ccx, "diagonal", TOL_DIAG)
    assert r.passed, r.distance


def test_nb_pi_millitolerance():
    assert nb_from_epsilon(math.pi, 1e-3) == 12


# ---------------------------------------------------------------------------
# 6. headless verification entry point

def test_cli_verify_exit_codes(capsys, monkeypatch):
    assert cli.run(["verify", "mcx", "--controls", "4",
                    "--ancilla", "dirty"]) == 0
    assert cli.run(["verify", "mcx", "--controls", "0"]) == 2
    # a reported discrepancy must surface as exit code 1
    monkeypatch.setattr(qsynth.verify, "verify_circuit",
                        lambda c, spec: Verdict("dense", 1, ("forced",)))
    assert cli.run(["verify", "mcx", "--controls", "4"]) == 1
    capsys.readouterr()
