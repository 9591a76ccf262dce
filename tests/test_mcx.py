import numpy as np
import pytest

from qsynth.ir import Circuit, Gate, cnot_count, depth, lower
from qsynth.mcx import STRICT_MAX_N, McxSpec, mcx_log, _schedule
from qsynth.sim import apply, equiv, random_state, unitary_of
from qsynth.verify import Spec, _sparse, apply_oracle, sparse_apply

from conftest import X, ctrl_u, product_state


def test_spec_validation():
    with pytest.raises(ValueError):
        McxSpec(0)
    with pytest.raises(ValueError):
        McxSpec(3, "warm")


def test_rccx_primitive():
    c = Circuit(3, [Gate("RCCX", (0, 1, 2))])
    low = lower(c)
    assert cnot_count(c) == 3
    assert sum(1 for g in low.gates if g.kind == "CX") == 3
    ccx = unitary_of(Circuit(3, [Gate("CCX", (0, 1, 2))]))
    r = equiv(unitary_of(low), ccx, "diagonal", 1e-12)
    assert r.passed, r.distance


def test_cnx_oracle_against_simulator():
    for n in (1, 2, 3):
        want = ctrl_u(n + 1, range(n), n, X)
        got = apply_oracle(np.eye(1 << (n + 1)), n, (X,))
        assert np.abs(got - want).max() == 0
        if n <= 2:
            c = Circuit(n + 1, [Gate(("CX", "CCX")[n - 1], range(n + 1))])
            assert np.abs(unitary_of(c) - want).max() < 1e-13


@pytest.mark.parametrize("n", [*range(3, 41), 512, 1024, 2048, 4096])
def test_counts_exact(n):
    assert cnot_count(mcx_log(McxSpec(n, "clean"))) == 6 * n - 6
    assert cnot_count(mcx_log(McxSpec(n, "dirty"))) == 12 * n - 18


def test_small_n_touches_no_ancilla():
    for mode in ("clean", "dirty"):
        for n in (1, 2):
            c = mcx_log(McxSpec(n, mode))
            assert all(n + 1 not in g.qubits for g in c.gates)


@pytest.mark.parametrize("n", range(1, 10))
def test_clean_equivalence(n):
    # the columns whose clean ancilla (the top wire) is 0, no phase freedom
    A = unitary_of(lower(mcx_log(McxSpec(n, "clean"))))
    B = ctrl_u(n + 2, range(n), n, X)
    d = np.abs(A - B)[:, :1 << (n + 1)].max()
    assert d < 1e-9, (n, d)


@pytest.mark.parametrize("n", range(1, 10))
def test_dirty_equivalence(n):
    # every column: oracle tensor identity on the ancilla, no phase freedom
    A = unitary_of(lower(mcx_log(McxSpec(n, "dirty"))))
    B = ctrl_u(n + 2, range(n), n, X)
    d = np.abs(A - B).max()
    assert d < 1e-9, (n, d)


def test_truth_table_exhaustive():
    # basis-state permutation check straight off the unitary columns
    for n in (4, 6):
        U = unitary_of(lower(mcx_log(McxSpec(n, "clean"))))
        dim = 1 << (n + 2)
        mask = (1 << n) - 1
        for i in range(0, dim >> 1):  # ancilla |0> columns
            j = i ^ (1 << n) if (i & mask) == mask else i
            col = U[:, i]
            assert abs(col[j] - 1) < 1e-9
            assert np.abs(np.delete(col, j)).max() < 1e-9


def _expected_flip(psi, n):
    out = psi.copy()
    mask = (1 << n) - 1
    i0, i1 = mask, mask | (1 << n)
    out[i0], out[i1] = psi[i1], psi[i0]
    return out


@pytest.mark.parametrize("n", [10, 12, 14, 16, 18])
def test_large_n_statevector_spots(n):
    rng = np.random.default_rng(1000 + n)
    nq = n + 2
    for mode in ("clean", "dirty"):
        low = lower(mcx_log(McxSpec(n, mode)))
        n_product, n_entangled = (7, 3) if n < 16 else (5, 2)
        states = [product_state(n + 1, rng) for _ in range(n_product)]
        states += [random_state(n + 1, rng) for _ in range(n_entangled)]
        for psi in states:
            b = int(rng.integers(2)) if mode == "dirty" else 0
            off = b << (n + 1)
            full = np.zeros(1 << nq, dtype=complex)
            full[off:off + (1 << (n + 1))] = psi
            out = apply(low, full)
            want = np.zeros_like(full)
            # the ancilla must come back to its input basis value
            want[off:off + (1 << (n + 1))] = _expected_flip(psi, n)
            assert np.abs(out - want).max() < 1e-7, (n, mode)


def test_depth_is_logarithmic():
    depths = {n: depth(lower(mcx_log(McxSpec(n, "clean"))))
              for n in (64, 128, 256, 512)}
    gaps = [depths[128] - depths[64], depths[256] - depths[128],
            depths[512] - depths[256]]
    # asymptotic doubling gaps agree within a +-4 window
    assert max(gaps) - min(gaps) <= 4, gaps
    # and are far below the linear growth rate
    assert depths[512] < depths[256] + 0.3 * 256


def test_schedules_certificate_valid_in_strict_range():
    # beyond STRICT_MAX_N the scheduler emits a best-effort schedule that is
    # known to be wrong on near-firing inputs (verify reports FAIL); the
    # random inputs of test_large_n_phase_tracking almost never reach them
    for n in range(4, STRICT_MAX_N + 1):
        _stores, _f, valid = _schedule(tuple(range(n)))
        assert valid, n


@pytest.mark.parametrize("mode", ["clean", "dirty"])
def test_near_firing_inputs_in_strict_range(mode):
    # the sparse tier's structured inputs: the firing pattern, every one-
    # and two-cleared pattern, and both ancilla values in dirty mode
    for n in range(1, STRICT_MAX_N + 1):
        c = mcx_log(McxSpec(n, mode))
        inputs, fails = _sparse(c, Spec("mcx", n, (X,), mode))
        assert inputs > n and not fails, (n, fails)


@pytest.mark.parametrize("n", [19, 23, 37, 64, 150, 256])
def test_large_n_phase_tracking(n):
    # independent correctness oracle far beyond the dense-simulation cap:
    # on basis inputs the circuit must act as C^nX with all relative
    # phases cancelled, for any ancilla basis value in dirty mode
    rng = np.random.default_rng(7000 + n)
    for mode in ("clean", "dirty"):
        c = mcx_log(McxSpec(n, mode))
        bits = rng.integers(2, size=(3000, n + 2)).astype(bool)
        bits[:64, :n] = True  # make sure the firing branch is exercised
        if mode == "clean":
            bits[:, n + 1] = False
        want = bits.copy()
        want[:, n] ^= bits[:, :n].all(axis=1)
        # every gate is a phased permutation, so rows keep their order
        out, ph, owner = sparse_apply(c, bits.T, np.ones(3000, complex),
                                      np.arange(3000))
        assert (owner == np.arange(3000)).all(), (n, mode)
        assert (out.T == want).all(), (n, mode)
        assert np.abs(ph - 1).max() < 1e-9, (n, mode)
