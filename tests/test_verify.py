import numpy as np
import pytest

import qsynth.bench as bench
import qsynth.cli as cli
import qsynth.sim as sim
import qsynth.verify as verify
from qsynth.ir import (ANGLE_KINDS, ARITY, MATRIX_KINDS, Circuit, Gate,
                       inverse_gates, lower, remap, rz_mat)
from qsynth.mcx import McxSpec, mcx_log
from qsynth.sim import (apply, random_state, rccx_matrix, spectral_distance,
                        unitary_of)
from qsynth.su2 import mcmt_x
from qsynth.verify import (Spec, Verdict, apply_oracle, sparse_apply,
                           verify_circuit)

from conftest import (H, X, kernel_fails, mcmt_oracle, product_state,
                      random_circuit, random_su2)


def test_oracle_matches_reference(rng):
    # mcmt-x with its ancilla, then random SU(2) targets without one; mcx
    # shapes are in test_mcx
    shapes = [(8, 4, (X,) * 3)]
    shapes += [(nq, n, tuple(random_su2(rng) for _ in range(nq - n)))
               for nq, n in ((4, 1), (5, 3), (6, 3), (7, 4))]
    for nq, n, ws in shapes:
        want = mcmt_oracle(nq, n, range(n, n + len(ws)), ws)
        got = apply_oracle(np.eye(1 << nq), n, ws)
        assert np.abs(got - want).max() < 1e-15


@pytest.mark.parametrize("nq", [3, 5, 8, 10])
def test_sparse_apply_matches_dense(nq, rng):
    c = random_circuit(nq, rng)
    # a basis input and a random state, told apart by their owners
    psis = [np.eye(1 << nq)[5], random_state(nq, rng)]
    flat = np.concatenate([[5], np.arange(1 << nq)])
    bits, amp, owner = sparse_apply(
        c, (flat >> np.arange(nq)[:, None]) & 1,
        np.concatenate([[1], psis[1]]), np.repeat([0, 1], [1, 1 << nq]))
    got = np.zeros((2, 1 << nq), dtype=complex)
    np.add.at(got, (owner, (bits.T << np.arange(nq)).sum(axis=1)), amp)
    assert np.abs(got - [apply(c, psi) for psi in psis]).max() < 1e-10


@pytest.mark.parametrize("nq", [62, 141])
def test_sparse_apply_on_wide_registers(nq):
    # a random 6-wire circuit spread over the key words of a wide register
    # (on 62 wires the input numbers move to a word of their own), with
    # every other wire set; one basis input and three random states
    rng = np.random.default_rng(nq)
    wires = [0, 30, nq - 1, nq - 2] + ([45, 1] if nq < 63 else [62, 63])
    small = random_circuit(6, rng)
    c = remap(small, dict(enumerate(wires)), nq)
    psis = [np.eye(64)[9]] + [random_state(6, rng) for _ in range(3)]
    flat = np.concatenate([[9]] + [np.arange(64)] * 3)
    bits = np.ones((nq, len(flat)), dtype=bool)
    bits[wires] = (flat >> np.arange(6)[:, None]) & 1
    owner = np.repeat(np.arange(4), [1, 64, 64, 64])
    bits, amp, owner = sparse_apply(c, bits, np.concatenate(
        [[1]] + psis[1:]), owner)
    assert bits[[q for q in range(nq) if q not in wires]].all()
    got = np.zeros((4, 64), dtype=complex)
    np.add.at(got, (owner, (bits[wires].T << np.arange(6)).sum(axis=1)), amp)
    assert np.abs(got - [apply(small, psi) for psi in psis]).max() < 1e-10


def test_sparse_tier_catches_a_retargeted_store(capsys, monkeypatch):
    # move one store (an X and an RCCX onto a freed wire) and its mirror
    # image to another freed wire: same CX count, wrong circuit.  Its 2^21
    # inputs are within the bit-sliced budget, so verify runs the dense
    # tier; the sparse tier runs on the same circuit directly
    good = mcx_log(McxSpec(20, "clean"))
    gates = list(good.gates)
    assert [gates[i].qubits[-1] for i in (21, 22)] == [13, 13]
    for i in (21, 22, len(gates) - 22, len(gates) - 23):
        gates[i] = Gate(gates[i].kind, gates[i].qubits[:-1] + (17,))
    bad = Circuit(good.num_qubits, gates, good.ancilla_roles)
    monkeypatch.setattr(bench, "mcx_log", lambda spec: bad)
    assert cli.run(["verify", "mcx", "--controls", "20"]) == 1
    err = capsys.readouterr().err
    assert err == ("verify mcx: FAIL tier=dense inputs=2097152: dense check "
                   "distance 1.000e+00 (input 16383)\n")
    sparse = Verdict("sparse", *verify._sparse(bad, Spec(
        "mcx", 20, (X,), "clean"))).lines()
    assert sparse[0].startswith("FAIL tier=sparse inputs=411: sparse check "
                                "failed on 21 of 411 inputs; ")
    assert "cnot count" not in err


# the spot_* tests cover registers of 12 to 18 qubits, which a statevector
# spot tier checked before the sparse tier took that range over; their mcx
# and mcmt-x circuits now run bit-sliced in the dense tier, and each test
# runs the sparse tier on the same circuit directly

def test_spot_tier_catches_a_retargeted_store(capsys, monkeypatch):
    # the store X(8), RCCX(10, 11, 8) and its mirror image moved onto
    # wire 12: same CX count, wrong circuit, on 15 qubits
    good = mcx_log(McxSpec(13, "clean"))
    gates = list(good.gates)
    assert [gates[i].qubits[-1] for i in (9, 10)] == [8, 8]
    for i in (9, 10, len(gates) - 10, len(gates) - 11):
        gates[i] = Gate(gates[i].kind, gates[i].qubits[:-1] + (12,))
    bad = Circuit(good.num_qubits, gates, good.ancilla_roles)
    monkeypatch.setattr(bench, "mcx_log", lambda spec: bad)
    assert cli.run(["verify", "mcx", "--controls", "13"]) == 1
    err = capsys.readouterr().err
    assert err == ("verify mcx: FAIL tier=dense inputs=16384: dense check "
                   "distance 1.000e+00 (input 1023)\n")
    sparse = Verdict("sparse", *verify._sparse(bad, Spec(
        "mcx", 13, (X,), "clean"))).lines()
    assert sparse[0].startswith(
        "FAIL tier=sparse inputs=287: sparse check failed "
        "on 2 of 287 inputs; first: controls cleared: 10,12,")
    assert "cnot count" not in err


def test_spot_tier_names_the_first_failing_input():
    # X(0) CX(0, 11) X(0) flips a target whenever control 0 is clear: in
    # the sparse tier the firing input passes, the next one (control 0
    # clear) fails; in the dense tier input 0 (every control clear) fails
    good = mcmt_x(11, 2)
    bad = Circuit(good.num_qubits, good.gates + (
        Gate("X", (0,)), Gate("CX", (0, 11)), Gate("X", (0,))))
    spec = Spec("mcmt-x", 11, (X, X), "clean")
    v = verify_circuit(bad, spec)
    assert (v.tier, v.inputs) == ("dense", 8192)
    assert v.fails[-1] == "dense check distance 1.000e+00 (input 0)"
    inputs, fails = verify._sparse(bad, spec)
    assert inputs == 250
    assert fails[-1].startswith("sparse check failed on 96 of 250 inputs; "
                                "first: controls cleared: 0, distance")


def test_mcmt_su2_count_is_exact():
    # a CX pair leaves the unitary alone but adds 2 CX, which stay inside
    # the old 12n + 8m - 30 budget for m >= 2; the exact count catches it
    c, spec = bench.build("mcmt-su2", 4, 3, gate=random_su2(
        np.random.default_rng(5)))
    bad = Circuit(c.num_qubits, c.gates + (Gate("CX", (0, 4)),) * 2)
    assert verify_circuit(c, spec).fails == ()
    v = verify_circuit(bad, spec)
    assert v.fails == ("cnot count %d != %d" % (12 * 4 + 6 * 3 - 26,
                                                 12 * 4 + 6 * 3 - 28),)


@pytest.mark.parametrize("argv, tier", [
    ("mcx --controls 4 --ancilla dirty", "dense"),
    ("mcmt-x --controls 9 --targets 2", "dense"),
    ("mcx --controls 29", "sparse"),
    ("mcx --controls 29 --ancilla dirty", "sparse"),
    ("mcmt-x --controls 17 --targets 3", "dense"),
    ("mcmt-x --controls 18 --targets 4", "sparse"),
    ("mcmt-su2 --controls 17 --targets 2 --gate h", "dense"),
    ("mcmt-su2 --controls 22 --targets 2 --gate h", "sparse"),
    ("approx-u --controls 18 --gate x --epsilon 0.1", "dense"),
    ("approx-u --controls 27 --gate x --epsilon 0.1", "sparse"),
])
def test_verify_names_its_tier(capsys, argv, tier):
    # approx-u's class check takes up to 2^21 classical inputs (n_b = 5
    # base controls and the target hold amplitudes); past them the sparse
    # tier samples, and says so
    assert cli.run(["verify"] + argv.split()) == 0
    err = capsys.readouterr().err
    assert ": ok tier=%s inputs=" % tier in err
    assert ("necessary, not sufficient" in err) == (
        argv.startswith("approx") and tier == "sparse")
    if "necessary" in err:
        assert err.endswith(": ok tier=sparse inputs=431; the per-column "
                            "epsilon check is necessary, not sufficient, "
                            "for the spectral bound\n")


@pytest.mark.parametrize("target, n", [("mcmt-su2", 10), ("mcmt-x", 9)])
def test_spot_tier_sees_a_phase_that_depends_on_the_controls(target, n):
    # Rz on control 0 keeps the CX count and maps each basis pattern of the
    # controls to itself up to a phase, which moves with control 0: the
    # exact targets get no phase freedom, so every input fails, by
    # |e^{0.15i} - 1|.  The Rz makes control 0 quantum; the split check
    # takes the mutant, as it does the good circuits, in the dense tier, and
    # the sparse tier runs on both directly, where the firing input fails
    # first
    c, spec = bench.build(target, n, 2)
    bad = Circuit(c.num_qubits, c.gates + (Gate("Rz", (0,), angle=0.3),),
                  c.ancilla_roles)
    k, inputs = {"mcmt-su2": (233, 4096), "mcmt-x": (190, 2048)}[target]
    assert Verdict("sparse", *verify._sparse(c, spec)).lines() \
        == ["ok tier=sparse inputs=%d" % k]
    assert verify_circuit(c, spec).lines() == ["ok tier=dense inputs=%d"
                                               % inputs]
    assert verify_circuit(bad, spec).lines() == [
        "FAIL tier=dense inputs=%d: dense check distance %.3e (input 0)"
        % (inputs, abs(np.exp(0.15j) - 1))]
    sparse, fails = verify._sparse(bad, spec)
    assert (sparse, len(fails)) == (k, 1)
    assert fails[0].startswith("sparse check failed on %d of %d inputs; "
                               "first: controls cleared: none," % (k, k))


def test_approx_spot_verdict_says_it_checks_columns(capsys):
    # the class check holds every input of 13 qubits to the spectral bound,
    # with no note; past 2^21 classical inputs the sparse tier checks
    # columns, and its note says what that leaves out
    for n, line in (("12", "ok tier=dense inputs=8192"), (
            "27", "ok tier=sparse inputs=431; the per-column epsilon "
                  "check is necessary, not sufficient, for the spectral "
                  "bound")):
        assert cli.run(["verify", "approx-u", "--controls", n, "--gate", "x",
                        "--epsilon", "0.1"]) == 0
        assert capsys.readouterr().err == "verify approx-u: %s\n" % line


# an exact target gets no phase freedom: a global phase e^{0.3i} appended on
# wire 0 must FAIL in every tier.  It makes control 0 quantum, and the split
# check takes every case, so verify FAILs each in the dense tier on input 0;
# the cases of 12 qubits and up, marked sparse, also FAIL the sparse tier,
# run directly
@pytest.mark.parametrize("target, n, ancilla, tier", [
    ("mcx", 6, "clean", "dense"), ("mcx", 6, "dirty", "dense"),
    ("mcx", 12, "clean", "sparse"), ("mcx", 12, "dirty", "sparse"),
    ("mcx", 20, "clean", "sparse"), ("mcx", 20, "dirty", "sparse"),
    ("mcmt-x", 5, "clean", "dense"), ("mcmt-x", 10, "clean", "sparse"),
    ("mcmt-x", 17, "clean", "sparse"), ("mcmt-su2", 6, "none", "dense"),
    ("mcmt-su2", 10, "none", "sparse"), ("mcmt-su2", 17, "none", "sparse"),
])
def test_a_global_phase_fails_every_tier(target, n, ancilla, tier):
    c, spec = bench.build(target, n, 2, ancilla)
    phase = ((np.exp(0.3j), 0), (0, np.exp(0.3j)))
    bad = Circuit(c.num_qubits, c.gates + (Gate("U2", (0,), matrix=phase),),
                  c.ancilla_roles)
    assert verify_circuit(c, spec).fails == ()
    v = verify_circuit(bad, spec)
    assert (v.tier, v.fails) == ("dense", (
        "dense check distance %.3e (input 0)" % abs(np.exp(0.3j) - 1),)), \
        v.lines()
    if tier == "sparse":
        fails = verify._sparse(bad, spec)[1]
        assert len(fails) == 1 and fails[0].startswith("sparse check")


def _exact_on_the_dense_range():
    gates = [random_su2(np.random.default_rng(7)), H, -np.eye(2), X,
             np.diag([np.exp(-0.4j), np.exp(0.4j)])]
    for n in range(1, 10):
        yield "mcx", n, 1, "clean", None
        yield "mcx", n, 1, "dirty", None
        if n <= 8:
            yield "mcmt-x", n, min(1 + n % 3, 10 - n), "clean", None
        yield "mcmt-su2", n, min(1 + n % 3, 11 - n), "none", gates[n % 5]


@pytest.mark.parametrize("target, n, m, ancilla, gate",
                         list(_exact_on_the_dense_range()))
def test_exact_targets_equal_their_oracle_with_no_phase(target, n, m,
                                                        ancilla, gate):
    # every basis input the spec allows: a clean ancilla (the top wire)
    # starts at 0, a dirty one in either value
    c, spec = bench.build(target, n, m, ancilla, gate)
    nq = c.num_qubits
    cols = np.eye(1 << nq)[:, :1 << (nq - (ancilla == "clean"))]
    want = apply_oracle(cols, n, spec.ws)
    assert np.abs(apply(lower(c), cols) - want).max() < 1e-12


def _mutants(c, rng, count):
    """Seeded mutants of ``c``: one RCCX with its controls swapped, one
    RCCX with its target moved to a wire it does not touch, or one X
    dropped."""
    rccx = [i for i, g in enumerate(c.gates) if g.kind == "RCCX"]
    xs = [i for i, g in enumerate(c.gates) if g.kind == "X"]
    for j in range(count):
        gates = list(c.gates)
        kind = j % 3 if xs else j % 2
        i = int(rng.choice(xs if kind == 2 else rccx))
        if kind == 2:
            del gates[i]
        else:
            a, b, t = gates[i].qubits
            if kind == 1:
                t = int(rng.choice([q for q in range(c.num_qubits)
                                    if q not in (a, b, t)]))
            gates[i] = Gate("RCCX", (b, a, t) if kind == 0 else (a, b, t))
        yield Circuit(c.num_qubits, gates, c.ancilla_roles)


def _spectral_errors(monkeypatch):
    """The norms verify's approximate checks take, in Python
    (verify._norm) or numpy (sim.spectral_norm), as a list that records
    them; the check's error is the largest of one verify's norms."""
    got, norm, pure = [], sim.spectral_norm, verify._norm
    monkeypatch.setattr(sim, "spectral_norm",
                        lambda D: got.append(("numpy", norm(D))) or got[-1][1])
    monkeypatch.setattr(verify, "_norm", lambda D, E: got.append(
        ("python", pure(D, E))) or got[-1][1])
    return got


def test_dense_approx_error_is_the_spectral_distance(monkeypatch):
    # the class check's error against spectral_distance(U, O) within 1e-12,
    # on the circuit, its operators in Python (3 quantum wires at n = 7) or
    # numpy (6 at n = 10), and on every seeded mutant: a control that ends
    # wrong joins the quantum wires, so the class check takes each one
    got = _spectral_errors(monkeypatch)
    for n, gate, path in ((7, rz_mat(np.pi / 8), "python"),
                          (10, X, "numpy")):
        c, spec = bench.build("approx-u", n, gate=gate)
        O = apply_oracle(np.eye(2 << n), n, spec.ws)
        errs = []
        for m in [c] + list(_mutants(c, np.random.default_rng(3), 6)):
            got.clear()
            fails = verify._split(m, spec)
            assert fails is not None
            if m is c:
                assert {p for p, _ in got} == {path}
            errs.append(max(e for _, e in got))
            assert abs(errs[-1] - spectral_distance(unitary_of(lower(m)),
                                                    O)) < 1e-12
            assert (fails != []) == (errs[-1] > spec.epsilon)
        assert max(errs) > 0.5


def _wrong_control(n):
    """approx-u circuits on n controls whose control 0 ends wrong on some
    inputs, each with its W: the same blocks, and so the same spectral
    error, at every n >= 4."""
    return [([Gate("CCX", (2, 1, 0)), Gate("CU2", (0, n), matrix=H)], H),
            ([Gate("CX", (1, 0))], rz_mat(0.4)),
            ([Gate("X", (0,)), Gate("CU2", (1, n), matrix=X)], X),
            ([Gate("CX", (3, 0)), Gate("Rz", (1,), angle=1.0),
              Gate("CX", (1, 2))], H)]


@pytest.mark.parametrize("case", range(4))
def test_a_control_that_ends_wrong_joins_the_quantum_wires(monkeypatch,
                                                           case):
    # the dense tier holds each circuit to the spectral bound by classes,
    # also past 11 qubits, with the error spectral_distance gives at 10
    # qubits; sim.apply never runs in verify_circuit
    def no_apply(*args):
        raise AssertionError("verify_circuit ran sim.apply")
    want = None
    for n in (9, 13):
        gates, W = _wrong_control(n)[case]
        c, spec = Circuit(n + 1, gates), Spec("approx-u", n, (W,),
                                              epsilon=0.1, n_b=0)
        if want is None:
            want = spectral_distance(unitary_of(lower(c)), apply_oracle(
                np.eye(2 << n), n, spec.ws))
            assert want > 1
        got = _spectral_errors(monkeypatch)
        monkeypatch.setattr(sim, "apply", no_apply)
        v = verify_circuit(c, spec)
        monkeypatch.undo()
        assert (v.tier, v.inputs) == ("dense", 2 << n)
        assert v.fails[-1] == "spectral error %.3e > epsilon 0.1" % want
        assert abs(max(e for _, e in got) - want) < 1e-12


@pytest.mark.parametrize("gates", [
    [Gate("CU2", (1, 0), matrix=X), Gate("CX", (1, 2))],
    [Gate("CCX", (0, 1, 2))],
    [Gate("CCX", (0, 1, 2)), Gate("X", (2,))],
    [Gate("CX", (0, 2))]])
def test_approx_class_check_on_hand_made_circuits(gates):
    # the class check's verdict against spectral_distance.  W = X gives
    # the target no quantum gate of its own: in the first circuit control
    # 0 holds amplitudes while the target gets only a CX (on c1 = 1, c0 = 0
    # it flips c0 and the target, the oracle nothing: error 2), and the
    # others are X, CX and CCX gates alone
    spec = Spec("approx-u", 2, (X,), epsilon=0.1, n_b=0)
    c = Circuit(3, gates)
    want = spectral_distance(unitary_of(lower(c)),
                             apply_oracle(np.eye(8), 2, spec.ws))
    fails = ["spectral error %.3e > epsilon 0.1" % want] if want > 0.1 \
        else []
    assert verify._split(c, spec) == fails
    v = verify_circuit(c, spec)
    assert (v.tier, v.inputs) == ("dense", 8)
    assert [f for f in v.fails if f.startswith("spectral")] == fails


@pytest.mark.parametrize("D", range(1, 17))
def test_python_norm_matches_numpy(D):
    # verify._norm of random, zero, rank-one, repeated-top and unitary
    # minus phase matrices against numpy's 2-norm, within 1e-12
    rng = np.random.default_rng(D)

    def unitary():
        return np.linalg.qr(rng.normal(size=(D, D))
                            + 1j * rng.normal(size=(D, D)))[0]
    Q = unitary()
    top = np.sort(rng.random(D))[::-1] * 2
    top[:3] = 2.5
    for E in (rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D)),
              np.zeros((D, D)),
              np.outer(rng.normal(size=D) + 1j * rng.normal(size=D),
                       rng.normal(size=D)),
              Q * top @ Q.conj().T,
              unitary() - np.exp(0.3j) * np.eye(D),
              Q - Q * np.exp(1e-3j * rng.random(D))):
        got = verify._norm(D, [complex(x) for x in E.T.ravel()])
        assert abs(got - np.linalg.norm(E, 2)) < 1e-12


def _any_mutants(c, rng, count):
    """Seeded mutants of any circuit: one gate dropped, moved onto a wire
    it does not touch, or swapped with its successor."""
    for j in range(count):
        gates = list(c.gates)
        i = int(rng.integers(len(gates) - (j % 3 == 2)))
        g = gates[i]
        if j % 3 == 0:
            del gates[i]
        elif j % 3 == 1:
            free = [q for q in range(c.num_qubits) if q not in g.qubits]
            t = int(rng.choice(free))
            gates[i] = Gate(g.kind, g.qubits[:-1] + (t,), g.angle, g.matrix)
        else:
            gates[i:i + 2] = gates[i + 1], g
        yield Circuit(c.num_qubits, gates, c.ancilla_roles)


def _statevector_miss(c, spec):
    """(distance, input) of the first basis input the spec allows (a clean
    ancilla, the top wire, at 0) whose column of the lowered circuit leaves
    the reference oracle's by more than 1e-9 in some entry, or None."""
    nq = c.num_qubits
    want = mcmt_oracle(nq, spec.n, range(spec.n, spec.n + len(spec.ws)),
                       np.asarray(spec.ws))
    k = 1 << (nq - (spec.ancilla == "clean"))
    err = np.abs(unitary_of(lower(c))[:, :k] - want[:, :k]).max(axis=0)
    bad = np.flatnonzero(err > 1e-9)
    return (float(err[bad[0]]), int(bad[0])) if bad.size else None


@pytest.mark.parametrize("n, m", [(1, 2), (1, 4), (2, 2), (3, 1), (3, 3),
                                  (4, 2), (5, 4), (6, 3), (7, 2), (2, 7),
                                  (8, 1), (1, 9), (8, 2)])
def test_dense_mcmt_su2_verdicts_match_a_statevector_reference(monkeypatch,
                                                              n, m):
    # each dense verdict on the build and six seeded mutants against the
    # lowered unitary's columns and the reference oracle: the same pass or
    # fail, the same first failing input, the same distance within 1e-9;
    # with 8 controls and 2 targets also a circuit with a quantum control
    # whose first failing input lies past the first 128.  No check runs
    # the sparse kernel
    def no_kernel(*args):
        raise AssertionError("verify_circuit ran the sparse kernel")
    misses, dense_fails = [], verify._dense_fails
    monkeypatch.setattr(verify, "_held", no_kernel)
    monkeypatch.setattr(verify, "_dense_fails", lambda miss: misses.append(
        miss) or dense_fails(miss))
    rng = np.random.default_rng(100 * n + m)
    gate = (H, random_su2(rng), rz_mat(0.7))[(n + m) % 3]
    c, spec = bench.build("mcmt-su2", n, m, gate=gate)
    circuits, fails = [c] + list(_any_mutants(c, rng, 6)), 0
    if (n, m) == (8, 2):
        circuits.append(Circuit(c.num_qubits, c.gates + (
            Gate("CX", (8, 0)),) * 2 + (Gate("CCX", (7, 9, 2)),)))
    for mut in circuits:
        misses.clear()
        want = _statevector_miss(mut, spec)
        lines = [f for f in verify_circuit(mut, spec).fails
                 if f.startswith("dense")]
        if want is None:
            assert misses == [None] and lines == []
            continue
        fails += 1
        (got,) = misses
        assert got[1] == want[1] and abs(got[0] - want[0]) < 1e-9
        assert lines == ["dense check distance %.3e (input %d)" % got]
    assert fails
    if (n, m) == (8, 2):
        assert want[1] >= 128


_ON_ANCILLA = {"Z": Gate("U2", (0,), matrix=((1, 0), (0, -1))),
               "Rz": Gate("Rz", (0,), angle=0.3), "H": Gate("H", (0,))}


@pytest.mark.parametrize("target, n, m, ancilla", [
    ("mcx", 5, 1, "clean"), ("mcx", 5, 1, "dirty"), ("mcx", 8, 1, "dirty"),
    ("mcmt-x", 4, 2, "clean")])
@pytest.mark.parametrize("kind", sorted(_ON_ANCILLA))
def test_a_quantum_ancilla_gets_the_statevector_verdict(monkeypatch, target,
                                                        n, m, ancilla, kind):
    # one Z, Rz(0.3) or H on the ancilla, the top wire, after the circuit
    # and halfway through it: the split check takes each mutant, with no
    # kernel call, and gives the statevector reference's line.  Z after the
    # circuit keeps a clean ancilla's 0 and fails a dirty one first where
    # it is set, input 2^(n+1), by 2
    def no_kernel(*args):
        raise AssertionError("the split check ran the sparse kernel")
    monkeypatch.setattr(verify, "_held", no_kernel)
    c, spec = bench.build(target, n, m, ancilla)
    g = _ON_ANCILLA[kind]._replace(qubits=(c.num_qubits - 1,))
    half = len(c.gates) // 2
    for gates in (c.gates + (g,), c.gates[:half] + (g,) + c.gates[half:]):
        mut = Circuit(c.num_qubits, gates, c.ancilla_roles)
        assert verify._quantum(mut, spec)[-1] == c.num_qubits - 1
        miss, split = _statevector_miss(mut, spec), verify._split(mut, spec)
        assert split == verify._dense_fails(miss)
        if gates[-1] is g and kind == "Z":
            assert split == ([] if ancilla == "clean" else [
                "dense check distance 2.000e+00 (input %d)" % (2 << n)])
        else:
            assert miss is not None


def test_approx_wire_outside_the_spec_is_held_to_the_bound(monkeypatch):
    # the rz(pi/8) build on 7 controls with one more, idle, top wire: the
    # oracle is C^7(W) x I, and the class check holds the circuit to it in
    # spectral norm, the wire's gates joining the quantum ones.  Rz(0.3)
    # there is 0.347 off, H 2; H H is the identity again, and leaves the
    # build's own error, 0.049
    c, spec = bench.build("approx-u", 7, gate=rz_mat(np.pi / 8))
    O = apply_oracle(np.eye(1 << 9), 7, spec.ws)
    got = _spectral_errors(monkeypatch)
    for gates, want in (([Gate("Rz", (8,), angle=0.3)], 0.347),
                        ([Gate("H", (8,))] * 2, 0.049),
                        ([Gate("H", (8,))], 2.0)):
        mut = Circuit(9, c.gates + tuple(gates))
        d = spectral_distance(unitary_of(lower(mut)), O)
        assert abs(d - want) < 1e-3
        got.clear()
        v = verify_circuit(mut, spec)
        assert abs(max(e for _, e in got) - d) < 1e-12
        assert v.lines() == ["FAIL tier=dense inputs=512: spectral error "
                             "%.3e > epsilon 0.1" % d] if d > 0.1 else \
            ["ok tier=dense inputs=512"]


def _permutation_cases():
    """Every mcx and mcmt-x request of the dense range."""
    for n in range(1, 10):
        yield "mcx", n, 1, "clean"
        yield "mcx", n, 1, "dirty"
        for m in range(1, 11 - n):
            yield "mcmt-x", n, m, "clean"


@pytest.mark.parametrize("target, n, m, ancilla", list(_permutation_cases()))
def test_bit_sliced_check_matches_the_column_stacks(monkeypatch, target, n,
                                                    m, ancilla):
    # the circuit, seeded mutants, one RCCX made a CCX (a phase of +-i on
    # some inputs) and three circuits with one gate dropped: the bit-sliced
    # verdict, which runs neither apply nor the kernel, against the sparse
    # kernel's on every basis input
    c, spec = bench.build(target, n, m, ancilla)
    rng = np.random.default_rng(n * 16 + m)
    circuits = [c]
    rccx = [i for i, g in enumerate(c.gates) if g.kind == "RCCX"]
    if rccx:
        circuits += _mutants(c, rng, 3)
        i = int(rng.choice(rccx))
        circuits.append(Circuit(c.num_qubits, c.gates[:i] + (
            Gate("CCX", c.gates[i].qubits),) + c.gates[i + 1:],
            c.ancilla_roles))
    for i in rng.choice(len(c.gates), min(3, len(c.gates)), replace=False):
        circuits.append(Circuit(c.num_qubits, c.gates[:i] + c.gates[i + 1:],
                                c.ancilla_roles))

    def no_run(*args):
        raise AssertionError("the bit-sliced check ran apply or the kernel")
    monkeypatch.setattr(sim, "apply", no_run)
    monkeypatch.setattr(verify, "_held", no_run)
    sliced = [verify_circuit(b, spec).lines() for b in circuits]
    assert verify_circuit(c, spec._replace(ws=(X,) * m)).lines() == sliced[0]
    monkeypatch.undo()
    k = 1 << (c.num_qubits - (ancilla == "clean"))
    assert [[f for f in v if "dense check" in f] for v in sliced] == [
        ["FAIL tier=dense inputs=%d: %s" % (k, f) for f in
         kernel_fails(b, spec)] for b in circuits]
    assert sliced[0] == ["ok tier=dense inputs=%d" % k]
    assert any(v[-1].startswith("FAIL") for v in sliced[1:])


@pytest.mark.parametrize("qubits", [(0, 1, 2), (2, 1, 0), (1, 2, 0),
                                    (0, 2, 1)])
def test_bit_sliced_gates_match_their_matrices(qubits):
    # every basis input through X, CX, CCX and RCCX on 3 wires, bit-sliced,
    # lands where the gate's matrix sends it, with the matrix's phase; on
    # wires (2, 1, 0) RCCX's matrix is sim.rccx_matrix() itself
    for kind, arity in (("X", 1), ("CX", 2), ("CCX", 3), ("RCCX", 3)):
        c = Circuit(3, [Gate(kind, qubits[-arity:])])
        wires = verify._basis_ints(3, 8)
        lo, hi, conds = verify._slice(c, wires, 8)
        assert conds == []
        P = np.zeros((8, 8), dtype=complex)
        for j in range(8):
            out = sum((w >> j & 1) << q for q, w in enumerate(wires))
            P[out, j] = 1j ** ((lo >> j & 1) + 2 * (hi >> j & 1))
        assert np.abs(P - unitary_of(c)).max() < 1e-12, kind
        if (kind, qubits) == ("RCCX", (2, 1, 0)):
            assert np.abs(P - rccx_matrix()).max() < 1e-12


@pytest.mark.parametrize("g", [
    Gate("X", (0,)), Gate("H", (0,)), Gate("T", (0,)), Gate("Tdg", (0,)),
    Gate("Rx", (0,), angle=0.3), Gate("Ry", (0,), angle=-1.2),
    Gate("Rz", (0,), angle=2.5), Gate("U2", (0,), matrix=rz_mat(0.4)),
    Gate("CX", (0, 1)), Gate("CU2", (0, 1), matrix=H), Gate("CCX", (0, 1, 2)),
    Gate("RCCX", (0, 1, 2))], ids=lambda g: g.kind)
def test_target_blocks_match_gate_matrices(g):
    # the 2x2 the split check applies to a quantum target for each value of
    # the controls is the diagonal block of the gate's matrix there, and the
    # matrix moves no control
    M, blocks = sim.gate_matrix(g), verify._blocks(g)
    assert len(blocks) == len(M) // 2
    for v, block in enumerate(blocks):
        part = M[:, 2 * v:2 * v + 2]
        assert np.abs(part[2 * v:2 * v + 2] - np.asarray(block)).max() < 1e-12
        assert np.abs(np.delete(part, [2 * v, 2 * v + 1], axis=0)).max(
            initial=0) < 1e-12


def test_basis_ints_match_the_closed_form():
    # the doubling shifts against the division they replace, on every
    # power-of-two input count up to 2^16, and against the definition on
    # counts that are no power of two
    def closed(nq, k):
        ones = (1 << k) - 1
        return [0 if 1 << q >= k else ones // ((1 << (2 << q)) - 1)
                * (((1 << (1 << q)) - 1) << (1 << q)) for q in range(nq)]
    for nq in range(17):
        for k in {1 << nq, 1 << max(nq - 1, 0)}:
            assert verify._basis_ints(nq, k) == closed(nq, k), (nq, k)
    for k in (3, 5, 6, 7, 11, 100):
        assert verify._basis_ints(7, k) == [
            sum((j >> q & 1) << j for j in range(k)) for q in range(7)]


def _sliced_past_the_columns():
    """mcx and mcmt-x requests of 12 qubits up to SLICED_INPUTS inputs."""
    for n in (10, 13, 16, 20):
        yield "mcx", n, 1, "clean"
    for n in (10, 14, 17, 19):
        yield "mcx", n, 1, "dirty"
    for n, m in ((9, 2), (10, 3), (13, 2), (12, 6), (17, 3), (17, 4)):
        yield "mcmt-x", n, m, "clean"


@pytest.mark.parametrize("target, n, m, ancilla",
                         list(_sliced_past_the_columns()))
def test_bit_sliced_check_kills_what_the_sparse_tier_kills(target, n, m,
                                                           ancilla):
    # past the column stacks, verify checks these builds on every basis
    # input; the sparse tier, which still checks them above the budget,
    # draws near-firing ones.  Both pass the build, and each seeded mutant
    # the sparse tier FAILs must FAIL the exhaustive check too
    c, spec = bench.build(target, n, m, ancilla)
    k = 1 << (c.num_qubits - (ancilla == "clean"))
    assert c.num_qubits > 11 and k <= verify.SLICED_INPUTS
    assert verify_circuit(c, spec).lines() == ["ok tier=dense inputs=%d" % k]
    assert verify._sparse(c, spec)[1] == []
    kills = [(verify._sparse(bad, spec)[1] != [],
              verify_circuit(bad, spec).fails != ())
             for bad in _mutants(c, np.random.default_rng(n * 32 + m), 6)]
    assert all(dense for sparse, dense in kills if sparse), kills
    assert any(sparse for sparse, _ in kills)


@pytest.mark.parametrize("argv, line", [
    ("mcx --controls 20", "ok tier=dense inputs=2097152"),
    ("mcx --controls 21", "ok tier=sparse inputs="),
    ("mcx --controls 19 --ancilla dirty", "ok tier=dense inputs=2097152"),
    ("mcx --controls 20 --ancilla dirty", "ok tier=sparse inputs="),
    ("mcmt-x --controls 17 --targets 4", "ok tier=dense inputs=2097152"),
    ("mcmt-x --controls 17 --targets 5", "ok tier=sparse inputs="),
])
def test_bit_sliced_budget_is_the_tier_boundary(capsys, argv, line):
    # the last shapes with SLICED_INPUTS inputs run bit-sliced in the dense
    # tier, the first ones past it the sparse tier
    assert cli.run(["verify"] + argv.split()) == 0
    err = capsys.readouterr().err
    assert err.startswith("verify %s: %s" % (argv.split()[0], line)), err


def _statevector_check_fails(c, spec):
    """A seeded statevector check of a 12-18 qubit circuit: eight random
    product states on the controls and the target (mcx; a dirty ancilla
    takes a random basis value), else the firing pattern and five drawn
    ones with control 0 clear, each with a random target state.  True if
    a state's output leaves the oracle's by more than 1e-9 in some entry,
    or, for approx-u, by more than epsilon at the state's best phase."""
    n, m, nq = spec.n, len(spec.ws), c.num_qubits
    rng = np.random.default_rng(20240811)
    if spec.target == "mcx":
        psis = [product_state(n + 1, rng) for _ in range(8)]
        inputs = [((int(rng.integers(2)) if spec.ancilla == "dirty" else 0)
                   << (n + 1), np.arange(1 << (n + 1)), psi) for psi in psis]
    else:
        pats = [(1 << n) - 1] + [int(rng.integers(1 << n) & ((1 << n) - 2))
                                 for _ in range(5)]
        inputs = [(p, np.arange(1 << m) << n, random_state(m, rng))
                  for p in pats]
    cols = np.zeros((1 << nq, len(inputs)), dtype=complex)
    for i, (base, idx, psi) in enumerate(inputs):
        cols[base + idx, i] = psi
    out, want = apply(lower(c), cols), apply_oracle(cols, n, spec.ws)
    if spec.epsilon is None:
        return np.abs(out - want).max() > 1e-9
    phase = np.exp(1j * np.angle((want.conj() * out).sum(axis=0)))
    return np.linalg.norm(out - phase * want, axis=0).max() > spec.epsilon


@pytest.mark.parametrize("target, n, ancilla", [
    ("mcx", 10, "clean"), ("mcx", 14, "dirty"), ("mcmt-x", 9, "clean"),
    ("mcmt-x", 13, "clean"), ("mcmt-su2", 10, "none"),
    ("mcmt-su2", 14, "none"), ("approx-u", 11, "none"),
    ("approx-u", 15, "none")])
def test_sparse_tier_kills_what_a_statevector_check_kills(target, n,
                                                          ancilla):
    # seeded mutants of 12- and 16-qubit circuits: each one a statevector
    # check catches must FAIL the sparse tier, run directly, and the tier
    # verify picks (dense, by the split check, for every good circuit)
    c, spec = bench.build(target, n, 2, ancilla)
    v = verify_circuit(c, spec)
    assert (v.tier, v.fails) == ("dense", ())
    assert verify._sparse(c, spec)[1] == []
    kills = [(_statevector_check_fails(bad, spec),
              verify._sparse(bad, spec)[1] != [],
              verify_circuit(bad, spec).fails != ())
             for bad in _mutants(c, np.random.default_rng(n), 6)]
    assert all(sparse and picked for spot, sparse, picked in kills if spot), \
        kills
    assert any(spot for spot, _, _ in kills)


@pytest.mark.parametrize("n, m", [(10, 2), (9, 4), (11, 2), (12, 2), (10, 5),
                                  (13, 3), (14, 2)])
def test_split_check_kills_what_the_sparse_tier_kills(n, m):
    # mcmt-su2 of 12 to 16 qubits, which verify checks bit-sliced on every
    # basis input: each seeded mutant that the sparse tier, run directly,
    # FAILs, or up to 13 qubits a statevector check, verify's check FAILs
    # too, a mutant whose control turns quantum among them
    rng = np.random.default_rng(7 * n + m)
    gate = (H, random_su2(rng), rz_mat(0.7))[(n + m) % 3]
    c, spec = bench.build("mcmt-su2", n, m, gate=gate)
    assert verify_circuit(c, spec).lines() == [
        "ok tier=dense inputs=%d%s" % (1 << (n + m), spec.dropped())]
    kills = []
    for bad in list(_any_mutants(c, rng, 6)) + list(_mutants(c, rng, 3)):
        v = verify_circuit(bad, spec)
        kills.append((verify._sparse(bad, spec)[1] != [],
                      n + m <= 13 and _statevector_check_fails(bad, spec),
                      v.tier, [f for f in v.fails if "check" in f] != []))
    assert all(check for sparse, spot, _, check in kills if sparse or spot), \
        kills
    assert any(sparse for sparse, _, _, _ in kills)
    assert any(tier == "dense" and check for _, _, tier, check in kills)


@pytest.mark.parametrize("n, m", [(3, 3), (4, 2), (1, 5), (2, 4)])
def test_split_check_past_its_work_bound_falls_back(monkeypatch, n, m):
    # the build has 4 classes (2 with one control) of 4^m entries: at that
    # work the split check builds its operators in Python, one unit less in
    # numpy (sim.operator), with the same line; seeded mutants get the same
    # lines from both branches (bound 2^40 and 0)
    rng = np.random.default_rng(n * 8 + m)
    c, spec = bench.build("mcmt-su2", n, m, gate=random_su2(rng))
    operator, calls = sim.operator, []
    monkeypatch.setattr(sim, "operator",
                        lambda *a: calls.append(a) or operator(*a))
    work = (2 if n == 1 else 4) << 2 * m
    for bound, numpy in ((work, False), (work - 1, True)):
        monkeypatch.setattr(verify, "_WORK", bound)
        calls.clear()
        assert verify_circuit(c, spec).lines() == [
            "ok tier=dense inputs=%d" % (1 << (n + m))]
        assert (calls != []) == numpy
    mutants, lines = list(_any_mutants(c, rng, 6)), []
    for bound in (1 << 40, 0):
        monkeypatch.setattr(verify, "_WORK", bound)
        lines.append([verify_circuit(b, spec).lines() for b in mutants])
    assert lines[0] == lines[1]
    assert any(v[-1].startswith("FAIL") for v in lines[0])


@pytest.mark.parametrize("n, m, seed", [(3, 2, 0), (2, 3, 1), (4, 3, 2),
                                        (1, 3, 3), (5, 2, 4)])
def test_split_check_matches_the_kernel_on_random_gates(n, m, seed):
    # an mcmt-su2 build followed by random gates of every kind: on the
    # controls only X, CX, CCX and RCCX among controls, on the targets any
    # gate with controls anywhere, so gates with quantum controls too; then
    # the same with the random gates undone.  The split check takes both and
    # gives the kernel's line on every basis input
    rng = np.random.default_rng(seed)
    c, spec = bench.build("mcmt-su2", n, m, gate=random_su2(rng))
    rand = []
    for kind in rng.permutation(sorted(ARITY) * 2):
        arity = ARITY[kind]
        if kind in verify._PERMUTING and arity <= n and rng.integers(2):
            qubits = rng.choice(n, arity, replace=False)
        else:
            t = n + int(rng.integers(m))
            qubits = list(rng.choice([q for q in range(n + m) if q != t],
                                     arity - 1, replace=False)) + [t]
        rand.append(Gate(kind, qubits,
                         angle=rng.normal() if kind in ANGLE_KINDS else None,
                         matrix=random_su2(rng) if kind in MATRIX_KINDS
                         else None))
    for gates, fails in ((rand, True), (rand + inverse_gates(rand), False)):
        b = Circuit(n + m, c.gates + tuple(gates))
        split = verify._split(b, spec)
        assert split == kernel_fails(b, spec)
        assert (split != []) == fails


def test_split_check_work_bound_is_ten_targets():
    # 4 classes of 4^10 entries are _WIDE: the build with 10 targets runs the
    # split check, with 11 it declines
    for m, declines in ((10, False), (11, True)):
        c, spec = bench.build("mcmt-su2", 4, m, gate=H)
        assert (verify._split(c, spec) is None) == declines


@pytest.mark.parametrize("argv, rows, batches", [
    ("mcmt-su2 --controls 31 --targets 1 --gate rz(0.4)", 1 << 6, 22),
    ("mcx --controls 30 --ancilla dirty", 1 << 8, 11),
    ("mcmt-x --controls 18 --targets 4", 1 << 9, 12),
    ("approx-u --controls 27 --gate x --epsilon 0.1", 1 << 12, 14)])
def test_sparse_tier_runs_in_batches_of_max_rows(capsys, monkeypatch, argv,
                                                 rows, batches):
    # with the row cap cut to a few inputs a batch, the sparse tier's line is
    # the same: each input spreads to at most 2^h rows (h: the targets and
    # approx-u's base controls), and no gate leaves a batch with more rows
    # than the cap
    assert cli.run(["verify"] + argv.split()) in (0, 1)
    whole = capsys.readouterr().err
    assert "tier=sparse" in whole
    held, sizes = verify._held, []
    monkeypatch.setattr(verify, "_held", lambda c, spec, *a: sizes.append(
        a[-1]) or held(c, spec, *a))
    monkeypatch.setattr(verify, "MAX_ROWS", rows)
    assert cli.run(["verify"] + argv.split()) in (0, 1)
    assert capsys.readouterr().err == whole
    assert len(sizes) == batches and len(set(sizes[:-1])) == 1


def test_an_input_past_max_rows_stops_the_sparse_tier(monkeypatch):
    # 8 controls and 14 targets: each input spreads to 2^14 rows, so the
    # 147 inputs run in two batches; with a cap below 2^14, not even one
    # input fits
    spec = Spec("mcmt-su2", 8, (H,) * 14)
    labels, batches = verify._sparse_inputs(spec, 22,
                                            np.random.default_rng(1))
    assert [size for _, size in batches] == [128, len(labels) - 128]
    monkeypatch.setattr(verify, "MAX_ROWS", (1 << 14) - 1)
    with pytest.raises(ValueError, match="more than 16383 amplitudes"):
        verify._sparse_inputs(spec, 22, np.random.default_rng(1))
