"""The constructions build on the caller's wires.

``mcx_log``, ``mcmt_x``, ``mcmt_su2`` and ``approx_mcu`` nest: each level
writes its inner gate straight onto the wires it names, so no gate is built
twice.  These tests hold each level to the composition it replaced, an
inner circuit on a register of its own moved with ``remap`` (and, for the
second approximate block, inverted with ``inverse``).
"""
import math
import sys

import numpy as np
import pytest

import qsynth.bench
import qsynth.ir as ir
from qsynth.approx import _ladder, approx_mcu
from qsynth.ir import Circuit, Gate, inverse, remap
from qsynth.mcx import McxSpec, _schedule, mcx_log
from qsynth.ir import rx_mat, rz_mat
from qsynth.su2 import (McmtSpec, _fanout_tree, _u2, conjugation_frame,
                        mcmt_su2, mcmt_x)

from conftest import random_su2

NS = list(range(1, 41)) + [64, 130]
MS = (1, 2, 5)


def _old_mcmt_x(n, m):
    """``mcmt_x`` as the mcx core moved into the mcmt register."""
    targets = list(range(n, n + m))
    if n == 1:
        return [Gate("CX", (0, t)) for t in targets]
    mapping = {q: q for q in range(n + 1)}
    mapping[n + 1] = n + m
    core = remap(mcx_log(McxSpec(n, "clean")), mapping, n + m + 1)
    tree = _fanout_tree(targets)
    return tree[::-1] + list(core.gates) + tree


def _old_mcmt_su2(n, m, ws):
    """``mcmt_su2`` for n >= 3 with its inner gate moved from ``mcmt_x``
    and its inverse taken by ``inverse``."""
    nq, k2 = n + m, n - 1
    targets = list(range(n, nq))
    pairs = [conjugation_frame(W) for W in ws]
    mapping = {q: q for q in range(n - 1)}
    mapping.update((n - 1 + i, t) for i, t in enumerate(targets))
    mapping[n - 1 + m] = k2
    inner = remap(mcmt_x(n - 1, m), mapping, nq)
    g_fwd = Circuit(nq, [Gate("X", (k2,)), *inner.gates, Gate("X", (k2,))])
    fan = [Gate("CX", (k2, t)) for t in targets]

    def layer(f):
        return [_u2(t, f(A, F)) for t, (A, F) in zip(targets, pairs)]

    return [*layer(lambda A, F: ir.mul(ir.adjoint(A), ir.adjoint(F))),
            *g_fwd.gates, *layer(lambda A, F: A), *fan,
            *layer(lambda A, F: ir.adjoint(A)),
            *inverse(g_fwd).gates, *layer(lambda A, F: A), *fan,
            *layer(lambda A, F: F)]


def _old_approx(n, U, epsilon, n_b):
    """``approx_mcu``'s gates with its central block moved from
    ``mcmt_su2`` and the second block taken by ``inverse``."""
    sigma = n_b + 1
    extras = list(range(sigma, n))
    ws = tuple(rx_mat(math.pi / (1 << k)) for k in range(sigma - 1))
    blk = mcmt_su2(McmtSpec(len(extras) + 1, sigma - 1, ws))
    mapping = {0: 0}
    mapping.update((1 + i, e) for i, e in enumerate(extras))
    mapping.update((len(extras) + 1 + j, 1 + j) for j in range(sigma - 1))
    block1 = remap(blk, mapping, n + 1)
    block2 = inverse(block1)
    gates = []
    _ladder(gates, U, list(range(sigma)), n, True, mid_hook=lambda inv:
            gates.extend((block2 if inv else block1).gates))
    return gates


@pytest.mark.parametrize("m", MS)
def test_mcmt_x_matches_the_moved_core(m):
    for n in NS:
        assert list(mcmt_x(n, m).gates) == _old_mcmt_x(n, m), (n, m)


@pytest.mark.parametrize("m", MS)
def test_mcmt_su2_matches_the_moved_inner_gate(m):
    rng = np.random.default_rng(40 + m)
    for n in NS:
        if n < 3:
            continue
        ws = tuple(random_su2(rng) for _ in range(m))
        got = mcmt_su2(McmtSpec(n, m, ws)).gates
        assert list(got) == _old_mcmt_su2(n, m, ws), (n, m)


@pytest.mark.parametrize("n_b", MS)
def test_approx_block_matches_the_moved_mcmt_su2(n_b):
    # a small angle and a loose budget leave n_b free to be any of MS
    U = rz_mat(0.3)
    for n in NS:
        if n < n_b + 5:
            continue
        c, params = approx_mcu(n, U, 0.5, n_b)
        assert params.n_b == n_b
        assert list(c.gates) == _old_approx(n, U, 0.5, n_b), (n, n_b)


@pytest.mark.parametrize("n", [4, 5, 17, 29, 30, 40, 64, 130])
def test_schedule_on_any_wires_is_the_moved_schedule(n):
    # shifted as approx_mcu shifts them, and in reversed order: the pass
    # never compares wire numbers
    stores, f, valid = _schedule(tuple(range(n)))
    base = Circuit(n, stores)
    for wires in ((0, *range(7, 7 + n - 1)), tuple(range(2 * n, n, -1))):
        moved = remap(base, dict(enumerate(wires)), max(wires) + 1)
        assert _schedule(wires) == (moved.gates, wires[f], valid), wires


def test_no_construction_calls_remap_or_inverse(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a construction called remap or inverse")

    for orig in (ir.remap, ir.inverse):
        for name, mod in list(sys.modules.items()):
            if name == "qsynth" or name.startswith("qsynth."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, attr, refuse)
    for target in ("mcx", "mcmt-x", "mcmt-su2", "approx-u"):
        for n in (1, 2, 3, 4, 29, 30, 64):
            if target != "approx-u" or n >= 10:
                qsynth.bench.build(target, n, 3)
    # approx-u's smallest n for its default gate X and epsilon 0.1
    qsynth.bench.build("approx-u", 10)
    with pytest.raises(ValueError):
        qsynth.bench.build("approx-u", 9)
    with pytest.raises(AssertionError):
        ir.remap(Circuit(1), {}, 1)
