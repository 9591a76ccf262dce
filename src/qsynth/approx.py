"""Approximate n-controlled U(2) synthesis with tunable error.

The exact scheme applies ladders ("columns") of controlled rotations and
controlled roots of U over a base register; the approximation fixes the
base size from the error budget (``n_b`` base controls via
:func:`nb_from_epsilon`), drops the single deepest root gate, and absorbs
every remaining extra control into two inverse-paired multi-controlled
multi-target SU(2) blocks, so each additional control costs exactly 24 CX.
Its matrices are ``ir`` tuples of Python complex numbers: nothing here
loads numpy.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .ir import (IDENTITY, Circuit, Gate, check_unitary, det, inverse_gates,
                 rx_mat, scale)
from .su2 import _mcmt_su2_gates


class ApproxParams(namedtuple("ApproxParams", "epsilon theta alpha n_b n_e")):
    """Parameters chosen for one approximate decomposition."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_b < 1 or self.n_e < 0:
            raise ValueError("bad base/extra split")
        if not 0 < self.epsilon < 2:
            raise ValueError("epsilon must lie in (0, 2)")
        if not 0 <= self.theta <= 2 * math.pi:
            raise ValueError("theta out of range")
        return self


def su2_angle(U):
    """Split a 2x2 unitary into (theta, alpha).

    alpha = arg(det U)/2 is the global phase; V = e^{-i alpha} U is in
    SU(2) with eigenvalues e^{-+ i theta/2}, theta in [0, 2 pi]; theta is
    2 pi when V is -I.
    """
    U = check_unitary(U, 1e-10)
    alpha = cmath.phase(det(U)) / 2.0
    (v00, _), (_, v11) = scale(U, cmath.exp(-1j * alpha))
    c = max(-1.0, min(1.0, ((v00 + v11) / 2.0).real))
    theta = 2.0 * math.acos(c)
    return theta, alpha


def nb_from_epsilon(theta, epsilon):
    """Base control count from the error budget.

    n_b = max(1, ceil(log2(|theta| / phi))) with phi = 2 asin(epsilon/2),
    the angle arccos(1 - epsilon^2/2) without its cancellation for small
    epsilon; the log2 is taken as a difference, so a ratio past the largest
    float still counts.
    """
    if not 0 < epsilon < 2:
        raise ValueError("epsilon must lie in (0, 2)")
    if theta == 0:
        raise ValueError("theta = 0: the controlled gate is a pure phase; "
                         "use exact synthesis instead")
    phi = 2.0 * math.asin(epsilon / 2.0)
    if phi == 0:
        # epsilon / 2 rounds to 0 only for the smallest subnormal epsilon
        raise ValueError("epsilon %g is too small: 2 asin(epsilon/2) rounds "
                         "to 0" % epsilon)
    return max(1, math.ceil(math.log2(abs(theta)) - math.log2(phi)))


def _mat_power(U, p):
    """Principal U^p of a 2x2 unitary (p may be negative or fractional) by
    Sylvester's formula on the principal powers of its eigenvalues l1, l2:
    l2^p I + (l1^p - l2^p) / (l1 - l2) (U - l2 I), or l^p I if they are equal.
    """
    (a, b), (c, d) = U
    mean = (a + d) * 0.5
    # l1, l2 = mean +- half; this form keeps their tiny imaginary parts
    half = cmath.sqrt(((a - d) * 0.5) ** 2 + b * c)
    if half == 0:
        return scale(IDENTITY, mean ** p)
    l1, l2 = mean + half, mean - half
    k = (l1 ** p - l2 ** p) / (2 * half)
    return ((l2 ** p + k * (a - l2), k * b), (k * c, l2 ** p + k * (d - l2)))


# ---------------------------------------------------------------------------
# column ladder

def _column(gates, U, targs, control, mid, inv, roots):
    """One ladder column: rotations on all but the last wire, then either a
    controlled root of U or one more rotation, all sharing one control."""
    k = 0 if mid else 1
    s = -1 if inv else 1
    for t in targs[:-1]:
        gates.append(Gate("CU2", (control, t),
                          matrix=rx_mat(math.pi / (s * (1 << k)))))
        k += 1
    if roots:
        gates.append(Gate("CU2", (control, targs[-1]),
                          matrix=_mat_power(U, 1.0 / (s * (1 << k)))))
    else:
        gates.append(Gate("CU2", (control, targs[-1]),
                          matrix=rx_mat(math.pi / (s * (1 << k)))))


def _ladder(gates, U, controls, targ, first, mid_hook=None):
    """Column ladder of the exact scheme over ``controls`` onto ``targ``.

    ``mid_hook``, when given, receives (inverse_flag) and emits the middle
    column itself (used to splice in the promoted multi-target blocks).
    """
    nc = len(controls)
    for k in range(nc - 1):
        _column(gates, U, controls[nc - k:] + [targ], controls[-1 - k],
                False, False, first)
    if mid_hook is not None:
        mid_hook(not first)
    else:
        _column(gates, U, controls[1:] + [targ], controls[0], True,
                not first, first)
    for k in range(nc - 2, -1, -1):
        _column(gates, U, controls[nc - k:] + [targ], controls[-1 - k],
                False, True, first)
    if first:
        _ladder(gates, U, controls[:-1], controls[-1], False,
                mid_hook=mid_hook)


def approx_mcu(n, U, epsilon, n_b=None):
    """Approximate C^nU on n+1 qubits, ancilla-free.

    Returns (circuit, ApproxParams).  The spectral-norm
    distance to C^nU, up to global phase, is at most epsilon; the CX count
    is 4 n_b^2 + 24 n - 12 n_b - 56, i.e. exactly 24 more per extra
    control.  Requires n >= n_b + 5 so the promoted central blocks have
    enough controls.  ``n_b`` may be overridden upward to trade gates for
    accuracy.
    """
    U = check_unitary(U, 1e-10)
    theta, alpha = su2_angle(U)
    auto_nb = nb_from_epsilon(theta, epsilon)
    if n_b is None:
        n_b = auto_nb
    elif n_b < auto_nb:
        raise ValueError("n_b below the error budget requirement %d"
                         % auto_nb)
    if n < n_b + 5:
        raise ValueError("need n >= n_b + 5 = %d control qubits for "
                         "epsilon = %g (got n = %d)" % (n_b + 5, epsilon, n))
    params = ApproxParams(epsilon=float(epsilon), theta=theta, alpha=alpha,
                          n_b=n_b, n_e=n - n_b)
    sigma = n_b + 1
    base = list(range(sigma))
    extras = list(range(sigma, n))
    targ = n

    # the middle columns are the only places the distinguished control
    # base[0] appears; conditioning them on the extra controls as well
    # promotes the sigma-control ladder to n controls at linear extra cost
    ws = [rx_mat(math.pi / (1 << k)) for k in range(sigma - 1)]
    block1 = _mcmt_su2_gates([base[0], *extras], base[1:], ws)
    block2 = inverse_gates(block1)

    gates = []

    def mid_hook(inv):
        # outer-level middle column (inv False): the promoted rotations,
        # with the deepest root on the target dropped (the truncation);
        # inner level (inv True): their exact inverse
        gates.extend(block2 if inv else block1)

    _ladder(gates, U, base, targ, True, mid_hook=mid_hook)
    return Circuit._checked(n + 1, gates), params
