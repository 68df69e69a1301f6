"""The outgoing Hankel function H1 = J + iY at integer and half-integer order.

Every order is reached by the upward recurrence H_{v+1} = (2v/z) H_v - H_{v-1}
(DLMF 10.6.1) from a seed pair (H_{v0-1}, H_{v0}): closed forms at v0 = 1/2; at
v0 = 0 the large-argument expansion for z >= ASYMPTOTIC_FROM, else Miller's
backward recurrence for J with Neumann series for Y (Gautschi, SIAM Rev. 9, 24
(1967)).  J is read from a Miller table, scaled to the seeds' J, below
ASYMPTOTIC_FROM and wherever the order passes z: there J falls far below |H|,
and the upward recurrence keeps it accurate only relative to |H|.  The
Wronskian J_{v0} Y_{v0-1} - J_{v0-1} Y_{v0} = 2/(pi z) is checked on the seeds.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, StabilityError, nonnegative

ASYMPTOTIC_FROM = 25.0
WRONSKIAN_TOL = 1e-9
_EULER_GAMMA = 0.5772156649015328606


def _hankel_asymptotic(order: float, z: float) -> complex:
    """Large-argument expansion of H1 (DLMF 10.17.5), called at orders 0 and 1 only."""
    total = term = complex(1.0)
    k = 0
    # for z >= 25 the terms fall below rounding (k <= 20) well before they grow (k ~ 2z)
    while abs(term) > 1e-17:
        k += 1
        term *= 1j * (4.0 * order * order - (2 * k - 1) ** 2) / (8.0 * k * z)
        total += term
    chi = z - order * math.pi / 2.0 - math.pi / 4.0
    return math.sqrt(2.0 / (math.pi * z)) * complex(math.cos(chi), math.sin(chi)) * total


def _miller_table(v0: float, top: int, z: float) -> list[float]:
    """J_{v0-1+k} / J_{v0}, k = 0..top, by backward recurrence of r_v = J_v / J_{v-1}
    = z / (2v - z r_{v+1}), which stays finite where J grows by 2v/z per step down."""
    ratios = [0.0]
    for k in range(top, 1, -1):
        ratios.append(z / (2.0 * (v0 - 1 + k) - z * ratios[-1]))
    j = [2.0 * v0 / z - ratios[-1], 1.0]
    for r in ratios[:0:-1]:
        j.append(j[-1] * r)
    return j


def _integer_seeds(j: list[float], z: float) -> tuple[complex, complex]:
    """(H_{-1}, H_0) from a Miller table j[k] = c J_{k-1} at integer order: J_0 + 2 sum
    J_{2k} = 1 fixes c; Y_0 and Y_1 are Neumann series in J."""
    c = j[1] + 2.0 * sum(j[3::2])
    log = math.log(z / 2.0) + _EULER_GAMMA
    y0 = log * j[1] - 2.0 * sum((-1) ** k * v / k for k, v in enumerate(j[3::2], 1))
    y1 = (log - 1.0) * j[2] - j[1] / z - sum(
        (-1) ** k * (2 * k + 1) / (k * (k + 1)) * v for k, v in enumerate(j[4::2], 1))
    return complex(j[0], -2.0 / math.pi * y1) / c, complex(j[1], 2.0 / math.pi * y0) / c


def hankel_h1(order: float, z: float) -> complex:
    """Outgoing Hankel function H^(1)_order(z) = J + iY, z positive and normal.

    Orders are restricted to nonnegative integers and half-integers.  A
    StabilityError is raised if the Wronskian of the seed pair drifts, and a
    DomainError if H1 is beyond floating-point range.
    """
    order, z = float(order), float(z)  # numpy scalars would slow every recurrence step
    if not (math.isfinite(z) and z >= sys.float_info.min):  # a subnormal z has too few digits
        raise DomainError(f"argument must be finite, positive and normal, got {z}")
    nonnegative(order=order)
    if not abs(2.0 * order - round(2.0 * order)) <= 2e-12:
        raise DomainError(f"order must be a nonnegative integer or half-integer, got {order}")
    v0 = 0.5 if round(2.0 * order) % 2 else 0.0
    steps = round(order - v0)
    if order > 2.0 * z + 1001.0:
        # |H| >= 3^1000 sqrt(2/(pi z)): |H_{v+1}| >= (2v/z - 1)|H_v| as |H_v| grows (DLMF 10.9.30)
        raise DomainError(f"H1 overflows at order {order}, z={z}")
    table = z < ASYMPTOTIC_FROM or order > z
    if table:
        # J has fallen to rounding max(30, 8 z^(1/3)) orders above max(z, order)
        j = _miller_table(v0, max(steps, int(z)) + max(30, math.ceil(8.0 * z ** (1 / 3))), z)
    if v0:
        h_prev = math.sqrt(2.0 / (math.pi * z)) * complex(math.cos(z), math.sin(z))
        h = -1j * h_prev
    elif z < ASYMPTOTIC_FROM:
        h_prev, h = _integer_seeds(j, z)
    else:
        h_prev, h = -_hankel_asymptotic(1.0, z), _hankel_asymptotic(0.0, z)
    residual = abs((math.pi * z / 2.0 * h_prev * h.conjugate()).imag - 1.0)
    if not residual <= WRONSKIAN_TOL:  # a NaN seed fails too
        raise StabilityError(
            f"Wronskian self-check failed at order {v0}, z={z}: residual {residual:.2e}")
    if table:  # J at the requested order, normalised on the larger of the two seed J
        seed, k = (h_prev.real, 0) if abs(h_prev.real) > abs(h.real) else (h.real, 1)
        re = j[steps + 1] * (seed / j[k])
    for k in range(steps):
        h_prev, h = h, (2.0 * (v0 + k) / z) * h - h_prev
    h = complex(re, h.imag) if table else h
    if not math.isfinite(abs(h)):
        raise DomainError(f"H1 overflows at order {order}, z={z}")
    return h
