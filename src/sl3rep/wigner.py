"""Wigner little-d polynomials and D-functions on SO(3) in Euler angles.

Conventions: k(alpha, beta, gamma) = R_z(alpha) R_x(beta) R_z(gamma) and

    D^l_{m1,m2}(k(a, b, g)) = e^{i m1 a} d^l_{m1,m2}(cos b) e^{i m2 g}.

Some references flip the signs of m1 and m2; this package fixes the
convention above throughout and makes no attempt to detect others.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ktvector import KTypeVector


class WignerIndex(NamedTuple):
    l: int
    m1: int
    m2: int

    def validate(self) -> "WignerIndex":
        if self.l < 0 or abs(self.m1) > self.l or abs(self.m2) > self.l:
            raise ValueError(f"index out of range: {self}")
        return self


class EulerAngles(NamedTuple):
    alpha: float
    beta: float
    gamma: float


@lru_cache(maxsize=4096)
def _lfact(n: int) -> float:
    return math.lgamma(n + 1)


def little_d(l: int, m1: int, m2: int, x: float) -> float:
    """d^l_{m1,m2}(x) for x = cos(beta) in [-1, 1].

    Uses the finite binomial sum with log-factorial prefactors; stable for
    l up to ~50.
    """
    WignerIndex(l, m1, m2).validate()
    if not -1.0 <= x <= 1.0:
        raise ValueError("argument must lie in [-1, 1]")
    ch = math.sqrt((1.0 + x) / 2.0)  # cos(beta/2)
    sh = math.sqrt((1.0 - x) / 2.0)  # sin(beta/2)
    pref = 0.5 * (_lfact(l + m1) + _lfact(l - m1) - _lfact(l + m2) - _lfact(l - m2))
    total = 0.0
    for r in range(max(0, m1 + m2), min(l + m1, l + m2) + 1):
        pc = 2 * r - m1 - m2
        ps = 2 * l + m1 + m2 - 2 * r
        if (ch == 0.0 and pc > 0) or (sh == 0.0 and ps > 0):
            continue
        logmag = (pref + _lfact(l + m2) - _lfact(r) - _lfact(l + m2 - r)
                  + _lfact(l - m2) - _lfact(l + m1 - r) - _lfact(r - m1 - m2))
        term = math.exp(logmag) * ch ** pc * sh ** ps
        total += -term if r % 2 else term
    return total if (l + m2) % 2 == 0 else -total


def wigner_D(idx: WignerIndex, angles: EulerAngles) -> complex:
    """D^l_{m1,m2} evaluated at Euler angles."""
    l, m1, m2 = WignerIndex(*idx).validate()
    a, b, g = angles
    return (np.exp(1j * (m1 * a + m2 * g)) * little_d(l, m1, m2, math.cos(b)))


def wigner_D_matrix(l: int, angles: EulerAngles) -> np.ndarray:
    """The full (2l+1) x (2l+1) matrix [D^l_{m1,m2}], indices running -l..l."""
    out = np.empty((2 * l + 1, 2 * l + 1), dtype=complex)
    for i, m1 in enumerate(range(-l, l + 1)):
        for j, m2 in enumerate(range(-l, l + 1)):
            out[i, j] = wigner_D(WignerIndex(l, m1, m2), angles)
    return out


# ---------------------------------------------------------------------------
# Euler angle <-> matrix


def _rz(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rx(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def matrix_from_euler(angles: EulerAngles) -> np.ndarray:
    a, b, g = angles
    return _rz(a) @ _rx(b) @ _rz(g)


def euler_from_matrix(k: np.ndarray, tol: float = 1e-10) -> EulerAngles:
    """Euler angles of a special orthogonal matrix.

    Gimbal-locked cases (beta in {0, pi}) are canonicalized to gamma = 0.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (3, 3) or np.linalg.norm(k.T @ k - np.eye(3)) > tol * 100 \
            or abs(np.linalg.det(k) - 1.0) > tol * 100:
        raise ValueError("input is not special orthogonal")
    cb = min(1.0, max(-1.0, k[2, 2]))
    beta = math.acos(cb)
    if min(1.0 - cb, 1.0 + cb) < 1e-12:
        gamma = 0.0
        # k = R_z(alpha) R_x(beta) with beta in {0, pi}; either way the
        # z-rotation is read off the top-left block
        alpha = math.atan2(k[1, 0], k[0, 0])
    else:
        alpha = math.atan2(k[0, 2], -k[1, 2])
        gamma = math.atan2(k[2, 0], k[2, 1])
    return EulerAngles(alpha % (2 * math.pi), beta, gamma % (2 * math.pi))


# ---------------------------------------------------------------------------
# so(3) derivative formulas on Wigner functions

def ladder_coeff_sq(l: int, m: int, step: int) -> int:
    """l(l+1) - m(m+step) for step in {+1, -1}; the squared ladder factor."""
    return l * (l + 1) - m * (m + step)


def right_derivative_Y(i: int, idx: WignerIndex) -> KTypeVector:
    """pi(Y_i) D^l_{m1,m2} as a complex linear combination (right translation)."""
    l, m1, m2 = WignerIndex(*idx).validate()
    out = KTypeVector()
    if i == 1:
        out.add_term(WignerIndex(l, m1, m2), 1j * m2)
        return out
    up = math.sqrt(ladder_coeff_sq(l, m2, +1)) if m2 < l else 0.0
    dn = math.sqrt(ladder_coeff_sq(l, m2, -1)) if m2 > -l else 0.0
    # A = pi(Y2 + iY3) raises m2; B = pi(-Y2 + iY3) lowers m2
    if i == 2:
        if up:
            out.add_term(WignerIndex(l, m1, m2 + 1), 0.5 * up)
        if dn:
            out.add_term(WignerIndex(l, m1, m2 - 1), -0.5 * dn)
    elif i == 3:
        if up:
            out.add_term(WignerIndex(l, m1, m2 + 1), -0.5j * up)
        if dn:
            out.add_term(WignerIndex(l, m1, m2 - 1), -0.5j * dn)
    else:
        raise ValueError("generator index must be 1, 2, or 3")
    return out


def left_derivative_Y(i: int, idx: WignerIndex) -> KTypeVector:
    """L(Y_i) D^l_{m1,m2}; shifts m1 instead of m2."""
    l, m1, m2 = WignerIndex(*idx).validate()
    out = KTypeVector()
    if i == 1:
        out.add_term(WignerIndex(l, m1, m2), 1j * m1)
        return out
    up = math.sqrt(ladder_coeff_sq(l, m1, +1)) if m1 < l else 0.0
    dn = math.sqrt(ladder_coeff_sq(l, m1, -1)) if m1 > -l else 0.0
    # L(-Y2 + iY3) raises m1; L(Y2 + iY3) lowers m1
    if i == 2:
        if dn:
            out.add_term(WignerIndex(l, m1 - 1, m2), 0.5 * dn)
        if up:
            out.add_term(WignerIndex(l, m1 + 1, m2), -0.5 * up)
    elif i == 3:
        if up:
            out.add_term(WignerIndex(l, m1 + 1, m2), -0.5j * up)
        if dn:
            out.add_term(WignerIndex(l, m1 - 1, m2), -0.5j * dn)
    else:
        raise ValueError("generator index must be 1, 2, or 3")
    return out


def eval_vector(vec: KTypeVector, angles: EulerAngles) -> complex:
    """Evaluate a complex-coefficient Wigner combination at Euler angles."""
    total = 0.0 + 0.0j
    for idx, c in vec.items():
        cc = complex(c) if not isinstance(c, complex) else c
        total += cc * wigner_D(idx, angles)
    return total
