"""Wigner little-d polynomials and D-functions on SO(3) in Euler angles.

Conventions: k(alpha, beta, gamma) = R_z(alpha) R_x(beta) R_z(gamma) and

    D^l_{m1,m2}(k(a, b, g)) = e^{i m1 a} d^l_{m1,m2}(cos b) e^{i m2 g}.

Some references flip the signs of m1 and m2; this package fixes the
convention above throughout and makes no attempt to detect others.

The so(3) action of Y1, Y2, Y3 is written once, as the step table read by
`y_steps`; the float derivatives here and the exact action and matrix
assembly of `action` all read it.

numpy is imported inside the float functions that call it, so the exact
engine, which reads only the step table and WignerIndex, never loads it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

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


LMAX_VALIDATED = 80  # the kernel is checked against 50-digit values up to here


@lru_cache(maxsize=LMAX_VALIDATED + 1)
def _jy_eigenbasis(l: int) -> tuple[np.ndarray, np.ndarray]:
    """(mu, V) with J_y = V diag(mu) V^H in the basis m = -l..l."""
    import numpy as np
    if not 0 <= l <= LMAX_VALIDATED:
        raise ValueError(f"l = {l} is outside the validated 0 <= l <= {LMAX_VALIDATED}")
    j_plus = np.diag(np.sqrt(ladder_coeff_sq(l, np.arange(-l, l), 1.0)), -1)
    mu, v = np.linalg.eigh((j_plus - j_plus.T) / 2j)
    mu.flags.writeable = v.flags.writeable = False
    return mu, v


def little_d_matrix(l: int, beta: float | np.ndarray) -> np.ndarray:
    """d^l(beta) indexed [..., m1 + l, m2 + l], for a scalar or array beta:
    Re V diag(e^{i beta mu}) V^H, the transpose of exp(-i beta J_y) (Risbo;
    Feng, Wang, Yang & Jin), accurate to 1e-12 for l <= LMAX_VALIDATED."""
    import numpy as np
    mu, v = _jy_eigenbasis(l)
    phases = np.exp(1j * np.multiply.outer(beta, mu))
    return ((v * phases[..., None, :]) @ v.conj().T).real


def _little_d_at(l: int, m1: int, m2: int, beta: float) -> float:
    import numpy as np
    mu, v = _jy_eigenbasis(l)
    return float(((v[m1 + l] * np.exp(1j * beta * mu)) @ v[m2 + l].conj()).real)


def little_d(l: int, m1: int, m2: int, x: float) -> float:
    """d^l_{m1,m2}(x) for x = cos(beta) in [-1, 1], from the J_y eigenbasis
    of `little_d_matrix`: accurate to 1e-12 for l <= 80, refused above."""
    WignerIndex(l, m1, m2).validate()
    if not -1.0 <= x <= 1.0:
        raise ValueError("argument must lie in [-1, 1]")
    return _little_d_at(l, m1, m2, math.acos(x))


def wigner_D(idx: WignerIndex, angles: EulerAngles) -> complex:
    """D^l_{m1,m2} evaluated at Euler angles."""
    import numpy as np
    l, m1, m2 = WignerIndex(*idx).validate()
    a, b, g = angles
    return np.exp(1j * (m1 * a + m2 * g)) * _little_d_at(l, m1, m2, b)


def wigner_D_matrix(l: int, angles: EulerAngles) -> np.ndarray:
    """The full (2l+1) x (2l+1) matrix [D^l_{m1,m2}], indices running -l..l."""
    import numpy as np
    a, b, g = angles
    m = np.arange(-l, l + 1)
    return (np.exp(1j * m * a)[:, None] * little_d_matrix(l, b)
            * np.exp(1j * m * g)[None, :])


# ---------------------------------------------------------------------------
# Euler angle <-> matrix


def _rz(t: float) -> np.ndarray:
    import numpy as np
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rx(t: float) -> np.ndarray:
    import numpy as np
    c, s = math.cos(t), math.sin(t)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def matrix_from_euler(angles: EulerAngles) -> np.ndarray:
    a, b, g = angles
    return _rz(a) @ _rx(b) @ _rz(g)


def euler_from_matrix(k: np.ndarray) -> EulerAngles:
    """Euler angles of a special orthogonal matrix.

    Gimbal-locked cases (beta in {0, pi}) are canonicalized to gamma = 0.
    """
    import numpy as np
    k = np.asarray(k, dtype=float)
    if k.shape != (3, 3) or np.linalg.norm(k.T @ k - np.eye(3)) > 1e-8 \
            or abs(np.linalg.det(k) - 1.0) > 1e-8:
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


# A = pi(Y2 + iY3) raises m and B = pi(-Y2 + iY3) lowers it, so each m-step
# of pi(Y2) = (A - B)/2 and pi(Y3) = -i(A + B)/2 carries a unit factor; the
# units are exact binary floats, so exact callers read them as rationals.
_Y_STEP_UNITS = {2: {+1: 0.5, -1: -0.5}, 3: {+1: -0.5j, -1: -0.5j}}


def y_steps(i: int, l: int, m: int) -> tuple:
    """pi(Y_i) on D^l_{.,m} as rows (m', unit, square): the coefficient of
    D^l_{.,m'} is unit * sqrt(square).  Y1 is the one row (m, i m, 1); Y2
    and Y3 step m by +-1 within |m'| <= l, with square ladder_coeff_sq."""
    if i == 1:
        return ((m, 1j * m, 1),)
    if i not in _Y_STEP_UNITS:
        raise ValueError("generator index must be 1, 2, or 3")
    return tuple((m + step, unit, ladder_coeff_sq(l, m, step))
                 for step, unit in _Y_STEP_UNITS[i].items() if abs(m + step) <= l)


def right_derivative_Y(i: int, idx: WignerIndex) -> KTypeVector:
    """pi(Y_i) D^l_{m1,m2} as a complex linear combination (right translation)."""
    l, m1, m2 = WignerIndex(*idx).validate()
    return KTypeVector({WignerIndex(l, m1, t): unit * math.sqrt(square)
                        for t, unit, square in y_steps(i, l, m2)})


def left_derivative_Y(i: int, idx: WignerIndex) -> KTypeVector:
    """L(Y_i) D^l_{m1,m2}: the rows of `y_steps` on m1 instead of m2, with
    the Y2 units negated, as L(-Y2 + iY3) raises m1 and L(Y2 + iY3) lowers it."""
    l, m1, m2 = WignerIndex(*idx).validate()
    return KTypeVector({WignerIndex(l, t, m2):
                        (-unit if i == 2 else unit) * math.sqrt(square)
                        for t, unit, square in y_steps(i, l, m1)})


def eval_vector(vec: KTypeVector, angles: EulerAngles) -> complex:
    """Evaluate a complex-coefficient Wigner combination at Euler angles."""
    total = 0.0 + 0.0j
    for idx, c in vec.items():
        total += c * wigner_D(idx, angles)
    return total
