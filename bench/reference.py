"""Reference formulas written apart from sl3rep, for checking its outputs.

Nothing here imports the package.  The coupling coefficients come from the
Racah sum, the Lambda factors and the five-term expansion from the paper's
statement of the action, the so(3) part from the ladder formulas, and the
standard generators from solving their 3x3 matrices in the (Y, Z) basis
with numpy.  Conventions follow the package README: Euler angles
R_z R_x R_z, v_{l,m1,m2} = D^l_{m1,m2} + (-1)^(d1+d3+l) D^l_{-m1,m2}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# Clebsch-Gordan coefficients by the Racah sum


@lru_cache(maxsize=None)
def cg(j1: int, m1: int, j2: int, m2: int, J: int, M: int) -> float:
    """<j1 m1 j2 m2 | J M> (Condon-Shortley), integer spins only.

    The Racah sum is taken in exact rationals; only the final square root
    is rounded.
    """
    if m1 + m2 != M or not abs(j1 - j2) <= J <= j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(M) > J:
        return 0.0
    f = math.factorial
    pref = Fraction((2 * J + 1) * f(J + j1 - j2) * f(J - j1 + j2) * f(j1 + j2 - J)
                    * f(J + M) * f(J - M) * f(j1 - m1) * f(j1 + m1)
                    * f(j2 - m2) * f(j2 + m2), f(j1 + j2 + J + 1))
    total = Fraction(0)
    for t in range(j1 + j2 - J + 1):
        dens = (t, j1 + j2 - J - t, j1 - m1 - t, j2 + m2 - t,
                J - j2 + m1 + t, J - j1 - m2 + t)
        if min(dens) < 0:
            continue
        den = 1
        for d in dens:
            den *= f(d)
        total += Fraction(-1 if t % 2 else 1, den)
    return float(total) * math.sqrt(pref)


def q(k: int, j: int, l: int, m: int) -> float:
    """<2 k l m | l+j k+m>, the coupling coefficient of the five-term action."""
    if l + j < 0:
        return 0.0
    return cg(2, k, l, m, l + j, k + m)


# ---------------------------------------------------------------------------
# The Lambda factors, exact at rational lambda


def lambda_factor(k: int, j: int, l: int, m1: int, lam):
    """Lambda^(k)_j(lam, l, m1); exact when lam is rational."""
    l1, l2, l3 = lam
    if k == -2:
        return l1 - l2 + 1 - m1
    if k == 2:
        return l1 - l2 + 1 + m1
    if k == 0:
        return l1 + l2 - 2 * l3 + Fraction(2 * j * l + j + j * j, 2)
    raise ValueError(k)


C_FACTOR = {-2: 1.0, 0: math.sqrt(2.0 / 3.0), 2: 1.0}


# ---------------------------------------------------------------------------
# The action on Wigner functions, in floating point


def act_Z(n: int, idx, lam) -> dict:
    """pi(Z_n) D^l_{m1,m2} = sum c_k q(k,j,l,m1) q(n,j,l,m2) Lam D^{l+j}."""
    l, m1, m2 = idx
    out: dict = {}
    for j in range(-2, 3):
        lt = l + j
        if lt < 0 or abs(m2 + n) > lt:
            continue
        qn = q(n, j, l, m2)
        if not qn:
            continue
        for k in (-2, 0, 2):
            if abs(m1 + k) > lt:
                continue
            c = C_FACTOR[k] * q(k, j, l, m1) * qn * complex(lambda_factor(k, j, l, m1, lam))
            if c:
                t = (lt, m1 + k, m2 + n)
                out[t] = out.get(t, 0) + c
    return out


def act_Y(i: int, idx) -> dict:
    """Right so(3) action: Y1 is i*m2; Y2, Y3 step m2 by one."""
    l, m1, m2 = idx
    if i == 1:
        return {idx: 1j * m2} if m2 else {}
    up = math.sqrt(l * (l + 1) - m2 * (m2 + 1))
    dn = math.sqrt(l * (l + 1) - m2 * (m2 - 1))
    out = {}
    if up:
        out[(l, m1, m2 + 1)] = 0.5 * up if i == 2 else -0.5j * up
    if dn:
        out[(l, m1, m2 - 1)] = -0.5 * dn if i == 2 else -0.5j * dn
    return out


# 3x3 matrices of the generators; Z_n are the paper's complexified
# symmetric generators, Y_i the rotations
_r23 = math.sqrt(2.0 / 3.0)
MATRICES = {
    "Y1": [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
    "Y2": [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
    "Y3": [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
    "Z-2": [[1, 1j, 0], [1j, -1, 0], [0, 0, 0]],
    "Z-1": [[0, 0, 1j], [0, 0, -1], [1j, -1, 0]],
    "Z0": [[_r23, 0, 0], [0, _r23, 0], [0, 0, -2 * _r23]],
    "Z1": [[0, 0, 1j], [0, 0, 1], [1j, 1, 0]],
    "Z2": [[1, -1j, 0], [-1j, -1, 0], [0, 0, 0]],
    "X1": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
    "X2": [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    "X3": [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    "X-1": [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
    "X-2": [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
    "X-3": [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
    "H1": [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
    "H2": [[0, 0, 0], [0, 1, 0], [0, 0, -1]],
}
MATRICES = {t: np.array(m, dtype=complex) for t, m in MATRICES.items()}
CONVENIENT = ("Y1", "Y2", "Y3", "Z-2", "Z-1", "Z0", "Z1", "Z2")
_BASIS = np.array([MATRICES[t].ravel() for t in CONVENIENT]).T  # 9 x 8


def coords(m: np.ndarray) -> dict:
    """Coordinates of a traceless 3x3 matrix in the (Y, Z) basis."""
    x, *_ = np.linalg.lstsq(_BASIS, np.asarray(m, dtype=complex).ravel(), rcond=None)
    if np.abs(_BASIS @ x - m.ravel()).max() > 1e-12:
        raise ValueError("matrix is not in the span of the (Y, Z) basis")
    return {t: c for t, c in zip(CONVENIENT, x) if abs(c) > 1e-14}


def basis_action(lam):
    """act(tag, idx): the action of a (Y, Z) basis tag on one Wigner function."""
    def act(tag: str, idx) -> dict:
        return act_Y(int(tag[1]), idx) if tag[0] == "Y" else act_Z(int(tag[1:]), idx, lam)
    return act


def act_matrix(m: np.ndarray, vec: dict, act) -> dict:
    """pi(m) applied to a complex combination of Wigner functions, through
    the coordinates of m in the (Y, Z) basis and `act` on each basis tag."""
    out: dict = {}
    for t, w in coords(m).items():
        for idx, c in vec.items():
            for tgt, v in act(t, idx).items():
                out[tgt] = out.get(tgt, 0) + w * c * v
    return out


def bracket_terms(tag_a: str, tag_b: str, idx, act) -> tuple[dict, dict, dict]:
    """(pi(A) pi(B) D, pi(B) pi(A) D, pi([A, B]) D) for D = D^l_{m1,m2}."""
    a, b = MATRICES[tag_a], MATRICES[tag_b]
    d = {tuple(idx): 1.0}
    return (act_matrix(a, act_matrix(b, d, act), act),
            act_matrix(b, act_matrix(a, d, act), act),
            act_matrix(a @ b - b @ a, d, act))


def max_distance(u: dict, v: dict) -> float:
    return max((abs(u.get(t, 0) - v.get(t, 0)) for t in set(u) | set(v)), default=0.0)


# ---------------------------------------------------------------------------
# The symmetrized basis


def fold_sign(delta, l: int) -> int:
    return -1 if (delta[0] + delta[2] + l) % 2 else 1


def labels(delta, l: int) -> list:
    """Valid (l, m1, m2) labels: m1 = d1 + d2 mod 2, m1 = 0 only for sign +1."""
    return [(l, m1, m2) for m1 in range((delta[0] + delta[1]) % 2, l + 1, 2)
            if m1 or fold_sign(delta, l) == 1
            for m2 in range(-l, l + 1)]


def act_on_label(gen: str, label, delta, lam) -> dict:
    """pi(gen) v_{l,m1,m2} written in the v basis (m1 >= 0)."""
    l, m1, m2 = label
    if gen[0] == "Y":
        return act_Y(int(gen[1]), label)
    comps = [((l, 0, m2), 2.0)] if m1 == 0 else \
        [((l, m1, m2), 1.0), ((l, -m1, m2), fold_sign(delta, l))]
    raw: dict = {}
    for idx, w in comps:
        for t, c in act_Z(int(gen[1:]), idx, lam).items():
            raw[t] = raw.get(t, 0) + w * c
    # v_{l',m1',m2'} carries D_{+m1'} with weight 1, or 2 when m1' = 0
    return {t: (c if t[1] else c / 2) for t, c in raw.items() if t[1] >= 0}


# ---------------------------------------------------------------------------
# Closed forms for the composition reports


def multiplicity(delta, l: int) -> int:
    """Number of m1 values in V_l: odd m1 when d1 + d2 is odd, else even m1
    with m1 = 0 present exactly when d1 + d3 + l is even."""
    if (delta[0] + delta[1]) % 2:
        return (l + 1) // 2
    return l // 2 + (1 if (delta[0] + delta[2] + l) % 2 == 0 else 0)


def count_same_parity_at_least(lo: int, l: int) -> int:
    """#{m1 : lo <= m1 <= l, m1 = lo mod 2}."""
    return (l - lo) // 2 + 1 if l >= lo else 0


def vanishing_rungs(s: Fraction, lmax: int) -> list:
    """Even l <= lmax with 4s + 2l + 3 = 0 (j = +2) or 4s - 2l + 1 = 0 (j = -2)."""
    out = []
    up = -(4 * s + 3) / 2
    down = (4 * s + 1) / 2
    if up.denominator == 1 and 0 <= up <= lmax and up % 2 == 0:
        out.append((int(up), 2))
    if down.denominator == 1 and 2 <= down <= lmax and down % 2 == 0:
        out.append((int(down), -2))
    return sorted(out)
