"""Principal series of SL(3,R): parity conditions, basis labels, Iwasawa.

The v_{l,m1,m2} basis uses the symmetrized combination

    v_{l,m1,m2} = D^l_{m1,m2} + (-1)^{d1+d3+l} D^l_{-m1,m2},   m1 >= 0,

valid precisely when m1 = d1+d2 mod 2 and, for m1 = 0, when d1+d3+l is
even.  Wigner functions extend to the group through the Iwasawa
factorization g = n a k with the character a^(1+l1) b^(l2) c^(-1+l3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .wigner import EulerAngles, WignerIndex, euler_from_matrix, wigner_D

Delta = tuple[int, int, int]


def _check_lambda(lam: Sequence[complex]) -> tuple[complex, complex, complex]:
    l1, l2, l3 = (complex(x) for x in lam)
    if abs(l1 + l2 + l3) > 1e-12:
        raise ValueError("spectral parameter must sum to zero")
    return l1, l2, l3


@dataclass(frozen=True)
class SeriesParams:
    lam: tuple
    delta: Delta

    def __post_init__(self):
        if len(self.lam) != 3:
            raise ValueError("need a triple of spectral parameters")
        if not all(d in (0, 1) for d in self.delta):
            raise ValueError("parities must be 0 or 1")
        if self.exact:
            if sum(Fraction(x) for x in self.lam) != 0:
                raise ValueError("spectral parameter must sum to zero")
        else:
            _check_lambda(self.lam)

    @property
    def exact(self) -> bool:
        return all(isinstance(x, (int, Fraction)) for x in self.lam)


class BasisLabel(NamedTuple):
    l: int
    m1: int  # >= 0 by convention
    m2: int


def label_sign(delta: Delta, l: int) -> int:
    """The fold sign (-1)^(d1+d3+l) in the symmetrized basis vector."""
    return -1 if (delta[0] + delta[2] + l) % 2 else 1


def label_valid(delta: Delta, label: BasisLabel) -> bool:
    l, m1, m2 = label
    if l < 0 or m1 < 0 or m1 > l or abs(m2) > l:
        return False
    if (m1 - delta[0] - delta[1]) % 2:
        return False
    if m1 == 0 and label_sign(delta, l) != 1:
        return False
    return True


def basis(params: SeriesParams, l: int) -> list[BasisLabel]:
    """All valid labels of the V_l isotypic component, sorted by (m1, m2)."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    delta = params.delta
    out = []
    start = (delta[0] + delta[1]) % 2
    for m1 in range(start, l + 1, 2):
        if m1 == 0 and label_sign(delta, l) != 1:
            continue
        for m2 in range(-l, l + 1):
            out.append(BasisLabel(l, m1, m2))
    return out


def multiplicity(delta: Delta, l: int) -> int:
    """Multiplicity of the (2l+1)-dimensional K-type in V_{lam,delta}."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    if (delta[0] + delta[1]) % 2:
        return (l + 1) // 2
    if (delta[0] + delta[2] + l) % 2 == 0:
        return 1 + l // 2
    return l // 2


# ---------------------------------------------------------------------------
# Iwasawa decomposition and extension of Wigner functions to the group


def iwasawa(g: np.ndarray, tol: float = 1e-10):
    """Factor det-1 g as (n, a, k): unit upper triangular, positive diagonal
    with det 1, special orthogonal.

    Rows are orthonormalized from the bottom up, which produces exactly the
    upper-triangular-times-orthogonal arrangement.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (3, 3):
        raise ValueError("need a 3x3 matrix")
    if abs(np.linalg.det(g) - 1.0) > 1e-10:
        raise ValueError("determinant must be 1")
    k_rows = np.zeros((3, 3))
    for i in (2, 1, 0):
        r = g[i].copy()
        for j in range(i + 1, 3):
            r -= (g[i] @ k_rows[j]) * k_rows[j]
        nr = np.linalg.norm(r)
        if nr < tol:
            raise ValueError("matrix is too close to singular for Iwasawa")
        k_rows[i] = r / nr
    k = k_rows
    t = g @ k.T  # upper triangular, positive diagonal
    a = np.diag(np.diag(t))
    n = t @ np.diag(1.0 / np.diag(t))
    return n, a, k


class GroupElement:
    """A det-1 matrix with its Iwasawa factors cached at construction."""

    __slots__ = ("g", "n", "a", "k", "angles")

    def __init__(self, g: np.ndarray):
        self.g = np.asarray(g, dtype=float)
        self.n, self.a, self.k = iwasawa(self.g)
        self.angles = euler_from_matrix(self.k)

    @classmethod
    def from_nak(cls, x: Sequence[float], y: Sequence[float],
                 angles: EulerAngles) -> "GroupElement":
        """Build from coordinates (x1,x2,x3), (y1,y2), Euler angles."""
        from .wigner import matrix_from_euler

        x1, x2, x3 = x
        y1, y2 = y
        n = np.array([[1.0, x1, x3], [0.0, 1.0, x2], [0.0, 0.0, 1.0]])
        a = np.diag([y1 ** (2 / 3) * y2 ** (1 / 3),
                     y1 ** (-1 / 3) * y2 ** (1 / 3),
                     y1 ** (-1 / 3) * y2 ** (-2 / 3)])
        return cls(n @ a @ matrix_from_euler(angles))

    @property
    def diag(self) -> tuple[float, float, float]:
        return self.a[0, 0], self.a[1, 1], self.a[2, 2]


def character(lam: Sequence[complex], diag: Sequence[float]) -> complex:
    """a^(1+l1) b^(l2) c^(-1+l3) for positive a, b, c (principal branch)."""
    l1, l2, l3 = _check_lambda(lam)
    a, b, c = diag
    return (complex(a) ** (1 + l1)) * (complex(b) ** l2) * (complex(c) ** (-1 + l3))


def extend_wigner(lam: Sequence[complex], idx: WignerIndex,
                  g: GroupElement) -> complex:
    """Value of the line-bundle extension of D^l_{m1,m2} at g."""
    return character(lam, g.diag) * wigner_D(idx, g.angles)


def basis_function(delta: Delta, label: BasisLabel) -> Callable[[EulerAngles], complex]:
    """The function on K associated with a basis label."""
    l, m1, m2 = label
    sign = label_sign(delta, l)

    def f(angles: EulerAngles) -> complex:
        return (wigner_D(WignerIndex(l, m1, m2), angles)
                + sign * wigner_D(WignerIndex(l, -m1, m2), angles))

    return f


def parity_check(f: Callable[[EulerAngles], complex], delta: Delta,
                 rng=None, samples: int = 100, tol: float = 1e-9) -> bool:
    """Sample the two parity identities a principal-series restriction obeys."""
    rng = np.random.default_rng(rng)
    s1 = -1 if (delta[0] + delta[1]) % 2 else 1
    s2 = -1 if (delta[1] + delta[2]) % 2 else 1
    for _ in range(samples):
        a = rng.uniform(0, 2 * math.pi)
        b = rng.uniform(0, math.pi)
        g = rng.uniform(0, 2 * math.pi)
        v = f(EulerAngles(a, b, g))
        if abs(v - s1 * f(EulerAngles(a + math.pi, b, g))) > tol:
            return False
        if abs(v - s2 * f(EulerAngles(math.pi - a, math.pi - b, math.pi + g))) > tol:
            return False
    return True
