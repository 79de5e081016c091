"""Principal series of SL(3,R): parity conditions, basis labels, Iwasawa.

The v_{l,m1,m2} basis uses the symmetrized combination

    v_{l,m1,m2} = D^l_{m1,m2} + (-1)^{d1+d3+l} D^l_{-m1,m2},   m1 >= 0,

valid precisely when m1 = d1+d2 mod 2 and, for m1 = 0, when d1+d3+l is
even.  Wigner functions extend to the group through the Iwasawa
factorization g = n a k with the character a^(1+l1) b^(l2) c^(-1+l3).

numpy is imported inside the float functions that call it (the Iwasawa
factorization, GroupElement), so the exact engine, which reads only the
labels and parameters here, never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .scalars import check_lambda
from .wigner import EulerAngles, WignerIndex, euler_from_matrix, wigner_D

Delta = tuple[int, int, int]


class SeriesParams(NamedTuple("SeriesParams", [("lam", tuple), ("delta", Delta)])):
    __slots__ = ()

    def __new__(cls, lam: tuple, delta: Delta):
        check_lambda(lam)
        if len(delta) != 3 or not all(d in (0, 1) for d in delta):
            raise ValueError("parities must be three entries, each 0 or 1")
        return super().__new__(cls, lam, delta)

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
    return (0 <= m1 <= l and abs(m2) <= l and not (m1 - delta[0] - delta[1]) % 2
            and (m1 > 0 or label_sign(delta, l) == 1))


def basis(params: SeriesParams, l: int) -> list[BasisLabel]:
    """All valid labels of the V_l isotypic component, sorted by (m1, m2)."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    delta = params.delta
    return [BasisLabel(l, m1, m2) for m1 in range((delta[0] + delta[1]) % 2, l + 1, 2)
            if m1 > 0 or label_sign(delta, l) == 1 for m2 in range(-l, l + 1)]


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


def iwasawa(g: np.ndarray):
    """Factor a square det-1 g, of any size, as (n, a, k): unit upper
    triangular, positive diagonal with det 1, special orthogonal.

    Rows are orthonormalized from the bottom up, which produces exactly the
    upper-triangular-times-orthogonal arrangement.
    """
    import numpy as np
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("need a square matrix")
    if abs(np.linalg.det(g) - 1.0) > 1e-10:
        raise ValueError("determinant must be 1")
    k_rows = np.zeros(g.shape)
    for i in reversed(range(len(g))):
        r = g[i].copy()
        for j in range(i + 1, len(g)):
            r -= (g[i] @ k_rows[j]) * k_rows[j]
        nr = np.linalg.norm(r)
        if nr < 1e-10:
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
        import numpy as np
        self.g = np.asarray(g, dtype=float)
        self.n, self.a, self.k = iwasawa(self.g)
        self.angles = euler_from_matrix(self.k)

    @classmethod
    def from_nak(cls, x: Sequence[float], y: Sequence[float],
                 angles: EulerAngles) -> "GroupElement":
        """Build from coordinates (x1,x2,x3), (y1,y2), Euler angles."""
        import numpy as np
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
    """a^(1+l1) b^(l2) c^(-1+l3) for positive a, b, c (principal branch).

    Raises ValueError, naming lam and the diagonal entry, when a power
    overflows.
    """
    l1, l2, l3 = map(complex, check_lambda(lam))
    powers = []
    for name, x, e in zip("abc", diag, (1 + l1, l2, -1 + l3)):
        try:
            powers.append(complex(x) ** e)
        except OverflowError:
            raise ValueError(
                f"the character overflows at lambda = ({l1:g}, {l2:g}, {l3:g}): "
                f"diagonal entry {name} = {x:.6g} raised to {e:g}") from None
    return powers[0] * powers[1] * powers[2]


def extend_wigner(lam: Sequence[complex], idx: WignerIndex,
                  g: GroupElement) -> complex:
    """Value of the line-bundle extension of D^l_{m1,m2} at g."""
    return character(lam, g.diag) * wigner_D(idx, g.angles)
