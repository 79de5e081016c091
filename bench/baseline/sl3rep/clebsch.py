"""Exact Clebsch-Gordan coefficients for coupling with l' = 2.

q(k, j, l, m) = <2 k l m | (l+j) (k+m)>, computed from the five closed
forms with big-integer factorials.  Out-of-range indices return exact
zero, which keeps the product-rule sums clean (implicit-zero semantics).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .ktvector import KTypeVector
from .scalars import RadicalScalar, ZERO
from .wigner import WignerIndex


def in_range(k: int, j: int, l: int, m: int) -> bool:
    """True iff the coefficient is allowed by range and triangularity."""
    return (abs(k) <= 2 and abs(j) <= 2 and abs(m) <= l
            and abs(k + m) <= l + j and abs(l - 2) <= l + j)


@lru_cache(maxsize=None)
def q(k: int, j: int, l: int, m: int) -> RadicalScalar:
    """Exact coupling coefficient; zero outside the allowed index set."""
    if not in_range(k, j, l, m):
        return ZERO
    f = factorial
    if j == -2:
        sign = -1 if k % 2 else 1
        rad = Fraction(6 * f(l - m) * f(l + m),
                       l * (l - 1) * (2 * l - 1) * (2 * l + 1)
                       * f(2 - k) * f(2 + k) * f(l - k - m - 2) * f(l + k + m - 2))
        return sign * RadicalScalar.sqrt_rational(rad)
    if j == -1:
        pre = (-1 if k % 2 else 1) * (k + l * k + 2 * m)
        rad = Fraction(3 * f(l - m) * f(l + m),
                       l * (l - 1) * (l + 1) * (2 * l + 1)
                       * f(2 - k) * f(2 + k) * f(l - k - m - 1) * f(l + k + m - 1))
        return pre * RadicalScalar.sqrt_rational(rad)
    if j == 0:
        pre = (-1 if k % 2 else 1) * (2 * l * l * (k * k - 1) + l * (5 * k * k + 6 * k * m - 2)
                           + 3 * (k * k + 3 * k * m + 2 * m * m))
        rad = Fraction(f(l - m) * f(l + m),
                       l * (l + 1) * (2 * l - 1) * (2 * l + 3)
                       * f(2 - k) * f(2 + k) * f(l - k - m) * f(l + k + m))
        return pre * RadicalScalar.sqrt_rational(rad)
    if j == 1:
        pre = l * k - 2 * m
        rad = Fraction(3 * f(l - k - m + 1) * f(l + k + m + 1),
                       l * (l + 1) * (l + 2) * (2 * l + 1)
                       * f(2 - k) * f(2 + k) * f(l - m) * f(l + m))
        return pre * RadicalScalar.sqrt_rational(rad)
    if j == 2:
        rad = Fraction(6 * f(l - k - m + 2) * f(l + k + m + 2),
                       (l + 1) * (l + 2) * (2 * l + 1) * (2 * l + 3)
                       * f(2 - k) * f(2 + k) * f(l - m) * f(l + m))
        return RadicalScalar.sqrt_rational(rad)
    raise AssertionError("unreachable")


def q_float(k: int, j: int, l: int, m: int) -> float:
    return float(q(k, j, l, m))


def cg_product(idx2: WignerIndex, idx: WignerIndex) -> KTypeVector:
    """Expansion of D^2_{a,b} * D^l_{m1,m2} over RadicalScalar coefficients."""
    a2, a, b = WignerIndex(*idx2).validate()
    if a2 != 2:
        raise ValueError("first factor must have l = 2")
    l, m1, m2 = WignerIndex(*idx).validate()
    out = KTypeVector()
    for j in range(-2, 3):
        lt = l + j
        if lt < 0 or abs(m1 + a) > lt or abs(m2 + b) > lt:
            continue
        c = q(a, j, l, m1) * q(b, j, l, m2)
        if c:
            out.add_term(WignerIndex(lt, m1 + a, m2 + b), c)
    return out


def verify_recurrence_CG4(l: int, m: int, j: int) -> bool:
    """Exact check of the three-term coupling recurrence at (l, m, j)."""
    lhs = (RadicalScalar.sqrt_rational(Fraction(2, 3))
           * Fraction(2 * l * j + j * (j + 1) - 6, 2) * q(0, j, l, m))
    rhs = (RadicalScalar.sqrt_rational((l - m) * (l + 1 + m)) * q(-1, j, l, m + 1)
           + RadicalScalar.sqrt_rational((l + m) * (l + 1 - m)) * q(1, j, l, m - 1))
    return lhs == rhs


def verify_symmetry(k: int, j: int, l: int, m: int) -> bool:
    """Exact check of q(k,j,l,m) = (-1)^j q(-k,j,l,-m)."""
    return q(k, j, l, m) == (-1 if j % 2 else 1) * q(-k, j, l, -m)
