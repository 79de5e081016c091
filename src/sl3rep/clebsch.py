"""Exact Clebsch-Gordan coefficients for coupling with l' = 2.

q(k, j, l, m) = <2 k l m | (l+j) (k+m)> = num * sqrt(rad) / den, built from
the integers of `q_core` (rad squarefree, gcd(num, den) = 1): each of the
five closed forms is a polynomial times the square root of a ratio of
products of linear factors in (l, m).  `q_float` is num / den * sqrt(rad),
bitwise float(q), as int true division is correctly rounded like
Fraction.__float__.  Out-of-range indices return exact zero
(implicit-zero semantics), which keeps the product-rule sums clean.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod, sqrt

from .ktvector import KTypeVector
from .scalars import RadicalScalar, ZERO, _canonical, _square_extract
from .wigner import WignerIndex


def in_range(k: int, j: int, l: int, m: int) -> bool:
    """True iff the coefficient is allowed by range and triangularity."""
    return (abs(k) <= 2 and abs(j) <= 2 and abs(m) <= l
            and abs(k + m) <= l + j and abs(l - 2) <= l + j)


_F = {k: factorial(2 - k) * factorial(2 + k) for k in range(-2, 3)}


@lru_cache(maxsize=1 << 16)  # read by q and by the float paths of `action`
def q_core(k: int, j: int, l: int, m: int) -> tuple[int, int, int]:
    """(num, rad, den) with q(k, j, l, m) = num * sqrt(rad) / den, rad
    squarefree and gcd(num, den) = 1; (0, 1, 1) where q vanishes."""
    if not in_range(k, j, l, m):
        return 0, 1, 1
    sign = -1 if k % 2 else 1
    # q = pre * sqrt(c * (factorial ratios) / (ld * _F[k]))
    if j == -2:
        pre, c, ld = sign, 6, l * (l - 1) * (2 * l - 1) * (2 * l + 1)
    elif j == -1:
        pre, c, ld = sign * (k + l * k + 2 * m), 3, l * (l - 1) * (l + 1) * (2 * l + 1)
    elif j == 0:
        pre = sign * (2 * l * l * (k * k - 1) + l * (5 * k * k + 6 * k * m - 2)
                      + 3 * (k * k + 3 * k * m + 2 * m * m))
        c, ld = 1, l * (l + 1) * (2 * l - 1) * (2 * l + 3)
    elif j == 1:
        pre, c, ld = l * k - 2 * m, 3, l * (l + 1) * (l + 2) * (2 * l + 1)
    else:
        pre, c, ld = 1, 6, (l + 1) * (l + 2) * (2 * l + 1) * (2 * l + 3)
    if not pre:
        return 0, 1, 1
    top, bottom = c, ld * _F[k]
    # x!/y! is the product of the integers between them, inverted for j > 0
    for x, y in ((l - m, l - m - k + j), (l + m, l + m + k + j)):
        p = prod(range(min(x, y) + 1, max(x, y) + 1))
        top, bottom = (top * p, bottom) if (x >= y) == (j <= 0) else (top, bottom * p)
    g = gcd(top, bottom)
    bottom //= g
    s, rad = _square_extract(top // g * bottom)  # sqrt(top/bottom) = s sqrt(rad) / bottom
    g = gcd(pre * s, bottom)
    return pre * s // g, rad, bottom // g


# k23_subspace_report(31), the largest in-repo use, fills 9,275 entries
@lru_cache(maxsize=1 << 16)
def q(k: int, j: int, l: int, m: int) -> RadicalScalar:
    """Exact coupling coefficient; zero outside the allowed index set."""
    num, rad, den = q_core(k, j, l, m)
    if not num:
        return ZERO
    return _canonical({rad: Fraction(num, den)})


def q_float(k: int, j: int, l: int, m: int) -> float:
    """float(q(k, j, l, m)), bitwise, from the integers of q_core."""
    num, rad, den = q_core(k, j, l, m)
    return num / den * sqrt(rad)


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
