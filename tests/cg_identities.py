"""The two exact identities of the coupling coefficients q(k, j, l, m) that
`test_clebsch.py` and the acceptance gate check."""

from fractions import Fraction

from sl3rep.clebsch import q
from sl3rep.scalars import RadicalScalar
from sl3rep.wigner import ladder_coeff_sq


def recurrence_holds(l: int, m: int, j: int) -> bool:
    """The three-term coupling recurrence at (l, m, j), exactly."""
    lhs = (RadicalScalar.sqrt_rational(Fraction(2, 3))
           * Fraction(2 * l * j + j * (j + 1) - 6, 2) * q(0, j, l, m))
    rhs = (RadicalScalar.sqrt_rational(ladder_coeff_sq(l, m, 1)) * q(-1, j, l, m + 1)
           + RadicalScalar.sqrt_rational(ladder_coeff_sq(l, m, -1)) * q(1, j, l, m - 1))
    return lhs == rhs


def symmetry_holds(k: int, j: int, l: int, m: int) -> bool:
    """q(k, j, l, m) = (-1)^j q(-k, j, l, -m), exactly."""
    return q(k, j, l, m) == (-1 if j % 2 else 1) * q(-k, j, l, -m)
