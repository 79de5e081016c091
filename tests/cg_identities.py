"""The two exact identities of the coupling coefficients q(k, j, l, m) that
`test_clebsch.py` and the acceptance gate check, and the constants c_k of the
five-term expansion, from which the action and structure tests build their
references apart from the kernel's integer cores."""

from fractions import Fraction

from sl3rep.clebsch import q
from sl3rep.scalars import RadicalScalar
from sl3rep.wigner import ladder_coeff_sq

# c_k of pi(Z_n) D = sum_{j,k} c_k q(k,j,l,m1) q(n,j,l,m2) Lam^(k)_j D^{l+j}
C_FACTORS = {-2: RadicalScalar.from_rational(1),
             0: RadicalScalar.sqrt_rational(Fraction(2, 3)),
             2: RadicalScalar.from_rational(1)}


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
