"""Exact-plus-numeric K-type calculus for principal series of SL(3,R).

Modules:

* scalars  -- exact radical arithmetic (i = sqrt(-1) included) and
              degree-1 spectral-parameter forms
* ktvector -- sparse linear combinations over arbitrary coefficient rings
* wigner   -- Wigner functions, Euler angles, so(3) derivative formulas
* clebsch  -- exact coupling coefficients for tensoring with the 5-dim rep
* sl2      -- the SL(2,R) ladder calculus and composition-series reports
* series   -- principal-series parameters, labels, Iwasawa factorization
* kernel   -- the five-term expansion, its fold and the generator matrices
* action   -- the kernel re-exported, operators P/W, brackets, matrices
* structure-- invariant-subspace certificates and composition reports
* errors   -- VerificationError, a failed check of the engine's results
* oracle   -- independent quadrature / finite-difference verification
* cli      -- command-line front end
"""

from .clebsch import q
from .errors import VerificationError
from .scalars import LambdaForm, RadicalScalar
from .series import BasisLabel, SeriesParams, basis, multiplicity
from .wigner import EulerAngles, WignerIndex, little_d, wigner_D

__all__ = [
    "BasisLabel", "EulerAngles", "LambdaForm", "RadicalScalar",
    "SeriesParams", "VerificationError", "WignerIndex", "basis", "little_d",
    "multiplicity", "q",
]

__version__ = "0.1.0"
