"""The Lie algebra action on Wigner-basis vectors of the principal series.

Everything here is driven by the five-term expansion

    pi(Z_n) D^l_{m1,m2} = sum_{j,k} c_k q(k,j,l,m1) q(n,j,l,m2)
                          Lam^(k)_j(lam,l,m1) D^{l+j}_{m1+k,m2+n}

with c_{-2} = c_2 = 1, c_0 = sqrt(2/3), together with the classical so(3)
ladder action.  Its whole (n, m2)-dependence is the coupling factor
q(n,j,l,m2), so it is evaluated in the factorized form

    pi(Z_n) D^l_{m1,m2} = sum_j q(n,j,l,m2) U_j D^l_{m1,m2},

whose U_j amplitudes c_k q(k,j,l,m1) Lam^(k)_j(lam,l,m1) depend on
(j, l, m1, lam) only.  Two bounded LRU caches of immutable tuples hold
them: the U_j amplitudes of D^l_{m1,.}, and their fold into the
symmetrized basis (the +-m1 components summed with their fold signs and
re-folded to m1' >= 0), which is checked once per entry.  act_Z, act_U
and act_Z_on_basis read every Lambda factor from these caches.  Both are
keyed on the coefficient mode as well as on lam, because 11, Fraction(11)
and 11+0j hash and compare alike but give exact and complex coefficients.

Three coefficient modes are supported:

* symbolic: LambdaForm coefficients (degree <= 1 in the spectral
  parameter), authoritative for exact zero tests;
* exact-evaluated: RadicalScalar coefficients at a rational spectral
  parameter, used for invariant-subspace certificates;
* numeric: complex coefficients for matrix export and oracle comparison.

The bracket verifier additionally composes operators, which raises the
lambda-degree to 2; the internal LambdaPoly/GaussRadical types handle that
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

from .clebsch import q
from .errors import VerificationError
from .ktvector import KTypeVector, coeff_is_zero
from .scalars import ONE, ZERO, LambdaForm, RadicalScalar
from .series import BasisLabel, SeriesParams, basis, label_sign, label_valid
from .wigner import WignerIndex, ladder_coeff_sq, right_derivative_Y

# ---------------------------------------------------------------------------
# Exact Gaussian radicals and lambda-polynomials (internal plumbing for the
# operator algebra; public results use RadicalScalar / LambdaForm / complex)


class GaussRadical:
    """re + i*im with RadicalScalar real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=ZERO, im=ZERO):
        self.re = re if isinstance(re, RadicalScalar) else RadicalScalar.from_rational(re)
        self.im = im if isinstance(im, RadicalScalar) else RadicalScalar.from_rational(im)

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = _as_gauss(other)
        return GaussRadical(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRadical(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_as_gauss(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RadicalScalar)):
            return GaussRadical(self.re * other, self.im * other)
        other = _as_gauss(other)
        if self.im.is_zero():
            return GaussRadical(self.re * other.re, self.re * other.im)
        if other.im.is_zero():
            return GaussRadical(self.re * other.re, self.im * other.re)
        return GaussRadical(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def conj(self) -> "GaussRadical":
        return GaussRadical(self.re, -self.im)

    def __eq__(self, other):
        other = _as_gauss(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"({self.re!r}) + i*({self.im!r})"


def _as_gauss(x) -> GaussRadical:
    if isinstance(x, GaussRadical):
        return x
    if isinstance(x, (int, Fraction, RadicalScalar)):
        return GaussRadical(x)
    raise TypeError(f"cannot interpret {x!r} as a GaussRadical")


GR_ZERO = GaussRadical()
GR_ONE = GaussRadical(1)
GR_I = GaussRadical(0, 1)


class LambdaPoly:
    """Polynomial in (l1, l2) with GaussRadical coefficients.

    l3 is eliminated through l1 + l2 + l3 = 0 at construction, making
    equality canonical.  Degree is unbounded; operator composition needs
    degree 2.
    """

    __slots__ = ("monos",)

    def __init__(self, monos: dict | None = None):
        self.monos: dict[tuple[int, int], GaussRadical] = {}
        if monos:
            for e, c in monos.items():
                if not c.is_zero():
                    self.monos[e] = c

    @classmethod
    def constant(cls, c) -> "LambdaPoly":
        return cls({(0, 0): _as_gauss(c)})

    @classmethod
    def from_form(cls, f: LambdaForm) -> "LambdaPoly":
        const, a1, a2 = f.canonical()
        return cls({(0, 0): GaussRadical(const),
                    (1, 0): GaussRadical(a1),
                    (0, 1): GaussRadical(a2)})

    def is_zero(self) -> bool:
        return not self.monos

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        if not isinstance(other, LambdaPoly):
            other = LambdaPoly.constant(other)
        out = dict(self.monos)
        for e, c in other.monos.items():
            acc = out.get(e)
            c = c if acc is None else acc + c
            if c.is_zero():
                out.pop(e, None)
            else:
                out[e] = c
        r = LambdaPoly.__new__(LambdaPoly)
        r.monos = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LambdaPoly.__new__(LambdaPoly)
        r.monos = {e: -c for e, c in self.monos.items()}
        return r

    def __sub__(self, other):
        if not isinstance(other, LambdaPoly):
            other = LambdaPoly.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RadicalScalar, GaussRadical)):
            other = LambdaPoly.constant(other)
        elif isinstance(other, LambdaForm):
            other = LambdaPoly.from_form(other)
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        out: dict[tuple[int, int], GaussRadical] = {}
        for (a1, a2), ca in self.monos.items():
            for (b1, b2), cb in other.monos.items():
                e = (a1 + b1, a2 + b2)
                c = ca * cb
                acc = out.get(e)
                c = c if acc is None else acc + c
                if c.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = c
        r = LambdaPoly.__new__(LambdaPoly)
        r.monos = out
        return r

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return self.monos == other.monos

    def eval(self, lam: Sequence[complex]) -> complex:
        l1, l2 = complex(lam[0]), complex(lam[1])
        return sum(c.to_complex() * l1 ** e1 * l2 ** e2
                   for (e1, e2), c in self.monos.items())

    def __repr__(self):
        return f"LambdaPoly({self.monos!r})"


# ---------------------------------------------------------------------------
# Generators as exact 3x3 matrices

_SQ23 = RadicalScalar.sqrt_rational(Fraction(2, 3))

Matrix = tuple  # 3x3 nested tuple of GaussRadical


def _m(rows) -> Matrix:
    return tuple(tuple(_as_gauss(x) for x in row) for row in rows)


_I = GaussRadical(0, 1)
_NI = GaussRadical(0, -1)

GENERATOR_MATRICES: dict[str, Matrix] = {
    "X1": _m([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
    "X2": _m([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
    "X3": _m([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
    "X-1": _m([[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
    "X-2": _m([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
    "X-3": _m([[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
    "H1": _m([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
    "H2": _m([[0, 0, 0], [0, 1, 0], [0, 0, -1]]),
    "Y1": _m([[0, -1, 0], [1, 0, 0], [0, 0, 0]]),
    "Y2": _m([[0, 0, 0], [0, 0, -1], [0, 1, 0]]),
    "Y3": _m([[0, 0, -1], [0, 0, 0], [1, 0, 0]]),
    "Z-2": _m([[1, _I, 0], [_I, -1, 0], [0, 0, 0]]),
    "Z-1": _m([[0, 0, _I], [0, 0, -1], [_I, -1, 0]]),
    "Z0": _m([[_SQ23, 0, 0], [0, _SQ23, 0], [0, 0, -2 * _SQ23]]),
    "Z1": _m([[0, 0, _I], [0, 0, 1], [_I, 1, 0]]),
    "Z2": _m([[1, _NI, 0], [_NI, -1, 0], [0, 0, 0]]),
}

CONVENIENT_BASIS = ("Y1", "Y2", "Y3", "Z-2", "Z-1", "Z0", "Z1", "Z2")
STANDARD_BASIS = ("X1", "X2", "X3", "X-1", "X-2", "X-3", "H1", "H2")

Z_TAGS = {"Z-2": -2, "Z-1": -1, "Z0": 0, "Z1": 1, "Z2": 2}
Y_TAGS = {"Y1": 1, "Y2": 2, "Y3": 3}


def generator_matrix_numeric(tag: str) -> np.ndarray:
    return np.array([[c.to_complex() for c in row]
                     for row in GENERATOR_MATRICES[tag]])


def matrix_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(3)), GR_ZERO)
                       for j in range(3)) for i in range(3))


def matrix_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(a[i][j] - b[i][j] for j in range(3)) for i in range(3))


def matrix_bracket(a: Matrix, b: Matrix) -> Matrix:
    return matrix_sub(matrix_mul(a, b), matrix_mul(b, a))


_HALF = Fraction(1, 2)
_SQ6_OVER_4 = RadicalScalar.sqrt_rational(6) * Fraction(1, 4)


def decompose_matrix(m: Matrix) -> dict[str, GaussRadical]:
    """Exact coordinates of a traceless matrix in the (Y, Z) basis."""
    trace = m[0][0] + m[1][1] + m[2][2]
    if not trace.is_zero():
        raise ValueError("matrix must be traceless")
    sym = [[(m[i][j] + m[j][i]) * _HALF for j in range(3)] for i in range(3)]
    out = {
        "Y1": (m[1][0] - m[0][1]) * _HALF,
        "Y2": (m[2][1] - m[1][2]) * _HALF,
        "Y3": (m[2][0] - m[0][2]) * _HALF,
        "Z0": -(sym[2][2] * _SQ6_OVER_4),
        "Z-1": (_NI * sym[0][2] - sym[1][2]) * _HALF,
        "Z1": (_NI * sym[0][2] + sym[1][2]) * _HALF,
        "Z-2": (sym[0][0] + sym[2][2] * _HALF - _I * sym[0][1]) * _HALF,
        "Z2": (sym[0][0] + sym[2][2] * _HALF + _I * sym[0][1]) * _HALF,
    }
    return {t: c for t, c in out.items() if not c.is_zero()}


def reassemble(coords: dict[str, GaussRadical]) -> Matrix:
    total = _m([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    for t, c in coords.items():
        g = GENERATOR_MATRICES[t]
        total = tuple(tuple(total[i][j] + c * g[i][j] for j in range(3))
                      for i in range(3))
    return total


# ---------------------------------------------------------------------------
# Lambda factors and the main expansion

C_FACTORS = {-2: RadicalScalar.from_rational(1), 0: _SQ23,
             2: RadicalScalar.from_rational(1)}


def lambda_factor(k: int, j: int, l: int, m1: int) -> LambdaForm:
    """Lam^(k)_j(lam, l, m1) as a symbolic degree-1 form in lam."""
    if k == -2:
        return LambdaForm(const=1 - m1, c1=ONE, c2=-ONE)
    if k == 0:
        return LambdaForm(const=Fraction(2 * j * l + j + j * j, 2),
                          c1=ONE, c2=ONE, c3=RadicalScalar.from_rational(-2))
    if k == 2:
        return LambdaForm(const=1 + m1, c1=ONE, c2=-ONE)
    raise ValueError("k must be -2, 0, or 2")


LamArg = Union[None, Sequence]

# Callers walk the labels K-type by K-type, so the working set of either
# amplitude cache is a few (l, m1) rows; eviction only costs a recomputation.
_AMPLITUDE_CACHE_SIZE = 1 << 14


def _lam_mode(lam: LamArg) -> str:
    if lam is None:
        return "symbolic"
    if all(isinstance(x, (int, Fraction)) for x in lam):
        return "exact"
    return "numeric"


def _lam_key(lam: LamArg) -> tuple[str, tuple | None]:
    """The mode and the components of a spectral parameter, as a cache key.

    The mode is part of the key because 11, Fraction(11) and 11+0j hash and
    compare alike, yet give RadicalScalar and complex coefficients.
    """
    return _lam_mode(lam), None if lam is None else tuple(lam)


def _coeff(form: LambdaForm, scalar: RadicalScalar, lam: LamArg, mode: str):
    if mode == "symbolic":
        return form * scalar
    if mode == "exact":
        return form.eval_exact(lam) * scalar
    return form.eval(lam) * float(scalar)


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _u_amplitudes(j: int, l: int, m1: int, mode: str, lam) -> tuple:
    """U_j D^l_{m1,.} as ((k, c_k q(k,j,l,m1) Lam^(k)_j(lam,l,m1)), ...).

    Each amplitude goes to D^{l+j}_{m1+k,.}; zero amplitudes are left out.
    """
    out = []
    for k in (-2, 0, 2):
        qk = q(k, j, l, m1)
        if qk.is_zero():
            continue
        c = _coeff(lambda_factor(k, j, l, m1), C_FACTORS[k] * qk, lam, mode)
        if not coeff_is_zero(c):
            out.append((k, c))
    return tuple(out)


def _couplings(n: int, l: int, m2: int, mode: str) -> list:
    """The nonzero q(n, j, l, m2) as (j, q) pairs, float in numeric mode."""
    if n not in (-2, -1, 0, 1, 2):
        raise ValueError("n must be in -2..2")
    out = []
    for j in range(-2, 3):
        qn = q(n, j, l, m2)
        if not qn.is_zero():
            out.append((j, float(qn) if mode == "numeric" else qn))
    return out


def act_Z(n: int, idx: WignerIndex, lam: LamArg = None) -> KTypeVector:
    """pi(Z_n) on a Wigner function, as sum_j q(n,j,l,m2) U_j D^l_{m1,m2}.

    lam = None gives symbolic LambdaForm coefficients; a rational triple
    gives exact RadicalScalar coefficients; a complex triple gives floats.
    The U_j amplitudes come from a bounded cache keyed on (j, l, m1), the
    mode and lam, so only the coupling factor is computed per call.
    """
    l, m1, m2 = WignerIndex(*idx).validate()
    mode, key = _lam_key(lam)
    out = KTypeVector()
    # each (j, k) has its own target and a product of nonzero factors is
    # nonzero, so the terms need neither summing nor pruning
    for j, qn in _couplings(n, l, m2, mode):
        for k, amp in _u_amplitudes(j, l, m1, mode, key):
            out.terms[WignerIndex(l + j, m1 + k, m2 + n)] = amp * qn
    return out


def act_U(j: int, idx: WignerIndex, lam: LamArg = None) -> KTypeVector:
    """The ladder-like operator U_j; shifts l by j and leaves m2 fixed."""
    if abs(j) > 2:
        raise ValueError("j must be in -2..2")
    l, m1, m2 = WignerIndex(*idx).validate()
    mode, key = _lam_key(lam)
    out = KTypeVector()
    if l + j >= 0 and abs(m2) <= l + j:
        out.terms = {WignerIndex(l + j, m1 + k, m2): amp
                     for k, amp in _u_amplitudes(j, l, m1, mode, key)}
    return out


# ---------------------------------------------------------------------------
# Action on the symmetrized principal-series basis


def label_components(delta, l: int, m1: int) -> tuple:
    """(m1 of each Wigner component, weight) of v_{l,m1,.}."""
    if m1 == 0:
        return ((0, 2),)
    return ((m1, 1), (-m1, label_sign(delta, l)))


def _expand_label(delta, label: BasisLabel) -> list[tuple[WignerIndex, int]]:
    l, m1, m2 = label
    return [(WignerIndex(l, src, m2), w)
            for src, w in label_components(delta, l, m1)]


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _folded_amplitudes(delta, j: int, l: int, m1: int, mode: str, lam) -> tuple:
    """U_j v_{l,m1,.} re-folded into the labels v_{l+j,m1',.}, m1' >= 0.

    Returns ((m1', amplitude), ...) in the order the targets first appear
    among the Wigner components, which fixes the order of reported
    leakage.  Raises VerificationError if the
    D_{-m1'} part does not match the fold sign of V_{l+j}, or if a target
    is not a valid label; neither happens for a correct expansion.
    """
    raw = KTypeVector()
    order = []
    for src, w in label_components(delta, l, m1):
        for k, amp in _u_amplitudes(j, l, src, mode, lam):
            raw.add_term(src + k, amp if w == 1 else amp * w)
            if abs(src + k) not in order:
                order.append(abs(src + k))
    lt = l + j
    sign = label_sign(delta, lt)
    out = []
    for t in order:
        c_pos = raw.get(t)
        if t and not _coeffs_match(raw.get(-t), c_pos, sign):
            raise VerificationError(
                f"fold inconsistency at D^{lt}_{-t} acting with U_{j} "
                f"on v_({l},{m1},.)")
        if c_pos is None:
            continue
        if not label_valid(delta, BasisLabel(lt, t, 0)):
            raise VerificationError(
                f"U_{j} on v_({l},{m1},.) reaches the invalid label "
                f"v_({lt},{t},.) for parity {delta}")
        if t == 0:
            c_pos = c_pos * 0.5 if mode == "numeric" else c_pos * _HALF
        out.append((t, c_pos))
    return tuple(out)


def _coeffs_match(c_neg, c_pos, sign: int) -> bool:
    """c_neg == sign * c_pos, where None stands for a zero coefficient."""
    if c_pos is None or c_neg is None:
        return c_pos is c_neg
    if isinstance(c_pos, complex):
        return abs(c_neg - sign * c_pos) <= 1e-9 * max(1.0, abs(c_pos))
    return (c_neg - c_pos * sign).is_zero()


def act_Z_on_basis(n: int, label: BasisLabel, params: SeriesParams,
                   lam: LamArg = "from-params") -> KTypeVector:
    """pi(Z_n) on v_{l,m1,m2}, re-folded into the m1 >= 0 label basis.

    Computed as sum_j q(n,j,l,m2) (U_j v_{l,m1,.}) with the folded U_j
    amplitudes read from a bounded cache keyed on (delta, j, l, m1), the
    mode and lam.  The fold is checked once per cache entry, which checks
    every call: q(n,j,l,m2) is a common nonzero factor of each j.
    """
    if not label_valid(params.delta, label):
        raise ValueError(f"label {label} invalid for parity {params.delta}")
    if lam == "from-params":
        lam = params.lam
    l, m1, m2 = label
    delta = tuple(params.delta)
    mode, key = _lam_key(lam)
    out = KTypeVector()
    for j, qn in _couplings(n, l, m2, mode):
        for t, amp in _folded_amplitudes(delta, j, l, m1, mode, key):
            out.terms[BasisLabel(l + j, t, m2 + n)] = amp * qn
    return out


# ---------------------------------------------------------------------------
# Projection onto a single K-type


def project_P(l: int, j: int, v: KTypeVector) -> KTypeVector:
    """Keep exactly the (l+j)-isotypic component of a windowed vector."""
    for idx in v:
        if not l - 2 <= idx[0] <= l + 2:
            raise ValueError("support must lie within [l-2, l+2]")
    out = KTypeVector()
    for idx, c in v.items():
        if idx[0] == l + j:
            out.add_term(idx, c)
    return out


def project_P_poly(l: int, j: int, v: KTypeVector) -> KTypeVector:
    """Verification mode: the Casimir-polynomial realization of the projector."""
    out = KTypeVector()
    for idx, c in v.items():
        lp = idx[0]
        if not l - 2 <= lp <= l + 2:
            raise ValueError("support must lie within [l-2, l+2]")
        factor = Fraction(1)
        for k in range(-2, 3):
            if k == j or l + k < 0:
                continue
            num = lp * (lp + 1) - (l + k) * (l + k + 1)
            den = (l + j) * (l + j + 1) - (l + k) * (l + k + 1)
            factor *= Fraction(num, den)
        if factor:
            out.add_term(idx, c * float(factor) if isinstance(c, complex)
                         else c * factor)
    return out


# ---------------------------------------------------------------------------
# The compositions W and the normalized ladder steps


def _ladder_m2(v: KTypeVector, step: int) -> KTypeVector:
    """Raw pi(-+Y2 + iY3) step: shifts every m2 by `step` with the exact
    sqrt(l(l+1) - m2(m2+step)) coefficient."""
    out = KTypeVector()
    for idx, c in v.items():
        l, m1, m2 = idx
        arg = ladder_coeff_sq(l, m2, step)
        if arg <= 0 or abs(m2 + step) > l:
            continue
        coeff = RadicalScalar.sqrt_rational(arg)
        out.add_term(WignerIndex(l, m1, m2 + step),
                     c * float(coeff) if isinstance(c, complex) else c * coeff)
    return out


def act_W(n: int, L: int, m2: int, v: KTypeVector,
          lam: LamArg = None) -> KTypeVector:
    """W^L_{n,m2} applied to a vector supported on D^._{., m2}.

    Composes pi(Z_n) with normalized m2-restoring ladder steps; the
    normalizations use the target K-type L.  Raises when a normalization
    square-root argument is not positive.
    """
    if n not in (-2, -1, 0, 1, 2):
        raise ValueError("n must be in -2..2")
    out = KTypeVector()
    for idx, c in v.items():
        part = act_Z(n, idx, lam)
        if not isinstance(c, (int, float, complex)) or c != 1:
            part = part.scaled(c)
        out = out + part
    if n == 0:
        return out
    steps = abs(n)
    direction = -1 if n > 0 else 1  # bring m2 back to its original value
    norm = RadicalScalar.from_rational(1)
    for i in range(steps):
        # normalization arguments read off the printed definition:
        # L(L+1) - (m2 + s)(m2 + s') walking back toward m2
        if n > 0:
            hi = m2 + steps - i
            arg = L * (L + 1) - hi * (hi - 1)
        else:
            lo = m2 - steps + i
            arg = L * (L + 1) - lo * (lo + 1)
        if arg <= 0:
            raise ValueError(f"W^{L}_{{{n},{m2}}} undefined: nonpositive "
                             f"normalization argument {arg}")
        norm = norm * RadicalScalar.sqrt_rational(Fraction(1, arg))
        out = _ladder_m2(out, direction)
    if _lam_mode(lam) == "numeric":
        return out.scaled(float(norm))
    return out.scaled(norm)


def pwqu_exceptional(lmax: int) -> set[tuple[int, int]]:
    """(l, j) pairs where no composition P.W reaches U_j.

    These are exactly the pairs passing l + j >= 0 but failing the
    coupling triangle |l - 2| <= l + j, so every q(n, j, l, m2) vanishes.
    """
    return {(l, j) for l in range(lmax + 1) for j in range(-2, 3)
            if l + j >= 0 and l + j < abs(l - 2)}


# ---------------------------------------------------------------------------
# Standard-basis generators through the change of basis


@lru_cache(maxsize=None)
def standard_basis_coords(tag: str) -> tuple:
    """(Y, Z)-coordinates of a standard generator, solved exactly."""
    coords = decompose_matrix(GENERATOR_MATRICES[tag])
    if reassemble(coords) != GENERATOR_MATRICES[tag]:
        raise AssertionError(f"change of basis failed for {tag}")
    return tuple(sorted(coords.items()))


def apply_generator_poly(tag: str, idx: WignerIndex) -> KTypeVector:
    """Action of any generator with exact LambdaPoly coefficients."""
    return _apply_poly_cached(tag, WignerIndex(*idx))


@lru_cache(maxsize=200_000)
def _apply_poly_cached(tag: str, idx: WignerIndex) -> KTypeVector:
    l, m1, m2 = idx
    out = KTypeVector()
    if tag in Y_TAGS:
        i = Y_TAGS[tag]
        if i == 1:
            out.add_term(idx, LambdaPoly.constant(GaussRadical(0, m2)))
            return out
        up = ladder_coeff_sq(l, m2, +1)
        dn = ladder_coeff_sq(l, m2, -1)
        if m2 < l and up > 0:
            r = RadicalScalar.sqrt_rational(up) * _HALF
            c = GaussRadical(r) if i == 2 else GaussRadical(ZERO, -r)
            out.add_term(WignerIndex(l, m1, m2 + 1), LambdaPoly.constant(c))
        if m2 > -l and dn > 0:
            r = RadicalScalar.sqrt_rational(dn) * _HALF
            c = GaussRadical(-r) if i == 2 else GaussRadical(ZERO, -r)
            out.add_term(WignerIndex(l, m1, m2 - 1), LambdaPoly.constant(c))
        return out
    if tag in Z_TAGS:
        sym = act_Z(Z_TAGS[tag], idx)
        for target, form in sym.items():
            out.add_term(target, LambdaPoly.from_form(form))
        return out
    # standard generator: exact linear combination of the above
    for t, c in standard_basis_coords(tag):
        part = apply_generator_poly(t, idx)
        for target, p in part.items():
            out.add_term(target, p * c)
    return out


def decompose_standard_basis(tag: str, idx: WignerIndex,
                             lam: LamArg = None) -> KTypeVector:
    """Action of X_i / H_i (or any tag) via the exact change of basis."""
    vec = apply_generator_poly(tag, idx)
    if lam is None:
        return vec
    out = KTypeVector()
    for target, p in vec.items():
        out.add_term(target, p.eval((lam[0], lam[1])))
    return out


def compose_poly(tag: str, v: KTypeVector) -> KTypeVector:
    """Apply a generator (LambdaPoly mode) to a LambdaPoly-coefficient vector."""
    out = KTypeVector()
    for idx, c in v.items():
        part = apply_generator_poly(tag, idx)
        for target, p in part.items():
            out.add_term(target, p * c)
    return out


# The bracket verifier runs over every index of several K-types, so the
# nested poly objects are flattened to monomial dicts keyed by
# (lambda1-exp, lambda2-exp, squarefree radicand, i-power) with Fraction
# values; one exact Fraction multiply and one gcd per monomial pair.

from math import gcd as _gcd


def _flatten_poly(poly: LambdaPoly) -> dict:
    # key packs (rad, e1, e2, im) as ((rad*64 + e1*8 + e2) * 2 + im); each
    # exponent stays <= 2 in a degree-2 composition, so the 3-bit fields
    # add without carrying
    fracs: dict[int, Fraction] = {}
    for (e1, e2), c in poly.monos.items():
        for part, im in ((c.re, 0), (c.im, 1)):
            for rad, coeff in part.terms.items():
                fracs[(rad * 64 + e1 * 8 + e2) * 2 + im] = coeff
    den = 1
    for coeff in fracs.values():
        den = den * coeff.denominator // _gcd(den, coeff.denominator)
    return {k: int(c * den) for k, c in fracs.items()}, den


def _flat_mul_into(accpair: list, f1: dict, d1: int, f2: dict, d2: int,
                   sign: int) -> None:
    """acc += sign * f1 * f2 over integer numerators with tracked denominator."""
    acc, accden = accpair
    dc = d1 * d2
    if accden % dc:
        g = _gcd(accden, dc)
        lcm = accden // g * dc
        scale = lcm // accden
        if scale != 1:
            for k in acc:
                acc[k] *= scale
        accpair[1] = accden = lcm
    boost = accden // dc
    for ka, ca in f1.items():
        ia = ka & 1
        ea = (ka >> 1) & 63
        ra = ka >> 7
        cab = ca * boost
        for kb, cb in f2.items():
            ib = kb & 1
            rb = kb >> 7
            c = cab * cb
            if ia and ib:
                c = -c
            if ra == rb:
                rad = 1
                c = c * ra
            else:
                g = _gcd(ra, rb)
                rad = (ra // g) * (rb // g)
                if g != 1:
                    c = c * g
            if sign < 0:
                c = -c
            key = (rad * 64 + ea + ((kb >> 1) & 63)) * 2 + ((ia + ib) & 1)
            acc[key] = acc.get(key, 0) + c


@lru_cache(maxsize=200_000)
def _apply_flat(tag: str, idx: WignerIndex) -> tuple:
    return tuple((target, _flatten_poly(p))
                 for target, p in apply_generator_poly(tag, idx).items())


@lru_cache(maxsize=None)
def _bracket_coords_flat(tag_a: str, tag_b: str) -> tuple:
    coords = decompose_matrix(
        matrix_bracket(GENERATOR_MATRICES[tag_a], GENERATOR_MATRICES[tag_b]))
    return tuple((t, _flatten_poly(LambdaPoly.constant(c)))
                 for t, c in sorted(coords.items()))


def _bracket_defect_zero(tag_a: str, tag_b: str, idx: WignerIndex) -> bool:
    """Direct exact computation of [pi(A), pi(B)] - pi([A, B]) on one index."""
    acc: dict[WignerIndex, list] = {}
    for outer, inner, sign in ((tag_a, tag_b, 1), (tag_b, tag_a, -1)):
        for mid, (coeff, dc) in _apply_flat(inner, idx):
            for target, (p, dp) in _apply_flat(outer, mid):
                pair = acc.setdefault(target, [{}, 1])
                _flat_mul_into(pair, p, dp, coeff, dc, sign)
    for t, (cflat, dcf) in _bracket_coords_flat(tag_a, tag_b):
        for target, (p, dp) in _apply_flat(t, idx):
            pair = acc.setdefault(target, [{}, 1])
            _flat_mul_into(pair, p, dp, cflat, dcf, -1)
    return all(not v for flat, _ in acc.values() for v in flat.values())


_pair_defect_zero = lru_cache(maxsize=None)(_bracket_defect_zero)


def _coords_of(tag: str) -> tuple:
    if tag in Z_TAGS or tag in Y_TAGS:
        return ((tag, GR_ONE),)
    return standard_basis_coords(tag)


@lru_cache(maxsize=None)
def _bilinear_bracket_verified(tag_a: str, tag_b: str) -> tuple:
    """Verify [A, B] = sum A_c B_d [C_c, C_d] exactly on 3x3 matrices.

    Returns the convenient-basis pairs (c, d) with a nonzero coefficient;
    once this matrix-level identity is certified, the operator-level
    bracket defect of (A, B) is the same bilinear combination of the
    convenient-pair defects, because the action of a standard generator is
    defined as exactly that linear combination.
    """
    ca, cb = _coords_of(tag_a), _coords_of(tag_b)
    total = tuple(tuple(GR_ZERO for _ in range(3)) for _ in range(3))
    pairs = []
    for c, wa in ca:
        for d, wb in cb:
            if c == d:
                continue  # [C, C] = 0
            w = wa * wb
            if w.is_zero():
                continue
            pairs.append((c, d))
            br = matrix_bracket(GENERATOR_MATRICES[c], GENERATOR_MATRICES[d])
            total = tuple(tuple(total[i][j] + br[i][j] * w for j in range(3))
                          for i in range(3))
    want = matrix_bracket(GENERATOR_MATRICES[tag_a], GENERATOR_MATRICES[tag_b])
    if any((total[i][j] - want[i][j]) != GR_ZERO
           for i in range(3) for j in range(3)):
        raise AssertionError(f"bilinear bracket mismatch for {tag_a}, {tag_b}")
    return tuple(sorted({tuple(sorted(p)) for p in pairs}))


def bracket_check(tag_a: str, tag_b: str, idx: WignerIndex) -> bool:
    """Exact check of [pi(A), pi(B)] = pi([A, B]) on one Wigner index.

    Pairs of convenient-basis generators (Y, Z) are checked by direct
    expansion.  For standard-basis generators, whose action is by
    construction a fixed linear combination of convenient ones, the check
    verifies the matrix-level bilinear expansion of the bracket exactly
    and then certifies every contributing convenient-pair defect; the
    standard-pair defect is that exact bilinear combination, so it
    vanishes iff the certified ones do.
    """
    idx = WignerIndex(*idx)
    convenient = (tag_a in Z_TAGS or tag_a in Y_TAGS) and \
        (tag_b in Z_TAGS or tag_b in Y_TAGS)
    if convenient:
        a, b = sorted((tag_a, tag_b))
        return _pair_defect_zero(a, b, idx)
    return all(_pair_defect_zero(c, d, idx)
               for c, d in _bilinear_bracket_verified(tag_a, tag_b))


# ---------------------------------------------------------------------------
# Matrix assembly


@dataclass
class ActionMatrix:
    params: SeriesParams
    generator: str
    lmax: int
    labels: list[BasisLabel]
    blocks: dict[tuple[int, int], np.ndarray]
    truncated: list[tuple[BasisLabel, int]] = field(default_factory=list)

    def label_index(self) -> dict[BasisLabel, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def dense(self) -> np.ndarray:
        n = len(self.labels)
        out = np.zeros((n, n), dtype=complex)
        pos = {}
        by_l: dict[int, list[int]] = {}
        for i, lab in enumerate(self.labels):
            by_l.setdefault(lab.l, []).append(i)
            pos[lab] = i
        for (ls, lt), block in self.blocks.items():
            rows = by_l.get(lt, [])
            cols = by_l.get(ls, [])
            for bi, i in enumerate(rows):
                for bj, j in enumerate(cols):
                    out[i, j] = block[bi, bj]
        return out

    def to_json(self) -> dict:
        by_l: dict[int, list[BasisLabel]] = {}
        for lab in self.labels:
            by_l.setdefault(lab.l, []).append(lab)
        blocks = []
        for (ls, lt), block in sorted(self.blocks.items()):
            blocks.append({
                "j": lt - ls,
                "rows": [list(lab) for lab in by_l.get(lt, [])],
                "cols": [list(lab) for lab in by_l.get(ls, [])],
                "entries": [[z.real, z.imag] for z in block.flatten()],
            })
        lam = [[complex(x).real, complex(x).imag] for x in self.params.lam]
        return {
            "metadata": {
                "lambda": lam,
                "delta": list(self.params.delta),
                "generator": self.generator,
                "lmax": self.lmax,
                "truncated": [[list(lab), lt] for lab, lt in self.truncated],
            },
            "labels": [list(lab) for lab in self.labels],
            "blocks": blocks,
        }


def assemble_matrix(params: SeriesParams, generator: str,
                    lmax: int) -> ActionMatrix:
    """Block-sparse matrix of a generator on the truncated module.

    Blocks mapping above lmax are recorded as truncated, never silently
    dropped, so structure analysis can tell zeros from window artifacts.
    """
    if lmax < 0:
        raise ValueError("lmax must be nonnegative")
    lam = tuple(complex(x) for x in params.lam)
    labels: list[BasisLabel] = []
    for l in range(lmax + 1):
        labels.extend(basis(params, l))
    index_within: dict[int, dict[BasisLabel, int]] = {}
    for lab in labels:
        d = index_within.setdefault(lab.l, {})
        d[lab] = len(d)
    blocks: dict[tuple[int, int], np.ndarray] = {}
    truncated: list[tuple[BasisLabel, int]] = []

    def ensure_block(ls: int, lt: int) -> np.ndarray:
        key = (ls, lt)
        if key not in blocks:
            blocks[key] = np.zeros((len(index_within.get(lt, {})),
                                    len(index_within.get(ls, {}))), dtype=complex)
        return blocks[key]

    for lab in labels:
        if generator in Y_TAGS:
            vec = right_derivative_Y(Y_TAGS[generator], WignerIndex(*lab))
        elif generator in Z_TAGS:
            vec = act_Z_on_basis(Z_TAGS[generator], lab, params, lam)
        else:
            raise ValueError(f"unsupported generator tag {generator!r}")
        col = index_within[lab.l][lab]
        for target, c in vec.items():
            if target.l > lmax:
                truncated.append((lab, target.l))
                continue
            block = ensure_block(lab.l, target.l)
            row = index_within[target.l][BasisLabel(*target)]
            block[row, col] += complex(c)
    return ActionMatrix(params, generator, lmax, labels, blocks, truncated)
