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
re-folded to m1' >= 0), which is checked once per entry.  act_Z, act_U,
act_Z_on_basis and assemble_matrix read every Lambda factor from these
caches; assemble_matrix builds each block (l, l+j) of pi(Z_n) as the
Kronecker product of the folded amplitudes in m1 and the couplings
q(n,j,l,m2) in m2.  Both caches are keyed on the coefficient mode as well
as on lam, because 11, Fraction(11) and 11+0j hash and compare alike but
give exact and complex coefficients.

The coefficient mode follows the type of lam: `lambda_factor`, the one
formula for Lambda, is evaluated at lam itself (at lam = None, at the unit
forms lam_1, lam_2, lam_3).  The coefficients are symbolic LambdaForms for
lam = None, the only answers that carry one; exact RadicalScalars at a
rational triple, for invariant-subspace certificates; and complex at any
other triple, as a RadicalScalar times a complex number is complex, for
matrix export and oracle comparison.  `_lam_key` checks lam once per call.

The factor i of the complexified generators is the RadicalScalar I, so
every generator, its 3x3 matrix and its exact action on Wigner functions
(symbolic LambdaForm coefficients, the Y action read from the so(3) step
table `wigner.y_steps`) live in the one scalar type.

The bracket verifier checks [pi(A), pi(B)] = pi([A, B]) through the same
factorization, never expanding a composition in full.  For (Y, Y) and
(Y, Z) pairs the defect is sum_{j,k} U_j-amplitude times a lam-free,
m1-free identity E_j(l, m2) on the m2 index, decided once per
(pair, j, l, m2).  For (Z, Z) pairs both orders compose the same
U_j' U_j amplitudes, which are multiplied once as integer vectors of degree
2 in lam and weighted by lam-free differences of coupling products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, sqrt
from typing import Sequence, Union

import numpy as np

from .clebsch import q
from .errors import VerificationError
from .ktvector import KTypeVector, coeff_is_zero
from .scalars import I, ONE, ZERO, LambdaForm, RadicalScalar
from .series import BasisLabel, SeriesParams, basis, label_sign, label_valid
from .wigner import WignerIndex, ladder_coeff_sq, y_steps

# ---------------------------------------------------------------------------
# Generators as exact 3x3 matrices

_SQ23 = RadicalScalar.sqrt_rational(Fraction(2, 3))

Matrix = tuple  # 3x3 nested tuple of RadicalScalar


def _m(rows) -> Matrix:
    return tuple(tuple(x if isinstance(x, RadicalScalar)
                       else RadicalScalar.from_rational(x) for x in row)
                 for row in rows)


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
    "Z-2": _m([[1, I, 0], [I, -1, 0], [0, 0, 0]]),
    "Z-1": _m([[0, 0, I], [0, 0, -1], [I, -1, 0]]),
    "Z0": _m([[_SQ23, 0, 0], [0, _SQ23, 0], [0, 0, -2 * _SQ23]]),
    "Z1": _m([[0, 0, I], [0, 0, 1], [I, 1, 0]]),
    "Z2": _m([[1, -I, 0], [-I, -1, 0], [0, 0, 0]]),
}

CONVENIENT_BASIS = ("Y1", "Y2", "Y3", "Z-2", "Z-1", "Z0", "Z1", "Z2")
STANDARD_BASIS = ("X1", "X2", "X3", "X-1", "X-2", "X-3", "H1", "H2")

Z_TAGS = {"Z-2": -2, "Z-1": -1, "Z0": 0, "Z1": 1, "Z2": 2}
Y_TAGS = {"Y1": 1, "Y2": 2, "Y3": 3}


def generator_matrix_numeric(tag: str) -> np.ndarray:
    return np.array([[complex(c) for c in row]
                     for row in GENERATOR_MATRICES[tag]])


def matrix_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(3)), ZERO)
                       for j in range(3)) for i in range(3))


def matrix_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(a[i][j] - b[i][j] for j in range(3)) for i in range(3))


def matrix_bracket(a: Matrix, b: Matrix) -> Matrix:
    return matrix_sub(matrix_mul(a, b), matrix_mul(b, a))


_HALF = Fraction(1, 2)
_SQ6_OVER_4 = RadicalScalar.sqrt_rational(6) * Fraction(1, 4)


def decompose_matrix(m: Matrix) -> dict[str, RadicalScalar]:
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
        "Z-1": (-I * sym[0][2] - sym[1][2]) * _HALF,
        "Z1": (-I * sym[0][2] + sym[1][2]) * _HALF,
        "Z-2": (sym[0][0] + sym[2][2] * _HALF - I * sym[0][1]) * _HALF,
        "Z2": (sym[0][0] + sym[2][2] * _HALF + I * sym[0][1]) * _HALF,
    }
    return {t: c for t, c in out.items() if not c.is_zero()}


def reassemble(coords: dict[str, RadicalScalar]) -> Matrix:
    total = _m([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    for t, c in coords.items():
        g = GENERATOR_MATRICES[t]
        total = tuple(tuple(total[i][j] + c * g[i][j] for j in range(3))
                      for i in range(3))
    return total


# ---------------------------------------------------------------------------
# Lambda factors and the main expansion

C_FACTORS = {-2: ONE, 0: _SQ23, 2: ONE}

LamArg = Union[None, Sequence]

# lam_1, lam_2, lam_3 as forms: lambda_factor at these is the symbolic Lambda
_LAMBDA_UNITS = (LambdaForm(c1=ONE), LambdaForm(c2=ONE), LambdaForm(c3=ONE))


def lambda_factor(k: int, j: int, l: int, m1: int, lam: LamArg = None):
    """Lam^(k)_j(lam, l, m1): a LambdaForm for lam = None, a rational at a
    rational triple, complex at a complex one, summed as LambdaForm.eval sums."""
    l1, l2, l3 = _LAMBDA_UNITS if lam is None else lam
    if k == -2:
        return 1 - m1 + l1 - l2
    if k == 0:
        return j * l + j * (j + 1) // 2 + l1 + l2 - 2 * l3
    if k == 2:
        return 1 + m1 + l1 - l2
    raise ValueError("k must be -2, 0, or 2")


# Callers walk the labels K-type by K-type, so the working set of either
# amplitude cache is a few (l, m1) rows; eviction only costs a recomputation.
_AMPLITUDE_CACHE_SIZE = 1 << 14


def _lam_key(lam: LamArg) -> tuple[str, tuple | None]:
    """The mode and the components of a spectral parameter, as a cache key,
    made complex in numeric mode; ValueError unless lam is None or a triple
    summing to zero.  The mode is part of the key because 11, Fraction(11)
    and 11+0j hash and compare alike, yet give RadicalScalar and complex
    coefficients."""
    if lam is None:
        return "symbolic", None
    lam = tuple(lam)
    if all(isinstance(x, (int, Fraction)) for x in lam):
        mode, zero_sum = "exact", sum(lam) == 0
    else:
        lam = tuple(complex(x) for x in lam)
        mode, zero_sum = "numeric", abs(sum(lam)) <= 1e-12
    if len(lam) != 3 or not zero_sum:
        raise ValueError("spectral parameter must be a triple summing to zero")
    return mode, lam


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
        c = lambda_factor(k, j, l, m1, lam) * (C_FACTORS[k] * qk)
        if not coeff_is_zero(c):
            out.append((k, c))
    return tuple(out)


def _couplings(n: int, l: int, m2: int, mode: str) -> Sequence[tuple]:
    """The nonzero q(n, j, l, m2) as (j, q) pairs, float in numeric mode."""
    if mode == "numeric":
        return _float_couplings(n, l, m2)
    if n not in (-2, -1, 0, 1, 2):
        raise ValueError("n must be in -2..2")
    out = []
    for j in range(-2, 3):
        qn = q(n, j, l, m2)
        if not qn.is_zero():
            out.append((j, qn))
    return out


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _float_couplings(n: int, l: int, m2: int) -> tuple:
    """_couplings in floats, each q converted once."""
    return tuple((j, float(qn)) for j, qn in _couplings(n, l, m2, "exact"))


def act_Z(n: int, idx: WignerIndex, lam: LamArg = None) -> KTypeVector:
    """pi(Z_n) on a Wigner function, as sum_j q(n,j,l,m2) U_j D^l_{m1,m2}.

    lam = None gives symbolic LambdaForm coefficients; a rational triple
    gives exact RadicalScalar coefficients; any other triple gives complex
    ones.  Raises ValueError for a lam that is no triple summing to zero.
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
            c_pos = c_pos * _HALF
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


# ---------------------------------------------------------------------------
# The compositions W and the normalized ladder steps


def _ladder_m2(v: KTypeVector, step: int) -> KTypeVector:
    """Raw pi(+-Y2 + iY3) step: shifts every m2 by `step` with the exact
    sqrt(l(l+1) - m2(m2+step)) coefficient."""
    out = KTypeVector()
    for idx, c in v.items():
        l, m1, m2 = idx
        arg = ladder_coeff_sq(l, m2, step)
        if arg <= 0 or abs(m2 + step) > l:
            continue
        coeff = RadicalScalar.sqrt_rational(arg)
        out.add_term(WignerIndex(l, m1, m2 + step), c * coeff)
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
        out = out + act_Z(n, idx, lam).scaled(c)
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


@lru_cache(maxsize=None)  # keyed by a generator tag: finite
def standard_basis_coords(tag: str) -> tuple:
    """(Y, Z)-coordinates of a standard generator, solved exactly."""
    coords = decompose_matrix(GENERATOR_MATRICES[tag])
    if reassemble(coords) != GENERATOR_MATRICES[tag]:
        raise AssertionError(f"change of basis failed for {tag}")
    return tuple(sorted(coords.items()))


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _y_row(i: int, l: int, m: int) -> tuple:
    """pi(Y_i) on D^l_{.,m} as ((m', coefficient), ...): the `y_steps` rows,
    each unit read as the exact value it is."""
    return tuple((t, RadicalScalar({1: unit.real, -1: unit.imag})
                  * RadicalScalar.sqrt_rational(square))
                 for t, unit, square in y_steps(i, l, m))


@lru_cache(maxsize=200_000)
def _apply_poly_cached(tag: str, idx: WignerIndex) -> KTypeVector:
    """Action of any generator with exact LambdaForm coefficients: Y_i from
    the `y_steps` table, each unit read as the exact value it is."""
    if tag in Z_TAGS:
        return act_Z(Z_TAGS[tag], idx)
    if tag in Y_TAGS:
        l, m1, m2 = WignerIndex(*idx).validate()
        return KTypeVector({WignerIndex(l, m1, t): LambdaForm.constant(c)
                            for t, c in _y_row(Y_TAGS[tag], l, m2)})
    # standard generator: exact linear combination of the above
    out = KTypeVector()
    for t, c in standard_basis_coords(tag):
        for target, form in _apply_poly_cached(t, idx).items():
            out.add_term(target, form * c)
    return out


def decompose_standard_basis(tag: str, idx: WignerIndex,
                             lam: LamArg = None) -> KTypeVector:
    """Action of X_i / H_i (or any tag) via the exact change of basis,
    evaluated at lam, a triple summing to zero, if one is given."""
    _, lam = _lam_key(lam)
    vec = _apply_poly_cached(tag, WignerIndex(*idx))
    if lam is None:
        return vec
    out = KTypeVector()
    for target, form in vec.items():
        out.add_term(target, form.eval(lam))
    return out


def compose_poly(tag: str, v: KTypeVector) -> KTypeVector:
    """Apply a generator, with its exact LambdaForm coefficients, to a vector
    whose coefficients multiply a LambdaForm (scalars, or polynomials of
    higher degree)."""
    out = KTypeVector()
    for idx, c in v.items():
        for target, form in _apply_poly_cached(tag, idx).items():
            out.add_term(target, c * form)
    return out


# The bracket verifier runs over every index of several K-types, so it works
# on integers.  A coefficient of degree <= 1 in (lam1, lam2) is a tuple of
# terms (rad, im, p0, p1, p2, den), each standing for
# (p0 + p1 lam1 + p2 lam2) / den * sqrt(rad) * i^im with rad squarefree.
# Square roots of distinct squarefree integers are linearly independent over
# Q(i)[lam1, lam2], so a sum of such products is zero iff the integer
# coefficients of each (target, rad, im) and monomial are.


def _int_terms(form: LambdaForm) -> tuple:
    """The integer terms of a LambdaForm, lam3 eliminated."""
    groups: dict[tuple[int, int], list] = {}
    for slot, r in enumerate(form.canonical()):
        for rad, c in r.terms.items():
            key = (-rad, 1) if rad < 0 else (rad, 0)
            groups.setdefault(key, [Fraction(0)] * 3)[slot] += c
    out = []
    for (rad, im), p in sorted(groups.items()):
        den = lcm(*(c.denominator for c in p))
        out.append((rad, im, *(int(c * den) for c in p), den))
    return tuple(out)


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _u_terms(j: int, l: int, m1: int) -> tuple:
    """The symbolic U_j amplitudes of D^l_{m1,.} as ((k, terms), ...)."""
    return tuple((k, _int_terms(form))
                 for k, form in _u_amplitudes(j, l, m1, "symbolic", None))


def _scaled_terms(terms: tuple, r: RadicalScalar) -> tuple:
    out = []
    for rad, im, p0, p1, p2, den in terms:
        for rq, c in r.terms.items():
            g = gcd(rad, rq)
            f = c.numerator * g
            out.append((rad // g * (rq // g), im, p0 * f, p1 * f, p2 * f,
                        den * c.denominator))
    return tuple(out)


@lru_cache(maxsize=200_000)
def _apply_flat(tag: str, idx: WignerIndex) -> tuple:
    """pi(tag) D_idx for a (Y, Z) tag as ((target, terms), ...): Z_n as
    sum_j q(n,j,l,m2) U_j, Y_i as read from _apply_poly_cached."""
    if tag in Z_TAGS:
        n = Z_TAGS[tag]
        l, m1, m2 = idx
        return tuple((WignerIndex(l + j, m1 + k, m2 + n), _scaled_terms(terms, qn))
                     for j, qn in _couplings(n, l, m2, "symbolic")
                     for k, terms in _u_terms(j, l, m1))
    return tuple((target, _int_terms(form))
                 for target, form in _apply_poly_cached(tag, idx).items())


class _DegreeTwoSum:
    """An exact sum of products of two degree-<=1 coefficients: `entries`
    maps (target, rad, im) to the integer coefficients of 1, lam1, lam2,
    lam1^2, lam1 lam2, lam2^2, all over the one denominator `den`."""

    def __init__(self):
        self.entries: dict[tuple, list[int]] = {}
        self.den = 1

    def _factor(self, d: int) -> int:
        """den // d, after putting every entry over a multiple of d."""
        if self.den % d:
            scale = d // gcd(self.den, d)
            for e in self.entries.values():
                e[:] = [x * scale for x in e]
            self.den *= scale
        return self.den // d

    def add(self, target: tuple, a: tuple, b: tuple, sign: int) -> None:
        """Add sign * a * b at `target`."""
        entries = self.entries
        for ra, ia, a0, a1, a2, da in a:
            for rb, ib, b0, b1, b2, db in b:
                g = gcd(ra, rb)
                f = sign * g * self._factor(da * db)
                if ia & ib:  # i * i = -1
                    f = -f
                key = (target, ra // g * (rb // g), ia ^ ib)
                e = entries.setdefault(key, [0] * 6)
                fa0, fa1, fa2 = f * a0, f * a1, f * a2
                e[0] += fa0 * b0
                e[1] += fa0 * b1 + fa1 * b0
                e[2] += fa0 * b2 + fa2 * b0
                e[3] += fa1 * b1
                e[4] += fa1 * b2 + fa2 * b1
                e[5] += fa2 * b2

    def add_scaled(self, w: RadicalScalar, amps: tuple, at: tuple) -> None:
        """Add w times the degree-2 amplitudes (den, ((K, rad, im, coeffs),
        ...)) of `_uu_terms` at the targets (L, m1 + K, m2), at = (L, m1, m2)."""
        entries = self.entries
        den, polys = amps
        L, m1, m2 = at
        for rw, c in w.terms.items():
            iw = rw < 0
            rw = -rw if iw else rw
            fw = c.numerator * self._factor(den * c.denominator)
            for K, rad, im, (c0, c1, c2, c3, c4, c5) in polys:
                g = gcd(rad, rw)
                f = -fw * g if im and iw else fw * g
                e = entries.setdefault(((L, m1 + K, m2), rad // g * (rw // g), im ^ iw),
                                       [0] * 6)
                e[0] += f * c0
                e[1] += f * c1
                e[2] += f * c2
                e[3] += f * c3
                e[4] += f * c4
                e[5] += f * c5

    def is_zero(self) -> bool:
        return not any(any(e) for e in self.entries.values())


@lru_cache(maxsize=None)  # keyed by a pair of generator tags: finite
def _generator_bracket(tag_a: str, tag_b: str) -> Matrix:
    return matrix_bracket(GENERATOR_MATRICES[tag_a], GENERATOR_MATRICES[tag_b])


@lru_cache(maxsize=None)  # keyed by a pair of generator tags: finite
def _bracket_coords_flat(tag_a: str, tag_b: str) -> tuple:
    """The coordinates of [A, B] as sorted ((tag, coefficient), ...)."""
    return tuple(sorted(decompose_matrix(_generator_bracket(tag_a, tag_b)).items()))


# The defect [pi(A), pi(B)] - pi([A, B]) factors through q (x) U.  pi(Y_i)
# acts on m2 alone, and pi(Z_n) = sum_j q(n,j,l,m2) U_j carries all of its
# lam- and m1-dependence in the U_j amplitudes A_jk(lam,l,m1).
#
# * (Y, Y) and (Y, Z) pairs: the defect on D^l_{m1,m2} is
#   sum_{j,k} A_jk sum_s E_j(l,m2; s) D^{l+j}_{m1+k,s}, where E_j is the
#   bracket identity on the m2 index alone, each Z_n restricted to its
#   coupling q(n,j,l,.) (for (Y, Y), j = k = 0 and A = 1).  E_j is free of
#   lam and m1.  Each (j, k, s) is its own target and each A_jk is nonzero,
#   so the defect vanishes iff E_j = 0 for every j with U_j D^l_{m1,.} != 0.
# * (Z_a, Z_b) pairs: both orders compose the same U_j' U_j amplitudes, so
#   the commutator is the one sum of U_j' U_j D^l_{m1,.} weighted by
#   Q_jj'(l,m2) = q(b,j,l,m2) q(a,j',l+j,m2+b) - q(a,j,l,m2) q(b,j',l+j,m2+a),
#   of degree 2 in lam; pi([Z_a, Z_b]) is a combination of Y's.


def _m2_row(tag: str, j: int, l: int, m: int) -> tuple[int, tuple]:
    """A (Y, Z) tag on the m2 index of D^l_{.,m}, each Z_n restricted to its
    U_j part: (l after it, ((m', coefficient), ...))."""
    if tag in Y_TAGS:
        return l, _y_row(Y_TAGS[tag], l, m)
    n = Z_TAGS[tag]
    qn = q(n, j, l, m)
    return l + j, ((m + n, qn),) if qn else ()


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _m2_identity_holds(tag_a: str, tag_b: str, coords: tuple, j: int, l: int,
                       m2: int) -> bool:
    """E_j(l, m2; .) = 0 for a (Y, Y) or (Y, Z) pair: A B = B A + sum_t c_t T
    on the m2 index of D^l_{.,m2}, each Z restricted to its U_j part, with
    (t, c_t) the `coords` as _bracket_coords_flat gives them (part of the
    key, so a verdict is never reused for other coordinates)."""
    if any((t in Y_TAGS) != (tag_b in Y_TAGS) for t, _ in coords):
        raise AssertionError(f"[{tag_a}, {tag_b}] leaves the span of the {tag_b[0]}'s")
    ab: dict[int, RadicalScalar] = {}
    rhs: dict[int, RadicalScalar] = {}
    for first, second, side in ((tag_b, tag_a, ab), (tag_a, tag_b, rhs)):
        lt, row = _m2_row(first, j, l, m2)
        for t, c1 in row:
            for s, c2 in _m2_row(second, j, lt, t)[1]:
                side[s] = side.get(s, ZERO) + c2 * c1
    for t, c in coords:
        for s, ct in _m2_row(t, j, l, m2)[1]:
            rhs[s] = rhs.get(s, ZERO) + ct * c
    return all(ab.get(s, ZERO) == rhs.get(s, ZERO) for s in ab.keys() | rhs.keys())


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _uu_terms(j: int, jp: int, l: int, m1: int) -> tuple:
    """U_j' U_j D^l_{m1,.} as (den, ((K, rad, im, coefficients), ...)): the
    integer coefficients of 1, lam1, lam2, lam1^2, lam1 lam2, lam2^2 over den
    of each part D^{l+j+j'}_{m1+K,.}, zero parts left out."""
    acc = _DegreeTwoSum()
    for k, inner in _u_terms(j, l, m1):
        for kp, outer in _u_terms(jp, l + j, m1 + k):
            acc.add(k + kp, outer, inner, 1)
    return acc.den, tuple((K, rad, im, tuple(e))
                          for (K, rad, im), e in acc.entries.items() if any(e))


# the amplitude 1 at D^L_{m1,.}, in the format of _uu_terms
_UNIT_AMPLITUDE = (1, ((0, 1, 0, (1, 0, 0, 0, 0, 0)),))


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _zz_weights(a: int, b: int, l: int, m2: int) -> tuple:
    """The nonzero Q_jj'(l, m2) of (Z_a, Z_b) as ((j, j', Q), ...)."""
    out = []
    for j in range(-2, 3):
        qb, qa = q(b, j, l, m2), q(a, j, l, m2)
        for jp in range(-2, 3):
            w = qb * q(a, jp, l + j, m2 + b) if qb else ZERO
            if qa:
                w = w - qa * q(b, jp, l + j, m2 + a)
            if w:
                out.append((j, jp, w))
    return tuple(out)


def _bracket_defect_zero(tag_a: str, tag_b: str, idx: WignerIndex) -> bool:
    """Whether [pi(A), pi(B)] - pi([A, B]) vanishes on D_idx, computed
    exactly in the factored form above, for (Y, Z) tags with a Y tag first
    (the sorted order bracket_check passes)."""
    l, m1, m2 = idx
    coords = _bracket_coords_flat(tag_a, tag_b)
    if tag_b in Y_TAGS:
        return _m2_identity_holds(tag_a, tag_b, coords, 0, l, m2)
    if tag_a in Y_TAGS:
        return all(_m2_identity_holds(tag_a, tag_b, coords, j, l, m2)
                   for j in range(-2, 3) if _u_terms(j, l, m1))
    a, b = Z_TAGS[tag_a], Z_TAGS[tag_b]
    acc = _DegreeTwoSum()
    for j, jp, w in _zz_weights(a, b, l, m2):
        acc.add_scaled(w, _uu_terms(j, jp, l, m1), (l + j + jp, m1, m2 + a + b))
    for t, c in coords:  # pi([Z_a, Z_b]) = sum_t c_t pi(Y_t), lam-free
        for s, ct in _y_row(Y_TAGS[t], l, m2):
            acc.add_scaled(-(c * ct), _UNIT_AMPLITUDE, (l, m1, s))
    return acc.is_zero()


_pair_defect_zero = lru_cache(maxsize=200_000)(_bracket_defect_zero)


def _coords_of(tag: str) -> tuple:
    if tag in Z_TAGS or tag in Y_TAGS:
        return ((tag, ONE),)
    return standard_basis_coords(tag)


@lru_cache(maxsize=None)  # keyed by a pair of generator tags: finite
def _bilinear_bracket_verified(tag_a: str, tag_b: str) -> tuple:
    """Verify [A, B] = sum A_c B_d [C_c, C_d] exactly on 3x3 matrices.

    Returns the convenient-basis pairs (c, d) with a nonzero coefficient;
    once this matrix-level identity is certified, the operator-level
    bracket defect of (A, B) is the same bilinear combination of the
    convenient-pair defects, because the action of a standard generator is
    defined as exactly that linear combination.
    """
    ca, cb = _coords_of(tag_a), _coords_of(tag_b)
    total = tuple(tuple(ZERO for _ in range(3)) for _ in range(3))
    pairs = []
    for c, wa in ca:
        for d, wb in cb:
            if c == d:
                continue  # [C, C] = 0
            w = wa * wb
            if w.is_zero():
                continue
            pairs.append((c, d))
            br = _generator_bracket(c, d)
            total = tuple(tuple(total[i][j] + br[i][j] * w for j in range(3))
                          for i in range(3))
    want = _generator_bracket(tag_a, tag_b)
    if any(total[i][j] != want[i][j] for i in range(3) for j in range(3)):
        raise AssertionError(f"bilinear bracket mismatch for {tag_a}, {tag_b}")
    return tuple(sorted({tuple(sorted(p)) for p in pairs}))


def bracket_check(tag_a: str, tag_b: str, idx: WignerIndex) -> bool:
    """Exact check of [pi(A), pi(B)] = pi([A, B]) on one Wigner index.

    Pairs of convenient-basis generators (Y, Z) are checked in the factored
    form q (x) U: a (Y, Y) or (Y, Z) defect vanishes iff a lam-free identity
    on the m2 index holds for each j with U_j D^l_{m1,.} != 0, and a (Z, Z)
    defect is one sum of U_j' U_j amplitudes weighted by coupling products,
    both orders merged.  For standard-basis generators, whose action is by
    construction a fixed linear combination of convenient ones, the check
    verifies the matrix-level bilinear expansion of the bracket exactly
    and then certifies every contributing convenient-pair defect; the
    standard-pair defect is that exact bilinear combination, so it
    vanishes iff the certified ones do.  Raises ValueError for a tag that
    is no generator and for an index outside |m1|, |m2| <= l.
    """
    for tag in (tag_a, tag_b):
        if tag not in GENERATOR_MATRICES:
            raise ValueError(f"unknown generator tag {tag!r}")
    idx = WignerIndex(*idx).validate()
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
    """A generator on the truncated module, as dense blocks (ls, lt).

    The labels of one l are contiguous and ordered m1-major, then m2, as
    `series.basis` lists them, so the block (ls, lt) maps the ls labels to
    the lt labels.  `to_json` gives the document as Python objects;
    `json_text` writes the same document without a Python object per zero
    entry.
    """

    params: SeriesParams
    generator: str
    lmax: int
    labels: list[BasisLabel]
    blocks: dict[tuple[int, int], np.ndarray]
    truncated: list[tuple[BasisLabel, int]] = field(default_factory=list)

    def label_index(self) -> dict[BasisLabel, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def _label_spans(self) -> dict[int, slice]:
        """The slice of `labels` that each l occupies."""
        spans: dict[int, slice] = {}
        for i, lab in enumerate(self.labels):
            first = spans[lab.l].start if lab.l in spans else i
            spans[lab.l] = slice(first, i + 1)
        return spans

    def dense(self) -> np.ndarray:
        n = len(self.labels)
        out = np.zeros((n, n), dtype=complex)
        spans = self._label_spans()
        for (ls, lt), block in self.blocks.items():
            if ls in spans and lt in spans:
                out[spans[lt], spans[ls]] = block
        return out

    def _document(self, entries) -> dict:
        """The JSON document, with `entries(block)` as each block's entries."""
        spans = self._label_spans()
        by_l = {l: [list(lab) for lab in self.labels[sl]]
                for l, sl in spans.items()}
        blocks = []
        for (ls, lt), block in sorted(self.blocks.items()):
            blocks.append({
                "j": lt - ls,
                "rows": by_l.get(lt, []),
                "cols": by_l.get(ls, []),
                "entries": entries(block),
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

    def to_json(self) -> dict:
        return self._document(
            lambda block: [[z.real, z.imag] for z in block.flatten()])

    def json_text(self) -> str:
        """Exactly json.dumps(self.to_json(), sort_keys=True).

        Each block's entries array is written apart and spliced into a
        json.dumps of the rest of the document.  An entry that is +0 in
        both parts is the shared string "[0.0, 0.0]"; only the others are
        formatted, with float.__repr__ as json formats a finite float.  A
        block holding a NaN or an infinity is written by json itself.
        """
        import json

        head, *tails = json.dumps(self._document(lambda block: []),
                                  sort_keys=True).split('"entries": []')
        texts = [_entries_text(block) for _, block in sorted(self.blocks.items())]
        return head + "".join(f'"entries": [{text}]{tail}'
                              for text, tail in zip(texts, tails))


def _entries_text(block: np.ndarray) -> str:
    """The items of json.dumps([[z.real, z.imag] for z in block.flatten()])."""
    flat = block.ravel()
    written = np.flatnonzero((flat != 0) | np.signbit(flat.real)
                             | np.signbit(flat.imag))
    vals = flat[written]
    if not np.isfinite(vals).all():
        import json

        return json.dumps([[z.real, z.imag] for z in flat])[1:-1]
    items = ["[0.0, 0.0]"] * flat.size
    for i, re, im in zip(written.tolist(), vals.real.tolist(), vals.imag.tolist()):
        items[i] = f"[{re!r}, {im!r}]"
    return ", ".join(items)


def assemble_matrix(params: SeriesParams, generator: str,
                    lmax: int) -> ActionMatrix:
    """Block-sparse matrix of a generator on the truncated module.

    Every block is a Kronecker product over the labels' (m1, m2) order.
    The block (l, l+j) of Z_n is A (x) Q: A is the mult(l+j) x mult(l)
    matrix of folded U_j amplitudes A[t, m1] (`_folded_amplitudes`), and
    Q the (2(l+j)+1) x (2l+1) shift matrix Q[m2+n, m2] = q(n,j,l,m2).  The
    block (l, l) of Y_i is the identity on the m1 rows (x) the matrix of
    the `y_steps` rows on D^l_{.,m2}, each entry unit * sqrt(square).  Each
    entry is the one product amp * q, as act_Z_on_basis computes it; adding
    +0.0 turns the -0.0 of a negative factor times a zero into +0.0, so the
    blocks are bitwise those of the per-label sum.  A block exists where
    some entry is reached; a zero block is never stored.

    Targets above lmax are recorded as truncated, one (source label, l+j)
    per dropped entry in the order act_Z_on_basis lists them, never
    silently dropped, so structure analysis can tell zeros from window
    artifacts.
    """
    if lmax < 0:
        raise ValueError("lmax must be nonnegative")
    if generator not in Y_TAGS and generator not in Z_TAGS:
        raise ValueError(f"unsupported generator tag {generator!r}")
    by_l = [basis(params, l) for l in range(lmax + 1)]
    labels = [lab for labs in by_l for lab in labs]
    m1s = [[lab.m1 for lab in labs[::2 * l + 1]] for l, labs in enumerate(by_l)]
    blocks: dict[tuple[int, int], np.ndarray] = {}
    truncated: list[tuple[BasisLabel, int]] = []
    if generator in Y_TAGS:
        for l in range(lmax + 1):
            y = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
            for m2 in range(-l, l + 1):
                for t, unit, square in y_steps(Y_TAGS[generator], l, m2):
                    y[t + l, m2 + l] = unit * sqrt(square)
            if m1s[l] and y.any():
                blocks[(l, l)] = np.kron(np.eye(len(m1s[l])), y) + 0.0
        return ActionMatrix(params, generator, lmax, labels, blocks, truncated)

    n = Z_TAGS[generator]
    delta = tuple(params.delta)
    mode, key = _lam_key(tuple(complex(x) for x in params.lam))
    for l in range(lmax + 1):
        if not m1s[l]:
            continue
        couplings = [_couplings(n, l, m2, mode) for m2 in range(-l, l + 1)]
        shifts: dict[int, np.ndarray] = {}
        for m2, pairs in enumerate(couplings, start=-l):
            for j, qn in pairs:
                if j not in shifts:
                    shifts[j] = np.zeros((2 * (l + j) + 1, 2 * l + 1))
                shifts[j][m2 + n + l + j, m2 + l] = qn
        js = sorted(shifts)
        amps = {j: [] for j in js}
        for m1 in m1s[l]:
            for j in js:
                amps[j].append(_folded_amplitudes(delta, j, l, m1, mode, key))
        for j in js:
            lt = l + j
            if lt > lmax or not any(amps[j]):
                continue
            rows = {t: i for i, t in enumerate(m1s[lt])}
            a = np.zeros((len(rows), len(m1s[l])), dtype=complex)
            for col, folded in enumerate(amps[j]):
                for t, amp in folded:
                    a[rows[t], col] = amp
            blocks[(l, lt)] = np.kron(a, shifts[j]) + 0.0
        if l + 2 > lmax:
            for col, m1 in enumerate(m1s[l]):
                for m2, pairs in enumerate(couplings, start=-l):
                    lab = BasisLabel(l, m1, m2)
                    for j, _ in pairs:
                        if l + j > lmax:
                            truncated += [(lab, l + j)] * len(amps[j][col])
    return ActionMatrix(params, generator, lmax, labels, blocks, truncated)
