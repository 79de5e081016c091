"""The five-term kernel of the Lie algebra action on Wigner-basis vectors.

Everything the engine computes is driven by the five-term expansion

    pi(Z_n) D^l_{m1,m2} = sum_{j,k} c_k q(k,j,l,m1) q(n,j,l,m2)
                          Lam^(k)_j(lam,l,m1) D^{l+j}_{m1+k,m2+n}

with c_{-2} = c_2 = 1, c_0 = sqrt(2/3).  Its whole (n, m2)-dependence is
the coupling factor q(n,j,l,m2), so it is evaluated in the factorized form

    pi(Z_n) D^l_{m1,m2} = sum_j q(n,j,l,m2) U_j D^l_{m1,m2},

whose U_j amplitudes c_k q(k,j,l,m1) Lam^(k)_j(lam,l,m1) depend on
(j, l, m1, lam) only.  Each is one integer term, affine in lam (`_u_term`),
and their fold into the symmetrized basis (the +-m1 components summed with
their fold signs and re-folded to m1' >= 0) is one lam-free integer fold
per (delta, j, l, m1) (`_integer_fold`), checked once as an identity in
lam; an exact folded amplitude is that fold evaluated at a rational lam.
Bounded LRU caches of immutable tuples hold the folds and, per mode and
lam, the U_j amplitudes and folded amplitudes that act_Z, act_U and
act_Z_on_basis read.  The mode is part of the key, as 11, Fraction(11)
and 11+0j hash alike but give exact and complex values.

Every entry point takes a lam, checked once per call (`_lam_key`), and the
coefficient mode follows its type: exact RadicalScalars at a rational
triple, for invariant-subspace certificates, and complex at any other
triple, c_k q and q(n,j,l,m2) read as floats and `lambda_factor` evaluated
at lam itself, for matrix export and oracle comparison.  `_lambda_coeffs`
writes the same Lambda factors as integer coefficients in lam1 and lam2.

The generators' exact 3x3 matrices hold i as the RadicalScalar I.  This
module is all that certification and the oracles execute of the action;
`action` builds its consumers on it and re-exports it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, sqrt
from typing import Sequence

from .clebsch import q, q_core, q_float
from .errors import VerificationError
from .ktvector import KTypeVector, coeff_is_zero
from .scalars import I, ONE, RadicalScalar, _canonical, check_lambda
from .series import BasisLabel, SeriesParams, label_sign, label_valid
from .wigner import WignerIndex

# ---------------------------------------------------------------------------
# Generators as exact 3x3 matrices

_SQ23 = RadicalScalar.sqrt_rational(Fraction(2, 3))
_HALF = Fraction(1, 2)

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


def generator_matrix_numeric(tag: str) -> np.ndarray:
    import numpy as np
    return np.array([[complex(c) for c in row]
                     for row in GENERATOR_MATRICES[tag]])


# ---------------------------------------------------------------------------
# Lambda factors and the main expansion

C_FACTORS = {-2: ONE, 0: _SQ23, 2: ONE}


def lambda_factor(k: int, j: int, l: int, m1: int, lam: Sequence):
    """Lam^(k)_j(lam, l, m1) in the ring of lam's components (unchecked): a
    rational at a rational triple, complex at a complex one, as
    LambdaForm.eval sums, and a LambdaForm at the unit forms."""
    l1, l2, l3 = lam
    if k == -2:
        return 1 - m1 + l1 - l2
    if k == 0:
        return j * l + j * (j + 1) // 2 + l1 + l2 - 2 * l3
    if k == 2:
        return 1 + m1 + l1 - l2
    raise ValueError("k must be -2, 0, or 2")


def _lambda_coeffs(k: int, j: int, l: int, m1: int) -> tuple[int, int, int]:
    """(a0, a1, a2) with lambda_factor(k, j, l, m1, lam) = a0 + a1 lam1 + a2 lam2
    on zero-sum triples (lam3 = -lam1 - lam2), k in (-2, 0, 2): its closed
    forms in integers."""
    if k == 0:
        return j * l + j * (j + 1) // 2, 3, 3
    return 1 - m1 if k < 0 else 1 + m1, 1, -1


def _lam_ints(lam: Sequence) -> tuple[int, int, int]:
    """(n1, n2, d) with a rational zero-sum lam = (n1, n2, -n1 - n2) / d, d > 0."""
    d = lcm(lam[0].denominator, lam[1].denominator)
    return int(lam[0] * d), int(lam[1] * d), d


# Callers walk the labels K-type by K-type, so the working set of either
# amplitude cache is a few (l, m1) rows; eviction only costs a recomputation.
_AMPLITUDE_CACHE_SIZE = 1 << 14


def _lam_key(lam: Sequence) -> tuple[str, tuple]:
    """The mode and the components of a spectral parameter, as a cache key
    (see the module docstring), made complex in numeric mode; ValueError
    unless lam is a triple summing to zero (`check_lambda`)."""
    lam = check_lambda(lam)
    return "numeric" if isinstance(lam[0], complex) else "exact", lam


def _ckq_core(k: int, j: int, l: int, m1: int) -> tuple[int, int, int]:
    """(num, rad, den) with C_FACTORS[k] * q(k, j, l, m1) = num sqrt(rad) / den,
    rad squarefree and gcd(num, den) = 1: the one place where c_0 =
    sqrt(6)/3 folds 6 into the radicand, over one gcd."""
    num, rad, den = q_core(k, j, l, m1)
    if k or not num:
        return num, rad, den
    g = gcd(6, rad)
    h = gcd(num * g, 3 * den)
    return num * g // h, 6 // g * (rad // g), 3 * den // h


def _u_term(k: int, j: int, l: int, m1: int) -> tuple | None:
    """c_k q(k,j,l,m1) Lam^(k)_j(lam,l,m1) as the integer term (rad, 0, p0, p1,
    p2, den) in lowest terms: c_k q from `_ckq_core` times Lam's coefficients;
    None where q vanishes (Lam's lam1 and lam2 coefficients never do)."""
    num, rad, den = _ckq_core(k, j, l, m1)
    if not num:
        return None
    a0, a1, a2 = _lambda_coeffs(k, j, l, m1)
    p0, p1, p2 = num * a0, num * a1, num * a2
    g = gcd(p0, p1, p2, den)
    return rad, 0, p0 // g, p1 // g, p2 // g, den // g


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _u_terms(j: int, l: int, m1: int) -> tuple:
    """The U_j amplitudes of D^l_{m1,.} as ((k, (`_u_term`,)), ...)."""
    return tuple((k, (term,)) for k in (-2, 0, 2) if (term := _u_term(k, j, l, m1)))


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _u_amplitudes(j: int, l: int, m1: int, mode: str, lam) -> tuple:
    """U_j D^l_{m1,.} as ((k, c_k q(k,j,l,m1) Lam^(k)_j(lam,l,m1)), ...).

    Each amplitude goes to D^{l+j}_{m1+k,.}; zero amplitudes are left out.
    c_k q is num / den * sqrt(rad) of `_ckq_core`, as a float in numeric
    mode (bitwise complex(C_FACTORS[k] * q)) and exact otherwise.
    """
    out = []
    for k in (-2, 0, 2):
        num, rad, den = _ckq_core(k, j, l, m1)
        if num:
            ckq = (complex(num / den * sqrt(rad)) if mode == "numeric"
                   else _canonical({rad: Fraction(num, den)}))
            c = lambda_factor(k, j, l, m1, lam) * ckq
            if not coeff_is_zero(c):
                out.append((k, c))
    return tuple(out)


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _couplings(n: int, l: int, m2: int, mode: str) -> tuple:
    """The nonzero q(n, j, l, m2) as (j, q) pairs, q_float in numeric mode;
    for n < 0, and n = 0 with m2 < 0, negated exactly from the cached mirror
    q(n,j,l,m2) = (-1)^j q(-n,j,l,-m2), so Z_-n reuses the couplings of Z_n."""
    if n not in (-2, -1, 0, 1, 2):
        raise ValueError("n must be in -2..2")
    if n < 0 or (n == 0 and m2 < 0):
        return tuple((j, -x if j % 2 else x) for j, x in _couplings(-n, l, -m2, mode))
    coupling = q_float if mode == "numeric" else q
    return tuple((j, x) for j in range(-2, 3) if (x := coupling(n, j, l, m2)))


def act_Z(n: int, idx: WignerIndex, lam: Sequence) -> KTypeVector:
    """pi(Z_n) on a Wigner function, as sum_j q(n,j,l,m2) U_j D^l_{m1,m2}.

    A rational triple lam gives exact RadicalScalar coefficients, any other
    triple complex ones; ValueError for a lam that is no zero-sum triple.
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


def act_U(j: int, idx: WignerIndex, lam: Sequence) -> KTypeVector:
    """The ladder-like operator U_j at lam, in the mode of act_Z; shifts l
    by j and leaves m2 fixed."""
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


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _integer_fold(delta, j: int, l: int, m1: int) -> tuple:
    """U_j v_{l,m1,.} re-folded into the labels v_{l+j,t,.}, t >= 0, at every
    lam: ((t, ((rad, p0, p1, p2, den), ...)), ...), the amplitude of t the
    sum of (p0 + p1 lam1 + p2 lam2) / den * sqrt(rad) over its terms.

    The `_u_term`s of the +-m1 components times their fold weights, summed
    over one lcm denominator; zero forms are left out, and the targets come
    in the order they first appear, which fixes the order of reported
    leakage.  VerificationError unless each D_{-t} part is the fold sign of
    V_{l+j} times the D_t part, coefficient by coefficient (an identity in
    lam), and each target is a valid label, as for a correct expansion.
    """
    parts = [(src + k, w, term) for src, w in label_components(delta, l, m1)
             for k in (-2, 0, 2) if (term := _u_term(k, j, l, src))]
    den = lcm(*[term[5] for _, _, term in parts])
    raw: dict[tuple[int, int], tuple] = {}
    for target, w, (rad, _, p0, p1, p2, d) in parts:
        f = w * (den // d)
        a0, a1, a2 = raw.get((target, rad), (0, 0, 0))
        raw[target, rad] = a0 + f * p0, a1 + f * p1, a2 + f * p2
    sign = label_sign(delta, l + j)
    found = {abs(t): [] for t, _ in raw}
    for (t, rad), (a0, a1, a2) in raw.items():
        if t and raw.get((-t, rad), (0, 0, 0)) != (sign * a0, sign * a1, sign * a2):
            raise _fold_error(j, l, m1, abs(t))
        if t >= 0 and (a0 or a1 or a2):
            _check_target(delta, j, l, m1, t)
            found[t].append((rad, a0, a1, a2, 2 * den if t == 0 else den))
    return tuple((t, tuple(terms)) for t, terms in found.items() if terms)


def _fold_value(terms: tuple, n1: int, n2: int, d: int) -> RadicalScalar:
    """An `_integer_fold` amplitude at lam = (n1, n2, -n1 - n2) / d."""
    return _canonical({rad: Fraction(v, den * d) for rad, p0, p1, p2, den in terms
                       if (v := p0 * d + p1 * n1 + p2 * n2)})


def _fold_error(j: int, l: int, m1: int, t: int) -> VerificationError:
    """The D_{-t} part of U_j v_{l,m1,.} is not the fold sign times the D_t part."""
    return VerificationError(f"fold inconsistency at D^{l + j}_{-t} acting "
                             f"with U_{j} on v_({l},{m1},.)")


def _check_target(delta, j: int, l: int, m1: int, t: int) -> None:
    """VerificationError unless U_j v_{l,m1,.} may reach v_{l+j,t,.}."""
    if not label_valid(delta, BasisLabel(l + j, t, 0)):
        raise VerificationError(f"U_{j} on v_({l},{m1},.) reaches the invalid "
                                f"label v_({l + j},{t},.) for parity {delta}")


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _folded_amplitudes(delta, j: int, l: int, m1: int, mode: str, lam) -> tuple:
    """U_j v_{l,m1,.} re-folded into the labels v_{l+j,m1',.}, m1' >= 0, at
    lam, as ((m1', amplitude), ...) with zero amplitudes left out: exact, the
    `_integer_fold` evaluated at lam; numeric, the complex U_j amplitudes
    summed and checked as `_integer_fold` sums and checks its forms, the
    D_{-m1'} parts within rounding."""
    if mode == "exact":
        n1, n2, d = _lam_ints(lam)
        return tuple((t, amp) for t, terms in _integer_fold(delta, j, l, m1)
                     if (amp := _fold_value(terms, n1, n2, d)))
    raw = KTypeVector()
    order = []
    for src, w in label_components(delta, l, m1):
        for k, amp in _u_amplitudes(j, l, src, mode, lam):
            raw.add_term(src + k, amp if w == 1 else amp * w)
            if abs(src + k) not in order:
                order.append(abs(src + k))
    sign = label_sign(delta, l + j)
    out = []
    for t in order:
        c_pos, c_neg = raw.get(t), raw.get(-t)
        if t and not (c_neg is None if c_pos is None else c_neg is not None and
                      abs(c_neg - sign * c_pos) <= 1e-9 * max(1.0, abs(c_pos))):
            raise _fold_error(j, l, m1, t)
        if c_pos is not None:
            _check_target(delta, j, l, m1, t)
            out.append((t, c_pos * _HALF if t == 0 else c_pos))
    return tuple(out)


def act_Z_on_basis(n: int, label: BasisLabel, params: SeriesParams) -> KTypeVector:
    """pi(Z_n) on v_{l,m1,m2} at params.lam, re-folded into the m1 >= 0 labels.

    Computed as sum_j q(n,j,l,m2) (U_j v_{l,m1,.}) with the folded U_j
    amplitudes read from a bounded cache keyed on (delta, j, l, m1), the
    mode and lam.  The fold is checked once per cache entry, which checks
    every call: q(n,j,l,m2) is a common nonzero factor of each j.
    """
    if not label_valid(params.delta, label):
        raise ValueError(f"label {label} invalid for parity {params.delta}")
    l, m1, m2 = label
    delta = tuple(params.delta)
    mode, key = _lam_key(params.lam)
    out = KTypeVector()
    for j, qn in _couplings(n, l, m2, mode):
        for t, amp in _folded_amplitudes(delta, j, l, m1, mode, key):
            out.terms[BasisLabel(l + j, t, m2 + n)] = amp * qn
    return out
