"""The Lie algebra action built on the five-term kernel of `kernel`.

This module re-exports the kernel (pi(Z_n) = sum_j q(n,j,l,m2) U_j, its
fold into the v basis, the generator matrices) and builds on it the W
operators, the standard-basis coordinates, the symbolic reference
(`_apply_poly_cached`, the bracket verifier's integer terms read as
LambdaForms), the bracket verifier and matrix assembly.

The bracket verifier checks [pi(A), pi(B)] = pi([A, B]) through the same
factorization in integers alone, never expanding a composition.  The defect
on D^l_{m1,m2} is one flat sum of the U products U_js D^l_{m1,.} (js = (),
(j,) or (j, j'); integer vectors of degree <= 2 in lam), each weighted by
an integer of a lam-free, m1-free table W_js(l, m2; s) of coupling and
Y-step products, tabled per (pair, l, m2) from the integer steps of each
tag on m2 (a coupling's `q_core`, a Y step's `_int_terms`).  Each sum's
denominator is fixed before it starts; no LambdaForm is read.  A standard
pair is decided by the convenient pairs of its generators' (Y, Z)
coordinates: that rests on the runtime check that each tag's coordinates
reassemble its matrix, and on a tier-1 test of the 3x3 bracket identity.

assemble_matrix builds each block (l, l+j) of pi(Z_n) as the Kronecker
product of the kernel's folded amplitudes in m1 and the couplings
q(n,j,l,m2) in m2.  numpy is imported inside the functions that build float
arrays (matrix assembly, `ActionMatrix.dense`), so the exact action and the
bracket verifier never load it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, sqrt
from typing import NamedTuple, Sequence

from .clebsch import q_core
from .errors import VerificationError
# what this module reads of the kernel, then what it only re-exports
from .kernel import (_AMPLITUDE_CACHE_SIZE, _HALF, GENERATOR_MATRICES, Matrix,
                     _couplings, _folded_amplitudes, _lam_key, _m, _u_terms, act_Z)
from .kernel import (C_FACTORS, _ckq_core, _integer_fold, _lam_ints,  # noqa: F401
                     _lambda_coeffs, _u_amplitudes, _u_term, act_U, act_Z_on_basis,
                     generator_matrix_numeric, label_components, lambda_factor)
from .ktvector import KTypeVector
from .scalars import I, ONE, ZERO, LambdaForm, RadicalScalar
from .series import BasisLabel, SeriesParams, basis, label_sign  # noqa: F401
from .wigner import WignerIndex, ladder_coeff_sq, y_steps

# ---------------------------------------------------------------------------
# Generator tags and the (Y, Z) coordinates of a 3x3 matrix

CONVENIENT_BASIS = ("Y1", "Y2", "Y3", "Z-2", "Z-1", "Z0", "Z1", "Z2")
STANDARD_BASIS = ("X1", "X2", "X3", "X-1", "X-2", "X-3", "H1", "H2")

Z_TAGS = {"Z-2": -2, "Z-1": -1, "Z0": 0, "Z1": 1, "Z2": 2}
Y_TAGS = {"Y1": 1, "Y2": 2, "Y3": 3}


def matrix_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(3)
                            if a[i][k] and b[k][j]), ZERO)
                       for j in range(3)) for i in range(3))


def matrix_bracket(a: Matrix, b: Matrix) -> Matrix:
    ab, ba = matrix_mul(a, b), matrix_mul(b, a)
    return tuple(tuple(ab[i][j] - ba[i][j] for j in range(3)) for i in range(3))


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


def act_W(n: int, L: int, m2: int, v: KTypeVector, lam: Sequence) -> KTypeVector:
    """W^L_{n,m2} on a vector supported on D^._{., m2}: pi(Z_n) at lam, then
    the |n| steps of `_w_step` back to m2, the step from m normalized by
    1/sqrt(ladder_coeff_sq(L, m, step)) for the target K-type L.  Raises
    before pi(Z_n) when a normalization square is not positive."""
    if n not in (-2, -1, 0, 1, 2):
        raise ValueError("n must be in -2..2")
    step = -1 if n > 0 else 1
    norm = ONE
    for m in range(m2 + n, m2, step):
        arg = ladder_coeff_sq(L, m, step)
        if arg <= 0:
            raise ValueError(f"W^{L}_{{{n},{m2}}} undefined: nonpositive "
                             f"normalization argument {arg}")
        norm = norm * RadicalScalar.sqrt_rational(Fraction(1, arg))
    out = KTypeVector()
    for idx, c in v.items():
        out = out + act_Z(n, idx, lam).scaled(c)
    for _ in range(abs(n)):
        out = KTypeVector({WignerIndex(l, m1, t): c * coeff
                           for (l, m1, at), c in out.items()
                           for t, coeff in _w_step(step, l, at)})
    return out.scaled(norm)


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _w_step(step: int, l: int, m: int) -> tuple:
    """pi(step Y2 + iY3) on D^l_{.,m} as ((m', coefficient),) from the
    `_y_row`s of Y2 and Y3: +Y2 + iY3 raises m and -Y2 + iY3 lowers it."""
    return tuple((t, c) for (t, y2), (_, y3) in zip(_y_row(2, l, m), _y_row(3, l, m))
                 if (c := step * y2 + I * y3))


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
    """(Y, Z)-coordinates of a generator, solved exactly."""
    coords = decompose_matrix(GENERATOR_MATRICES[tag])
    if reassemble(coords) != GENERATOR_MATRICES[tag]:
        raise VerificationError(f"change of basis failed for {tag}")
    return tuple(sorted(coords.items()))


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _y_row(i: int, l: int, m: int) -> tuple:
    """pi(Y_i) on D^l_{.,m} as ((m', coefficient), ...): the `y_steps` rows,
    each unit read as the exact value it is."""
    return tuple((t, RadicalScalar({1: unit.real, -1: unit.imag})
                  * RadicalScalar.sqrt_rational(square))
                 for t, unit, square in y_steps(i, l, m))


def _form(terms: tuple) -> LambdaForm:
    """The LambdaForm of integer terms (rad, im, p0, p1, p2, den): the sum
    of (p0 + p1 lam1 + p2 lam2) / den * sqrt(rad) * i^im, lam3 eliminated."""
    c = [ZERO, ZERO, ZERO]
    for rad, im, *p, den in terms:
        for slot, x in enumerate(p):
            c[slot] += RadicalScalar({-rad if im else rad: Fraction(x, den)})
    return LambdaForm(*c)


@lru_cache(maxsize=200_000)
def _apply_poly_cached(tag: str, idx: WignerIndex) -> KTypeVector:
    """Action of any generator with exact LambdaForm coefficients: a (Y, Z)
    tag's integer terms of `_apply_flat` as forms, a standard generator's
    exact combination of those.  Raises ValueError for an invalid index."""
    idx = WignerIndex(*idx).validate()
    if tag in Z_TAGS or tag in Y_TAGS:
        return KTypeVector({target: _form(terms) for target, terms in _apply_flat(tag, idx)})
    # standard generator: exact linear combination of the above
    out = KTypeVector()
    for t, c in standard_basis_coords(tag):
        for target, form in _apply_poly_cached(t, idx).items():
            out.add_term(target, form * c)
    return out


def decompose_standard_basis(tag: str, idx: WignerIndex, lam: Sequence) -> KTypeVector:
    """Action of X_i / H_i (or any tag) via the exact change of basis at lam:
    RadicalScalars at a rational triple, complex at any other (the mode
    follows lam); a new vector, never the cached one."""
    vec = _apply_poly_cached(tag, WignerIndex(*idx))
    mode, lam = _lam_key(lam)
    return vec.map_coeff(lambda c: c.eval_exact(lam) if mode == "exact" else c.eval(lam))


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


def _int_terms(c: RadicalScalar) -> tuple:
    """The integer terms of a constant, a negative radicand read as i^1."""
    return tuple(sorted((abs(rad), int(rad < 0), x.numerator, 0, 0, x.denominator)
                        for rad, x in c.terms.items()))



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
    sum_j q(n,j,l,m2) U_j, Y_i from its `_y_row`."""
    l, m1, m2 = idx
    if tag in Z_TAGS:
        n = Z_TAGS[tag]
        return tuple((WignerIndex(l + j, m1 + k, m2 + n), _scaled_terms(terms, qn))
                     for j, qn in _couplings(n, l, m2, "exact")
                     for k, terms in _u_terms(j, l, m1))
    return tuple((WignerIndex(l, m1, t), _int_terms(c))
                 for t, c in _y_row(Y_TAGS[tag], l, m2) if c)


class _DegreeTwoSum:
    """An exact sum of products of two degree-<=1 coefficients: `entries`
    maps a key to the integer coefficients of 1, lam1, lam2, lam1^2,
    lam1 lam2, lam2^2 over `den`, fixed before the sum starts: a term over a
    denominator that does not divide it raises ValueError, none is rescaled."""

    def __init__(self, den: int):
        self.entries: dict[tuple, list[int]] = {}
        self.den = den

    def add(self, target, a: tuple, b: tuple, sign: int) -> None:
        """Add sign * a * b at the keys (target, rad, im)."""
        entries = self.entries
        for ra, ia, a0, a1, a2, da in a:
            for rb, ib, b0, b1, b2, db in b:
                g = gcd(ra, rb)
                f, r = divmod(self.den, da * db)
                if r:
                    raise ValueError(f"denominator {da * db} does not divide "
                                     f"the sum's {self.den}")
                f *= -sign * g if ia & ib else sign * g  # i * i = -1
                key = (target, ra // g * (rb // g), ia ^ ib)
                e = entries.setdefault(key, [0] * 6)
                fa0, fa1, fa2 = f * a0, f * a1, f * a2
                e[0] += fa0 * b0
                e[1] += fa0 * b1 + fa1 * b0
                e[2] += fa0 * b2 + fa2 * b0
                e[3] += fa1 * b1
                e[4] += fa1 * b2 + fa2 * b1
                e[5] += fa2 * b2


@lru_cache(maxsize=None)  # keyed by a pair of generator tags: finite
def _bracket_coords_flat(tag_a: str, tag_b: str) -> tuple:
    """The coordinates of [A, B] as sorted ((tag, coefficient), ...)."""
    return tuple(sorted(decompose_matrix(matrix_bracket(
        GENERATOR_MATRICES[tag_a], GENERATOR_MATRICES[tag_b])).items()))


# The defect [pi(A), pi(B)] - pi([A, B]) factors through q (x) U.  pi(Y_i)
# acts on m2 alone, and pi(Z_n) = sum_j q(n,j,l,m2) U_j carries all of its
# lam- and m1-dependence in the U_j amplitudes.  So every composition of
# the defect on D^l_{m1,m2} is a U product U_js D^l_{m1,.} (js = (), (j,) or
# (j, j'), the U_j in the order applied) placed at an m2 index s, and the
# defect is the one sum over (js, s) of W_js(l, m2; s) U_js D^l_{m1,.}, with
# W the lam-free, m1-free sum of the coupling and Y-step products of all
# paths on the m2 index that take m2 to s through js.


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _m2_steps(tag: str, l: int, m: int) -> tuple:
    """A (Y, Z) tag on the m2 index of D^l_{.,m}: ((step, l', m', terms), ...), the U
    step () of Y_i or (j,) of Z_n appended to js; terms as `_int_terms` gives them."""
    if tag in Y_TAGS:
        return tuple(((), l, t, _int_terms(c)) for t, c in _y_row(Y_TAGS[tag], l, m))
    n = Z_TAGS[tag]
    cores = ((j, q_core(n, j, l, m)) for j in range(-2, 3))
    return tuple(((j,), l + j, m + n, ((rad, 0, num, 0, 0, den),))
                 for j, (num, rad, den) in cores if num)


def _summed(products: list) -> _DegreeTwoSum:
    """The (target, a, b, sign) products added into one sum over the lcm of
    the denominators of every pair of their terms."""
    acc = _DegreeTwoSum(lcm(*{ta[5] * tb[5] for _, a, b, _ in products
                              for ta in a for tb in b}))
    for product in products:
        acc.add(*product)
    return acc


@lru_cache(maxsize=None)  # keyed by the bracket coordinates of a pair: few
def _coord_terms(coords: tuple) -> tuple:
    """The `_int_terms` of each coordinate of `_bracket_coords_flat`."""
    return tuple((t, _int_terms(c)) for t, c in coords)


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _defect_weights(tag_a: str, tag_b: str, coords: tuple, l: int, m2: int) -> tuple:
    """The W_js(l, m2; s) of [pi(A), pi(B)] - sum_t c_t pi(T) on D^l_{.,m2}
    as nonzero monomials ((js, s, (rad, im, num)), ...), each an integer
    over the lcm of the products' denominators, with (t, c_t) the `coords`
    as _bracket_coords_flat gives them (part of the key, so a table is
    never reused for other coordinates)."""
    products = [((js1 + js2, s), c2, c1, sign)
                for first, second, sign in ((tag_b, tag_a, 1), (tag_a, tag_b, -1))
                for js1, lt, t, c1 in _m2_steps(first, l, m2)
                for js2, _, s, c2 in _m2_steps(second, lt, t)]
    products += [((js, s), ct, c, -1) for t, c in _coord_terms(coords)
                 for js, _, s, ct in _m2_steps(t, l, m2)]
    den = lcm(*{ta[5] * tb[5] for _, a, b, _ in products for ta in a for tb in b})
    w: dict[tuple, int] = {}
    for (js, s), a, b, sign in products:  # lam-free: p1 = p2 = 0
        for ra, ia, na, _, _, da in a:
            for rb, ib, nb, _, _, db in b:
                g = gcd(ra, rb)
                key = (js, s, ra // g * (rb // g), ia ^ ib)
                f = -sign * g if ia & ib else sign * g  # i * i = -1
                w[key] = w.get(key, 0) + f * na * nb * (den // (da * db))
    # the whole defect on D^l_{m1,m2} is over den > 0: the zero test drops it
    return tuple((js, s, (rad, im, x)) for (js, s, rad, im), x in w.items() if x)


# the identity as _u_terms gives amplitudes: the integer terms of 1 at k = 0
_UNIT_TERMS = ((0, ((1, 0, 1, 0, 0, 1),)),)


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _u_product(js: tuple, l: int, m1: int) -> tuple:
    """U_js D^l_{m1,.}, the U_j of js applied in order, as (den, ((K, rad,
    im, c0, ..., c5), ...)): the integer coefficients c of 1, lam1, lam2,
    lam1^2, lam1 lam2, lam2^2 over den of each part D^{l+sum(js)}_{m1+K,.},
    zero parts left out."""
    acc = _summed([(k + kp, outer, inner, 1)
                   for k, inner in (_u_terms(js[0], l, m1) if js else _UNIT_TERMS)
                   for kp, outer in (_u_terms(js[1], l + js[0], m1 + k)
                                     if len(js) == 2 else _UNIT_TERMS)])
    return acc.den, tuple((K, rad, im, *e)
                          for (K, rad, im), e in acc.entries.items() if any(e))


def _defect_sum(terms: list) -> dict:
    """The sum of the weighted U products (w, (den, parts), j, s), w = (rad,
    im, num), as {(j, K, s, rad, im): [c0, ..., c5]}, each coefficient over
    the lcm of the products' dens: one flat loop over every weight and part."""
    den = lcm(*{amps[0] for _, amps, _, _ in terms})
    acc: dict[tuple, list[int]] = {}
    for (rw, iw, num), (d, parts), j, s in terms:
        fw = num * (den // d)
        for K, rad, im, c0, c1, c2, c3, c4, c5 in parts:
            g = gcd(rad, rw)
            f = -fw * g if im and iw else fw * g
            key = (j, K, s, rad // g * (rw // g), im ^ iw)
            e = acc.get(key)
            if e is None:
                acc[key] = [f * c0, f * c1, f * c2, f * c3, f * c4, f * c5]
            else:
                e[0] += f * c0
                e[1] += f * c1
                e[2] += f * c2
                e[3] += f * c3
                e[4] += f * c4
                e[5] += f * c5
    return acc


def _bracket_defect_zero(tag_a: str, tag_b: str, idx: WignerIndex) -> bool:
    """Whether [pi(A), pi(B)] - pi([A, B]) vanishes on D_idx, for (Y, Z)
    tags in either order: the U products weighted by _defect_weights, their
    `_defect_sum` zero in every coefficient."""
    l, m1, m2 = idx
    terms = [(w, _u_product(js, l, m1), sum(js), s) for js, s, w in
             _defect_weights(tag_a, tag_b, _bracket_coords_flat(tag_a, tag_b), l, m2)]
    return not any(any(e) for e in _defect_sum(terms).values())


_pair_defect_zero = lru_cache(maxsize=200_000)(_bracket_defect_zero)


@lru_cache(maxsize=None)  # keyed by a pair of generator tags: finite
def _convenient_pairs(tag_a: str, tag_b: str) -> tuple:
    """The sorted pairs (c, d), c != d, of the (Y, Z) coordinates of A and
    of B.  pi(A) = sum_c A_c pi(C_c), so the defect of (A, B) is sum A_c B_d
    times the defect of (C_c, C_d) once [A, B] = sum A_c B_d [C_c, C_d]: by
    bilinearity, as each tag's coordinates reassemble its matrix, which
    `standard_basis_coords` checks at runtime (the 3x3 identity for every
    ordered pair of the 16 tags is a tier-1 test)."""
    return tuple(sorted({tuple(sorted((c, d))) for c, _ in standard_basis_coords(tag_a)
                         for d, _ in standard_basis_coords(tag_b) if c != d}))


def bracket_check(tag_a: str, tag_b: str, idx: WignerIndex) -> bool:
    """Exact check of [pi(A), pi(B)] = pi([A, B]) on one Wigner index.

    Each convenient pair that makes up the defect of (A, B) (for (Y, Z)
    tags, the pair itself; `_convenient_pairs`) is checked in the factored
    form q (x) U (`_bracket_defect_zero`).  A standard generator acts as its
    (Y, Z) combination, which `standard_basis_coords` checks to reassemble
    its matrix, so by bilinearity a standard-pair defect vanishes if the
    convenient ones do; a False verdict says only that some convenient-pair
    defect is nonzero.  Raises ValueError for a tag that is no generator and
    for an index outside |m1|, |m2| <= l.
    """
    for tag in (tag_a, tag_b):
        if tag not in GENERATOR_MATRICES:
            raise ValueError(f"unknown generator tag {tag!r}")
    idx = WignerIndex(*idx).validate()
    return all(_pair_defect_zero(c, d, idx) for c, d in _convenient_pairs(tag_a, tag_b))


# ---------------------------------------------------------------------------
# Matrix assembly


class ActionMatrix(NamedTuple):
    """A generator on the truncated module, as dense blocks (ls, lt).

    The labels of one l are contiguous and ordered m1-major, then m2, as
    `series.basis` lists them, so the block (ls, lt) maps the ls labels to
    the lt labels.  `to_json` gives the document as Python objects;
    `json_text` writes the same document with each l's label list written
    once and each run of zero entries as one repeated string.
    """

    params: SeriesParams
    generator: str
    lmax: int
    labels: list[BasisLabel]
    blocks: dict[tuple[int, int], np.ndarray]
    truncated: Sequence[tuple[BasisLabel, int]] = ()

    def _label_spans(self) -> dict[int, slice]:
        """The slice of `labels` that each l occupies."""
        spans: dict[int, slice] = {}
        for i, lab in enumerate(self.labels):
            first = spans[lab.l].start if lab.l in spans else i
            spans[lab.l] = slice(first, i + 1)
        return spans

    def dense(self) -> np.ndarray:
        import numpy as np
        n = len(self.labels)
        out = np.zeros((n, n), dtype=complex)
        spans = self._label_spans()
        for (ls, lt), block in self.blocks.items():
            if ls in spans and lt in spans:
                out[spans[lt], spans[ls]] = block
        return out

    def _head(self) -> dict:
        """The document without its blocks: metadata and labels."""
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
        }

    def to_json(self) -> dict:
        by_l = {l: [list(lab) for lab in self.labels[sl]]
                for l, sl in self._label_spans().items()}
        blocks = [{"j": lt - ls, "rows": by_l.get(lt, []), "cols": by_l.get(ls, []),
                   "entries": [[z.real, z.imag] for z in block.flatten()]}
                  for (ls, lt), block in sorted(self.blocks.items())]
        return {**self._head(), "blocks": blocks}

    def json_text(self) -> str:
        """Exactly json.dumps(self.to_json(), sort_keys=True).

        Each l's label list is written once, by json.dumps, and each block
        is written in sorted key order from those texts and its entries
        (`_entries_text`); one json.dumps writes the labels and metadata.
        """
        import json

        by_l = {l: json.dumps([list(lab) for lab in self.labels[sl]])
                for l, sl in self._label_spans().items()}
        blocks = ", ".join(
            f'{{"cols": {by_l.get(ls, "[]")}, "entries": [{_entries_text(block)}], '
            f'"j": {lt - ls}, "rows": {by_l.get(lt, "[]")}}}'
            for (ls, lt), block in sorted(self.blocks.items()))
        return f'{{"blocks": [{blocks}], {json.dumps(self._head(), sort_keys=True)[1:]}'


def _entries_text(block: np.ndarray) -> str:
    """The items of json.dumps([[z.real, z.imag] for z in block.flatten()]):
    float.__repr__ of each entry that is not +0 in both parts, as json formats
    a finite float, and each run of +0 entries between them one repeated
    "[0.0, 0.0], ".  A block holding a NaN or an infinity is written by json."""
    import numpy as np
    flat = block.ravel()
    written = np.flatnonzero((flat != 0) | np.signbit(flat.real)
                             | np.signbit(flat.imag))
    vals = flat[written]
    if not np.isfinite(vals).all():
        import json

        return json.dumps([[z.real, z.imag] for z in flat])[1:-1]
    zero, items, end = "[0.0, 0.0], ", [], 0
    for i, re, im in zip(written.tolist(), vals.real.tolist(), vals.imag.tolist()):
        items.append(f"{zero * (i - end)}[{re!r}, {im!r}], ")
        end = i + 1
    return ("".join(items) + zero * (flat.size - end))[:-2]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) + 0.0 of two matrices, by broadcasting: the same products."""
    (p, r), (s, t) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * s, r * t) + 0.0


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
    import numpy as np
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
                blocks[(l, l)] = _kron(np.eye(len(m1s[l])), y)
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
            blocks[(l, lt)] = _kron(a, shifts[j])
        if l + 2 > lmax:
            for col, m1 in enumerate(m1s[l]):
                for m2, pairs in enumerate(couplings, start=-l):
                    lab = BasisLabel(l, m1, m2)
                    for j, _ in pairs:
                        if l + j > lmax:
                            truncated += [(lab, l + j)] * len(amps[j][col])
    return ActionMatrix(params, generator, lmax, labels, blocks, truncated)
