"""Tests for the rank-one ladder calculus and composition series."""

from fractions import Fraction

import pytest

from sl3rep.ktvector import KTypeVector
from sl3rep.sl2 import (SL2Params, lower, raise_, sl2_composition_report,
                        sl2_standard_basis_action, weight)


def test_ladder_coefficients():
    p = SL2Params(Fraction(1, 3), eps=0)
    v = KTypeVector({4: 1})
    assert raise_(p, v).get(6) == 2 * Fraction(1, 3) + 1 + 4
    assert lower(p, v).get(2) == 2 * Fraction(1, 3) + 1 - 4
    assert weight(p, v).get(4) == 4j


def test_parity_enforced():
    p = SL2Params(0, eps=1)
    with pytest.raises(ValueError):
        raise_(p, KTypeVector({2: 1}))
    raise_(p, KTypeVector({3: 1}))  # allowed


def _small(v, tol=1e-12):
    return all(abs(c) < tol for c in v.terms.values())


def _op(p, gen):
    def act(v):
        return sl2_standard_basis_action(p, gen, v)
    return act


def test_standard_basis_brackets():
    # [H,E] = 2E, [H,F] = -2F, [E,F] = H on a generic weight vector
    p = SL2Params(0.37 + 0.21j, eps=1)
    E, H, F = _op(p, "E"), _op(p, "H"), _op(p, "F")
    v = KTypeVector({3: 1.0, -1: 0.5})

    def commutator(a, b, vec):
        return a(b(vec)) - b(a(vec))

    assert _small(commutator(H, E, v) - E(v).scaled(2))
    assert _small(commutator(H, F, v) - F(v).scaled(-2))
    assert _small(commutator(E, F, v) - H(v))


def test_ladder_ops_are_standard_combinations():
    # raise = H - i(E+F), lower = H + i(E+F), weight = F - E
    p = SL2Params(0.8 - 0.3j, eps=0)
    E, H, F = _op(p, "E"), _op(p, "H"), _op(p, "F")
    v = KTypeVector({2: 1.0, -4: 1j})
    r = H(v) - (E(v) + F(v)).scaled(1j)
    lo = H(v) + (E(v) + F(v)).scaled(1j)
    w = F(v) - E(v)
    assert _small(r - raise_(p, v))
    assert _small(lo - lower(p, v))
    assert _small(w - weight(p, v))


def reference_standard_basis_action(params, generator, v):
    """E, H, F with their coefficients written out by hand."""
    nu = params.nu
    out = KTypeVector()
    for l, c in v.items():
        if generator == "E":
            out.add_term(l - 2, 1j * (l - 1 - 2 * nu) / 4 * c)
            out.add_term(l, -1j * l / 2 * c)
            out.add_term(l + 2, 1j * (l + 1 + 2 * nu) / 4 * c)
        elif generator == "H":
            out.add_term(l - 2, -(l - 1 - 2 * nu) / 2 * c)
            out.add_term(l + 2, (l + 1 + 2 * nu) / 2 * c)
        else:
            out.add_term(l - 2, 1j * (l - 1 - 2 * nu) / 4 * c)
            out.add_term(l, 1j * l / 2 * c)
            out.add_term(l + 2, 1j * (l + 1 + 2 * nu) / 4 * c)
    return out


@pytest.mark.parametrize("nu", [Fraction(1, 3), Fraction(-3, 2), 2, 0,
                                0.37 + 0.21j, -1.5 - 0.75j])
@pytest.mark.parametrize("eps", [0, 1])
@pytest.mark.parametrize("generator", "EHF")
def test_standard_basis_is_the_ladder_combination(nu, eps, generator):
    p = SL2Params(nu, eps)
    v = KTypeVector({l: (1 + l) * (1 - 0.5j) for l in range(eps - 10, 11, 2)})
    got = sl2_standard_basis_action(p, generator, v)
    want = reference_standard_basis_action(p, generator, v)
    # relative to the vector: each weight sums three ladder terms that cancel
    assert got.terms.keys() == want.terms.keys()
    scale = max(abs(c) for c in want.terms.values())
    for l, c in want.items():
        assert abs(complex(got.get(l)) - c) <= 1e-15 * scale, (l, got.get(l), c)


@pytest.mark.parametrize("nu", [Fraction(1, 3), Fraction(-7, 2), 3])
def test_h_is_exact_at_a_rational_nu(nu):
    p = SL2Params(nu, eps=0)
    v = KTypeVector({l: Fraction(l + 1, 3) for l in range(-6, 7, 2)})
    got = sl2_standard_basis_action(p, "H", v)
    assert got and all(isinstance(c, Fraction) for c in got.terms.values())
    assert got == (raise_(p, v) + lower(p, v)).scaled(Fraction(1, 2))
    assert got.get(2) == Fraction(2 * nu + 1 + 0, 2) * Fraction(1, 3) \
        + Fraction(2 * nu + 1 - 4, 2) * Fraction(5, 3)


def test_unknown_generator_raises_even_on_the_empty_vector():
    with pytest.raises(ValueError, match="E, H, or F"):
        sl2_standard_basis_action(SL2Params(0), "X", KTypeVector())


@pytest.mark.parametrize("k", range(2, 7))
def test_discrete_sub_cases(k):
    # nu = (k-1)/2 with matching parity: lower kills v_k, raise kills v_{-k}
    p = SL2Params(Fraction(k - 1, 2), eps=k % 2)
    rep = sl2_composition_report(p)
    assert not rep.irreducible
    assert rep.kind == "discrete-sub" and rep.k == k
    # the quotient is the finite block of the k - 1 weights 2 - k, ..., k - 2
    assert rep.quotient == f"({k - 1})-dimensional"
    assert lower(p, KTypeVector({k: 1})).get(k - 2, 0) == 0
    assert raise_(p, KTypeVector({-k: 1})).get(-k + 2, 0) == 0


@pytest.mark.parametrize("k", range(2, 7))
def test_finite_sub_cases(k):
    p = SL2Params(Fraction(1 - k, 2), eps=k % 2)
    rep = sl2_composition_report(p)
    assert not rep.irreducible
    assert rep.kind == "finite-sub" and rep.k == k
    # the finite block is outward-closed: raising its top weight gives zero
    assert raise_(p, KTypeVector({k - 2: 1})).get(k, 0) == 0
    assert lower(p, KTypeVector({2 - k: 1})).get(-k, 0) == 0


def test_irreducible_cases():
    assert sl2_composition_report(SL2Params(Fraction(1, 3))).irreducible
    assert sl2_composition_report(SL2Params(0.25 + 1.5j)).irreducible
    # parity mismatch: nu = 1/2 gives b = 2, needs eps = 0; eps = 1 stays irreducible
    assert sl2_composition_report(SL2Params(Fraction(1, 2), eps=1)).irreducible
    assert not sl2_composition_report(SL2Params(Fraction(1, 2), eps=0)).irreducible


def test_report_lines():
    lines = sl2_composition_report(SL2Params(1, eps=1)).lines()
    assert any("k = 3" in s for s in lines)


@pytest.mark.parametrize("nu, kind, k, read_as, first_line", [
    (0.25, "irreducible", None, Fraction(1, 4), "nu = 1/4, eps = 0"),
    (0.1, "irreducible", None, 0.1, "nu = 0.1, eps = 0"),
    (1.5 + 0j, "discrete-sub", 4, Fraction(3, 2), "nu = 3/2, eps = 0"),
    (-1.5, "finite-sub", 4, Fraction(-3, 2), "nu = -3/2, eps = 0"),
    (0.5 + 1e-12j, "irreducible", None, 0.5 + 1e-12j,
     "nu = (0.5+1e-12j), eps = 0"),
])
def test_float_nu_is_read_as_the_rational_it_equals(nu, kind, k, read_as,
                                                    first_line):
    # a float nu that is exactly a small-denominator rational is reported as
    # that rational; any other float, or a nonzero imaginary part, is kept
    rep = sl2_composition_report(SL2Params(nu))
    assert rep.kind == kind and rep.k == k
    assert rep.irreducible == (kind == "irreducible")
    assert type(rep.params.nu) is type(read_as) and rep.params.nu == read_as
    assert rep.lines()[0] == first_line
