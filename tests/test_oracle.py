"""Tests for the numerical oracles: quadrature on SO(3), finite-difference
Lie derivatives, coordinate differential operators, and the rank-one
specialization."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl3rep.kernel import generator_matrix_numeric
from sl3rep.clebsch import q_float
from sl3rep.oracle import (GRAM_BLOCK_MAX_ENTRIES, QuadratureRule, _fd_plan,
                           _gram_blocks, _node_values, _node_weights,
                           coordinate_diffops_check, expm, fd_lie_derivative,
                           fd_lie_derivative_many,
                           orthogonality_report, product_integral,
                           sample_group_point, sl2_extend, sl2_fd_derivative,
                           sl2_ladder_check, sl2_maass_check,
                           verify_theorem_main)
from sl3rep.series import GroupElement, character, extend_wigner, iwasawa
from sl3rep.wigner import EulerAngles, WignerIndex, _rx, _rz, wigner_D


def test_quadrature_mass_one():
    rule = QuadratureRule.for_degree(2)
    assert _node_weights(rule).sum() == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(ValueError):
        QuadratureRule.for_degree(-1)


def test_orthogonality_small():
    rep = orthogonality_report(3)
    assert rep["max_deviation"] < 1e-10
    assert rep["count"] == sum((2 * l + 1) ** 2 for l in range(4))


def reference_gram(lmax):
    """The quadrature Gram matrix from the full node array: one row of
    Wigner-function values per index over every (alpha, beta, gamma) node."""
    rule = QuadratureRule.for_degree(lmax)
    indices = [WignerIndex(l, m1, m2)
               for l in range(lmax + 1)
               for m1 in range(-l, l + 1)
               for m2 in range(-l, l + 1)]
    vals = _node_values(indices, rule)
    return (vals * _node_weights(rule)) @ vals.conj().T


def test_separable_gram_matches_node_array_gram():
    lmax = 4
    want = reference_gram(lmax)
    start = np.cumsum([0] + [(2 * l + 1) ** 2 for l in range(lmax + 1)])
    got = np.full_like(want, np.nan)
    for (l, lp), block in _gram_blocks(lmax):
        got[start[l]:start[l + 1], start[lp]:start[lp + 1]] = block
    assert np.abs(got - want).max() <= 1e-13


def test_orthogonality_lmax_10():
    rep = orthogonality_report(10)
    assert rep["max_deviation"] < 1e-12
    assert rep["pairs"] == rep["count"] ** 2 == 1771 ** 2


def test_orthogonality_refuses_blocks_too_big_to_hold():
    lmax = 22
    assert (2 * lmax + 1) ** 4 <= GRAM_BLOCK_MAX_ENTRIES < (2 * lmax + 3) ** 4
    with pytest.raises(ValueError, match=str(GRAM_BLOCK_MAX_ENTRIES)):
        orthogonality_report(lmax + 1)


def test_triple_product_matches_coupling():
    # integral of D^2_{a,b} D^l_{m1,m2} conj(D^{l+j}) equals
    # q(a,j,l,m1) q(b,j,l,m2) / (2(l+j)+1)
    rule = QuadratureRule.for_degree(6)
    cases = [((2, 1, -1), (3, 0, 2), 1), ((2, -1, -1), (2, 1, 1), -2),
             ((2, -2, 2), (4, 2, -2), 2)]
    for (a2, a, b), (l, m1, m2), j in cases:
        target = WignerIndex(l + j, m1 + a, m2 + b)
        val = product_integral(WignerIndex(a2, a, b), WignerIndex(l, m1, m2),
                               target, rule)
        expected = (q_float(a, j, l, m1) * q_float(b, j, l, m2)
                    / (2 * (l + j) + 1))
        assert val == pytest.approx(expected, abs=1e-11)


def test_fd_derivative_along_k_matches_exact():
    # the derivative along Y1 of the extension is i*m2 times the value
    from sl3rep.kernel import generator_matrix_numeric

    lam = (0.2 + 0.3j, -0.1, -0.1 - 0.3j)
    idx = WignerIndex(2, 1, -1)
    g = GroupElement.from_nak((0.3, -0.2, 0.1), (1.2, 0.8),
                              EulerAngles(0.7, 1.0, 2.1))
    got = fd_lie_derivative(lam, idx, generator_matrix_numeric("Y1"), g)
    want = 1j * idx.m2 * extend_wigner(lam, idx, g)
    assert got == pytest.approx(want, abs=1e-7)


STEPS = [1e-6, -1e-6, 1e-3, 0.4, -0.7, 1.0, 3.0, -3.0]


@pytest.mark.parametrize("t", STEPS)
def test_expm_closed_forms(t):
    # X_i is nilpotent of order 2, H_i diagonal, Y1 and Y2 rotations
    for tag in ("X1", "X2", "X3", "X-1", "X-2", "X-3"):
        x = generator_matrix_numeric(tag).real
        assert np.array_equal(expm(t * x), np.eye(3) + t * x), tag
    for tag in ("H1", "H2"):
        d = np.diag(generator_matrix_numeric(tag).real)
        got = expm(t * np.diag(d))
        assert np.array_equal(got, np.diag(np.diag(got))), tag
        np.testing.assert_allclose(np.diag(got), np.exp(t * d), rtol=1e-14)
    y1, y2 = (generator_matrix_numeric(tag).real for tag in ("Y1", "Y2"))
    np.testing.assert_allclose(expm(t * y1), _rz(t), rtol=0, atol=1e-14)
    np.testing.assert_allclose(expm(t * y2), _rx(t), rtol=0, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(
           lambda n: st.lists(st.floats(-1, 1), min_size=n * n, max_size=n * n)),
       st.floats(0, 15))
# entries so small that norm / ||x|| overflows: subnormal, and normal
@example(entries=[-2.225073858507e-311, -2.225073858507e-311, 0.0, 0.0],
         norm=4.195701009405945)
@example(entries=[5e-324, 0.0, 0.0, 0.0], norm=15.0)
@example(entries=[3e-308, 0.0, 0.0, 0.0], norm=15.0)
def test_expm_matches_mpmath(entries, norm):
    x = np.array(entries).reshape(int(math.isqrt(len(entries))), -1)
    if np.abs(x).max() > 0:
        # divide by the largest entry first, so the 2-norm is at least 1
        # and the scaled matrix finite
        x = x / np.abs(x).max()
        x = x * (norm / np.linalg.norm(x, 2))
    assert np.isfinite(x).all()
    with mpmath.workdps(40):
        want = np.array(mpmath.expm(mpmath.matrix(x.tolist())).tolist(), dtype=float)
    got = expm(x)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("x", [[[0.0, np.nan], [0.0, 0.0]],
                               [[0.0, np.inf], [0.0, 0.0]],
                               # exp overflows to inf, and inf * 0 to nan
                               [[800.0, 0.0], [0.0, -800.0]]])
def test_expm_refuses_non_finite(x):
    with pytest.raises(ValueError):
        expm(np.array(x))


def test_fd_step_validation():
    from sl3rep.kernel import generator_matrix_numeric

    g = sample_group_point(np.random.default_rng(0))
    with pytest.raises(ValueError):
        fd_lie_derivative((0, 0, 0), WignerIndex(1, 0, 0),
                          generator_matrix_numeric("Z0"), g, h=1e-2)


def test_theorem_main_small():
    rep = verify_theorem_main((0.15 + 0.4j, -0.3, 0.15 - 0.4j),
                              lmax=2, samples=3, seed=11)
    assert rep["max_deviation"] < 1e-6


def test_theorem_main_detects_wrong_lambda():
    # the oracle is sensitive: evaluating the expansion at a shifted
    # parameter while differentiating at the true one must fail
    from sl3rep.kernel import act_Z

    lam_true = (0.3, 0.2, -0.5)
    lam_wrong = (0.8, -0.3, -0.5)
    g = sample_group_point(np.random.default_rng(3))
    idx = WignerIndex(2, 1, 0)
    fd = fd_lie_derivative_many(lam_true, [idx],
                                generator_matrix_numeric("Z0"), g)[0]
    rhs = sum(c * extend_wigner(lam_true, t, g)
              for t, c in act_Z(0, idx, lam_wrong).items())
    assert abs(fd - rhs) > 1e-3


def reference_fd_many(lam, indices, x, g, h):
    """The central difference index by index: one `wigner_D` call per index
    and difference point, as the D-matrix path replaced."""
    plan = [(GroupElement(p), w) for p, w in _fd_plan(g.g, x, h)]
    chars = [character(lam, elem.diag) for elem, _ in plan]
    return [sum(w * (chi * wigner_D(idx, elem.angles))
                for (elem, w), chi in zip(plan, chars))
            for idx in indices]


def reference_theorem_main(lam, lmax, samples, seed, h):
    """(max_deviation, worst) of `verify_theorem_main`, every value read
    index by index through `extend_wigner` and `reference_fd_many`."""
    from sl3rep.kernel import act_Z

    rng = np.random.default_rng(seed)
    indices = [WignerIndex(l, m1, m2) for l in range(lmax + 1)
               for m1 in range(-l, l + 1) for m2 in range(-l, l + 1)]
    max_dev, worst = 0.0, None
    for _ in range(samples):
        g = sample_group_point(rng)
        for n in range(-2, 3):
            xmat = generator_matrix_numeric(f"Z{n}" if n >= 0 else f"Z-{-n}")
            fd = reference_fd_many(lam, indices, xmat, g, h)
            for idx, fd_val in zip(indices, fd):
                rhs = sum(c * extend_wigner(lam, t, g)
                          for t, c in act_Z(n, idx, lam).items())
                if (dev := abs(fd_val - rhs)) > max_dev:
                    max_dev, worst = dev, (n, tuple(idx))
    return max_dev, worst


ALL_INDICES_L4 = [WignerIndex(l, m1, m2) for l in range(5)
                  for m1 in range(-l, l + 1) for m2 in range(-l, l + 1)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["Z-2", "Z-1", "Z0", "Z1", "Z2", "X2"]))
def test_fd_many_matches_the_per_entry_sum(parts, seed, tag):
    a, b = complex(parts[0], parts[1]), complex(parts[2], parts[3])
    lam = (a, b, -a - b)
    g = sample_group_point(np.random.default_rng(seed))
    x = generator_matrix_numeric(tag)
    got = fd_lie_derivative_many(lam, ALL_INDICES_L4, x, g, 2e-5)
    want = reference_fd_many(lam, ALL_INDICES_L4, x, g, 2e-5)
    for idx, u, v in zip(ALL_INDICES_L4, got, want):
        assert abs(u - v) <= 1e-8 * (1 + abs(v)), idx


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_theorem_main_matches_the_per_entry_loop(seed):
    lam = (0.3 + 0.1j, -0.2 + 0.05j, -0.1 - 0.15j)
    rep = verify_theorem_main(lam, 3, samples=2, seed=seed, h=2e-5)
    max_dev, worst = reference_theorem_main(lam, 3, 2, seed, 2e-5)
    assert abs(rep["max_deviation"] - max_dev) <= 1e-9
    assert rep["worst"] == worst


@pytest.mark.parametrize("bad", [(2, -3, 0), (2, 0, 3)])
def test_fd_refuses_an_index_outside_its_k_type(bad):
    # a flat read of the D-matrix at (2, -3, 0) would return D^2_{2,0}
    g = sample_group_point(np.random.default_rng(0))
    x = generator_matrix_numeric("Z1")
    with pytest.raises(ValueError):
        fd_lie_derivative_many((0, 0, 0), [WignerIndex(2, 0, 0), bad], x, g)
    with pytest.raises(ValueError):
        fd_lie_derivative((0, 0, 0), bad, x, g)


def test_theorem_main_detects_a_transposed_d_matrix(monkeypatch):
    # reading [m2, m1] for [m1, m2] on both sides must not pass
    from sl3rep import oracle

    exact = oracle.wigner_D_matrix
    monkeypatch.setattr(oracle, "wigner_D_matrix",
                        lambda l, angles: exact(l, angles).T)
    rep = verify_theorem_main((0.3 + 0.1j, -0.2, -0.1 - 0.1j), 2, samples=1,
                              seed=3)
    assert rep["max_deviation"] > 1e-3


def test_coordinate_diffops_diagonal_index():
    # content requires m1 = m2 (the coordinate slice sits at k = identity)
    lam = (0.25 + 0.1j, -0.5, 0.25 - 0.1j)
    point = (0.2, -0.4, 0.3, 1.3, 0.7)
    rep = coordinate_diffops_check(lam, WignerIndex(2, 1, 1), point)
    assert rep["max_deviation"] < 1e-5
    assert set(rep["rows"]) == {"Y1", "H1", "H2", "X1", "X2", "X3",
                                "Z-2", "Z0", "Z2"}


def test_coordinate_diffops_off_diagonal_vanishes():
    # for m1 != m2 the restricted function is identically zero, so both
    # sides of every row are zero
    lam = (0.1, 0.2, -0.3)
    rep = coordinate_diffops_check(lam, WignerIndex(2, 1, 0),
                                   (0.1, 0.2, -0.1, 1.1, 0.9))
    assert rep["max_deviation"] < 1e-12


def test_sl2_iwasawa_round_trip():
    # the rank-one checks read the same factorization as SL(3,R)
    g = np.array([[1.3, 0.4], [-0.7, 0.554]])
    g = g / math.sqrt(abs(np.linalg.det(g)))
    n, a, k = iwasawa(g)
    assert np.abs(n @ a @ k - g).max() < 1e-12
    assert np.abs(n - [[1.0, n[0, 1]], [0.0, 1.0]]).max() < 1e-15
    assert a[0, 1] == a[1, 0] == 0 and np.diag(a).min() > 0
    theta = math.atan2(k[1, 0], k[1, 1])
    rotation = [[math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)]]
    assert np.abs(k - rotation).max() < 1e-12
    with pytest.raises(ValueError):
        iwasawa(np.diag([2.0, 1.0]))


def test_sl2_extend_equivariance():
    # f(n a g) = a^(1+2nu) f(g)
    nu = 0.3 + 0.7j
    g = np.array([[0.9, 0.2], [-0.5, 1.0]])
    g = g / math.sqrt(np.linalg.det(g))
    t = 1.4
    a = np.diag([t, 1 / t])
    lhs = sl2_extend(nu, 3, a @ g)
    rhs = t ** (1 + 2 * nu) * sl2_extend(nu, 3, g)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sl2_richardson_accuracy():
    nu = 0.21 - 0.43j
    g = np.array([[1.1, 0.3], [0.2, (1 + 0.3 * 0.2) / 1.1]])
    plain = sl2_ladder_check(nu, 3, g)
    assert plain["max_deviation"] < 1e-9


def test_sl2_ladder_zero_coefficient():
    # at 2nu + 1 = l the lowering coefficient vanishes: the fd derivative
    # of the lowering combination is numerically zero
    nu = 1.0  # 2nu+1 = 3 = l
    from sl3rep.oracle import SL2_LOWER
    g = np.array([[1.2, -0.4], [0.3, (1 - 0.4 * 0.3) / 1.2]])
    d = sl2_fd_derivative(nu, 3, SL2_LOWER, g)
    assert abs(d) < 1e-9


def test_sl2_maass():
    rep = sl2_maass_check(0.37 + 0.11j, 2, x=0.4, y=1.7)
    assert rep["max_deviation"] < 1e-5
