"""Tests for Wigner functions, Euler angles, and so(3) derivative formulas."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl3rep.wigner import (LMAX_VALIDATED, EulerAngles, WignerIndex,
                           euler_from_matrix, eval_vector, left_derivative_Y,
                           little_d, little_d_matrix, matrix_from_euler,
                           right_derivative_Y, wigner_D, wigner_D_matrix)

ANGLES = st.tuples(st.floats(0, 2 * math.pi), st.floats(0.01, math.pi - 0.01),
                   st.floats(0, 2 * math.pi)).map(lambda t: EulerAngles(*t))


def _lfact(n: int) -> float:
    return math.lgamma(n + 1)


def reference_little_d(l, m1, m2, x):
    """The finite binomial sum with log-factorial prefactors, in floats.

    Cancellation between its alternating terms costs accuracy as l grows:
    against the 50-digit sum its error is 9e-14 at l = 8, 1.6e-12 at l = 12
    and 0.79 at l = 50."""
    ch = math.sqrt((1.0 + x) / 2.0)  # cos(beta/2)
    sh = math.sqrt((1.0 - x) / 2.0)  # sin(beta/2)
    pref = 0.5 * (_lfact(l + m1) + _lfact(l - m1) - _lfact(l + m2) - _lfact(l - m2))
    total = 0.0
    for r in range(max(0, m1 + m2), min(l + m1, l + m2) + 1):
        pc = 2 * r - m1 - m2
        ps = 2 * l + m1 + m2 - 2 * r
        if (ch == 0.0 and pc > 0) or (sh == 0.0 and ps > 0):
            continue
        logmag = (pref + _lfact(l + m2) - _lfact(r) - _lfact(l + m2 - r)
                  + _lfact(l - m2) - _lfact(l + m1 - r) - _lfact(r - m1 - m2))
        term = math.exp(logmag) * ch ** pc * sh ** ps
        total += -term if r % 2 else term
    return total if (l + m2) % 2 == 0 else -total


def mp_little_d(l, m1, m2, x):
    """The same binomial sum evaluated with 50 significant digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        ch = mpmath.sqrt((1 + x) / 2)
        sh = mpmath.sqrt((1 - x) / 2)
        f = mpmath.factorial
        pref = mpmath.sqrt(f(l + m1) * f(l - m1) / (f(l + m2) * f(l - m2)))
        total = mpmath.mpf(0)
        for r in range(max(0, m1 + m2), min(l + m1, l + m2) + 1):
            term = (mpmath.binomial(l + m2, r) * mpmath.binomial(l - m2, l + m1 - r)
                    * ch ** (2 * r - m1 - m2) * sh ** (2 * l + m1 + m2 - 2 * r))
            total += -term if r % 2 else term
        return float(pref * (total if (l + m2) % 2 == 0 else -total))


@pytest.mark.parametrize("beta0", [0.0, math.pi / 2, math.pi])
def test_little_d_matches_50_digit_reference(beta0):
    rng = np.random.default_rng(int(100 * beta0))
    ls = [LMAX_VALIDATED, 60, 40] + [int(v) for v in rng.integers(0, LMAX_VALIDATED + 1, 9)]
    for l in ls:
        m1, m2 = (int(v) for v in rng.integers(-l, l + 1, 2))
        beta = min(math.pi, abs(beta0 + rng.uniform(-0.05, 0.05)))
        x = math.cos(beta)
        assert abs(little_d(l, m1, m2, x) - mp_little_d(l, m1, m2, x)) <= 1e-12, \
            (l, m1, m2, beta)


def test_little_d_matches_binomial_sum_for_small_l():
    # l <= 8 is where the float sum itself is within 1e-13 of the exact value
    for x in (-1.0, -0.83, -0.2, 0.0, 0.41, 0.97, 1.0):
        beta = math.acos(x)
        for l in range(9):
            d = little_d_matrix(l, beta)
            for m1 in range(-l, l + 1):
                for m2 in range(-l, l + 1):
                    want = reference_little_d(l, m1, m2, x)
                    assert abs(little_d(l, m1, m2, x) - want) <= 1e-13
                    assert abs(d[m1 + l, m2 + l] - want) <= 1e-13


def test_little_d_matrix_over_an_array_of_beta():
    betas = np.array([0.0, 0.3, 1.7, math.pi])
    stacked = little_d_matrix(5, betas)
    assert stacked.shape == (4, 11, 11)
    for beta, d in zip(betas, stacked):
        assert np.array_equal(d, little_d_matrix(5, beta))


@pytest.mark.parametrize("l", [20, 40, 60, 80])
def test_wigner_D_matrix_unitary(l):
    d = wigner_D_matrix(l, EulerAngles(0.4, 1.1, 2.3))
    assert np.abs(d @ d.conj().T - np.eye(2 * l + 1)).max() <= 1e-12


def test_kernel_refuses_l_beyond_validated_range():
    little_d(LMAX_VALIDATED, 3, -7, 0.2)
    for call in (lambda: little_d(LMAX_VALIDATED + 1, 0, 0, 0.2),
                 lambda: little_d_matrix(LMAX_VALIDATED + 1, 0.2),
                 lambda: wigner_D_matrix(LMAX_VALIDATED + 1, EulerAngles(0, 0.2, 0))):
        with pytest.raises(ValueError, match=f"0 <= l <= {LMAX_VALIDATED}"):
            call()


def test_little_d_edge_values():
    # d^l at cos(beta) = 1 is the identity matrix
    for l in range(4):
        for m1 in range(-l, l + 1):
            for m2 in range(-l, l + 1):
                assert little_d(l, m1, m2, 1.0) == pytest.approx(
                    1.0 if m1 == m2 else 0.0)


def test_little_d_l1_explicit():
    # the 3-dimensional representation in closed form
    x = 0.37
    s = math.sqrt(1 - x * x)
    assert little_d(1, 0, 0, x) == pytest.approx(x)
    assert little_d(1, 1, 1, x) == pytest.approx((1 + x) / 2)
    assert little_d(1, -1, -1, x) == pytest.approx((1 + x) / 2)
    assert little_d(1, 1, -1, x) == pytest.approx((1 - x) / 2)
    assert little_d(1, 1, 0, x) == pytest.approx(s / math.sqrt(2))
    assert little_d(1, 0, 1, x) == pytest.approx(-s / math.sqrt(2))


def test_index_validation():
    with pytest.raises(ValueError):
        WignerIndex(1, 2, 0).validate()
    with pytest.raises(ValueError):
        little_d(2, 0, 0, 1.5)


@given(ANGLES, ANGLES)
@settings(max_examples=25, deadline=None)
def test_homomorphism(a1, a2):
    k12 = matrix_from_euler(a1) @ matrix_from_euler(a2)
    a12 = euler_from_matrix(k12)
    for l in (1, 2):
        lhs = wigner_D_matrix(l, a12)
        rhs = wigner_D_matrix(l, a1) @ wigner_D_matrix(l, a2)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_homomorphism_along_x_past_pi():
    # R_x(b1) R_x(b2) = R_x(b1 + b2) for every angle, not only for b in [0, pi]
    for l in (1, 2, 5):
        for b1, b2 in ((2.0, 2.0), (3.0, -1.2), (-0.7, 0.3)):
            lhs = wigner_D_matrix(l, EulerAngles(0.0, b1 + b2, 0.0))
            rhs = (wigner_D_matrix(l, EulerAngles(0.0, b1, 0.0))
                   @ wigner_D_matrix(l, EulerAngles(0.0, b2, 0.0)))
            assert np.abs(lhs - rhs).max() < 1e-12


def test_spin1_matches_defining_rep():
    # D^1 is equivalent to the rotation matrix itself; check via traces,
    # which are basis-independent
    ang = EulerAngles(0.7, 1.2, 2.9)
    assert np.trace(wigner_D_matrix(1, ang)) == pytest.approx(
        np.trace(matrix_from_euler(ang)), abs=1e-12)


@given(ANGLES)
@settings(max_examples=40, deadline=None)
def test_euler_round_trip(ang):
    k = matrix_from_euler(ang)
    ang2 = euler_from_matrix(k)
    assert np.abs(matrix_from_euler(ang2) - k).max() < 1e-10


def test_euler_gimbal_lock():
    for beta in (0.0, math.pi):
        k = matrix_from_euler(EulerAngles(0.9, beta, 0.4))
        a, b, g = euler_from_matrix(k)
        assert g == 0.0
        assert np.abs(matrix_from_euler(EulerAngles(a, b, g)) - k).max() < 1e-10


def test_euler_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        euler_from_matrix(np.diag([2.0, 1.0, 0.5]))


def _fd_right(i, idx, ang, h=1e-6):
    """Reference right derivative along the Y_i one-parameter subgroup."""
    from sl3rep.action import generator_matrix_numeric
    from sl3rep.oracle import expm

    x = generator_matrix_numeric(f"Y{i}").real
    k = matrix_from_euler(ang)
    fwd = wigner_D(idx, euler_from_matrix(k @ expm(h * x)))
    bwd = wigner_D(idx, euler_from_matrix(k @ expm(-h * x)))
    return (fwd - bwd) / (2 * h)


def _fd_left(i, idx, ang, h=1e-6):
    from sl3rep.action import generator_matrix_numeric
    from sl3rep.oracle import expm

    x = generator_matrix_numeric(f"Y{i}").real
    k = matrix_from_euler(ang)
    fwd = wigner_D(idx, euler_from_matrix(expm(h * x) @ k))
    bwd = wigner_D(idx, euler_from_matrix(expm(-h * x) @ k))
    return (fwd - bwd) / (2 * h)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_right_derivative_matches_fd(i):
    ang = EulerAngles(0.8, 1.1, 2.3)
    for idx in [WignerIndex(1, 0, 1), WignerIndex(2, 1, -1), WignerIndex(3, -2, 2)]:
        exact = eval_vector(right_derivative_Y(i, idx), ang)
        assert exact == pytest.approx(_fd_right(i, idx, ang), abs=1e-7)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_left_derivative_matches_fd(i):
    ang = EulerAngles(0.8, 1.1, 2.3)
    for idx in [WignerIndex(1, 0, 1), WignerIndex(2, 1, -1), WignerIndex(3, -2, 2)]:
        exact = eval_vector(left_derivative_Y(i, idx), ang)
        assert exact == pytest.approx(_fd_left(i, idx, ang), abs=1e-7)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(0, 60).flatmap(
    lambda l: st.tuples(st.just(l), st.integers(-l, l), st.integers(-l, l))))
def test_left_derivative_is_the_mirrored_table(i, lmm):
    # L(Y_i) D^l_{m1,m2} steps m1 as pi(Y_i) steps m2, with Y2 negated
    l, m1, m2 = lmm
    left = left_derivative_Y(i, WignerIndex(l, m1, m2))
    right = right_derivative_Y(i, WignerIndex(l, m2, m1))
    sign = -1 if i == 2 else 1
    assert left.terms == {WignerIndex(l, t.m2, t.m1): sign * c
                          for t, c in right.items()}


def test_y_derivatives_satisfy_so3_bracket():
    # [Y1, Y2] = -Y3 as matrices, so the derivative formulas must obey
    # [pi(Y1), pi(Y2)] = -pi(Y3) pointwise
    from sl3rep.ktvector import KTypeVector

    ang = EulerAngles(0.4, 0.9, 5.0)

    def apply(i, vec):
        out = KTypeVector()
        for jdx, c in vec.items():
            out = out + right_derivative_Y(i, jdx).scaled(c)
        return out

    for idx in [WignerIndex(2, 1, 0), WignerIndex(3, -1, 2)]:
        v = KTypeVector({idx: 1})
        lhs = apply(1, apply(2, v)) - apply(2, apply(1, v))
        rhs = apply(3, v).scaled(-1)
        assert eval_vector(lhs - rhs, ang) == pytest.approx(0, abs=1e-12)
