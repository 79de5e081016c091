"""Tests for exact radical arithmetic and spectral-parameter forms."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl3rep.scalars import I, ONE, ZERO, LambdaForm, RadicalScalar


def test_square_extraction_canonicalizes():
    assert RadicalScalar({8: 1}) == RadicalScalar({2: 2})
    assert RadicalScalar({12: Fraction(1, 2)}) == RadicalScalar({3: 1})
    assert RadicalScalar({9: 1}) == RadicalScalar.from_rational(3)


def test_sqrt_rational():
    r = RadicalScalar.sqrt_rational(Fraction(1, 10))
    assert r == RadicalScalar({10: Fraction(1, 10)})
    assert abs(float(r) - math.sqrt(0.1)) < 1e-15
    assert RadicalScalar.sqrt_rational(0).is_zero()
    with pytest.raises(ValueError):
        RadicalScalar.sqrt_rational(-1)


def test_mul_combines_radicands():
    s2 = RadicalScalar.sqrt_rational(2)
    s3 = RadicalScalar.sqrt_rational(3)
    s6 = RadicalScalar.sqrt_rational(6)
    assert s2 * s3 == s6
    assert s2 * s2 == RadicalScalar.from_rational(2)
    assert s6 * s2 == RadicalScalar({3: 2})  # sqrt(12) = 2 sqrt(3)


def test_inverse_and_division():
    r = RadicalScalar({10: Fraction(1, 10)})
    assert r * r.inverse() == ONE
    assert (r / r) == ONE
    with pytest.raises(ValueError):
        (ONE + RadicalScalar.sqrt_rational(2)).inverse()


def test_zero_semantics():
    assert (ONE - ONE).is_zero()
    assert not ONE.is_zero()
    assert bool(ZERO) is False
    assert ZERO + ONE == ONE


def test_as_rational():
    assert RadicalScalar.from_rational(Fraction(3, 7)).as_rational() == Fraction(3, 7)
    with pytest.raises(ValueError):
        RadicalScalar.sqrt_rational(2).as_rational()


def test_json_round_trip():
    r = RadicalScalar({1: Fraction(-2, 3), 10: Fraction(1, 10)})
    assert RadicalScalar.from_json(r.to_json()) == r


rationals = st.fractions(max_denominator=40)
radicands = st.integers(min_value=1, max_value=50)


@st.composite
def radical_scalars(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    return RadicalScalar({draw(radicands): draw(rationals) for _ in range(n)})


@given(radical_scalars(), radical_scalars(), radical_scalars())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert (a - a).is_zero()


@given(radical_scalars(), radical_scalars())
@settings(max_examples=60, deadline=None)
def test_float_consistency(a, b):
    assert float(a * b) == pytest.approx(float(a) * float(b), rel=1e-9, abs=1e-9)
    assert float(a + b) == pytest.approx(float(a) + float(b), rel=1e-9, abs=1e-9)


def test_lambda_form_canonical_equality():
    # forms differing by a multiple of l1 + l2 + l3 are equal
    f = LambdaForm(const=1, c1=ONE, c2=ONE, c3=ONE)
    g = LambdaForm(const=1)
    assert f == g
    assert (f - g).is_zero()


def test_lambda_form_eval():
    f = LambdaForm(const=1, c1=ONE, c2=-ONE)  # l1 - l2 + 1
    assert f.eval((0.5, -0.25, -0.25)) == pytest.approx(1.75)
    assert f.eval_exact((Fraction(1, 2), Fraction(-1, 4), Fraction(-1, 4))) \
        == RadicalScalar.from_rational(Fraction(7, 4))
    with pytest.raises(ValueError):
        f.eval((1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        f.eval((math.nan, 0.0, 0.0))
    with pytest.raises(ValueError):
        f.eval_exact((1, 1, 1))


def test_lambda_form_scalar_mul():
    f = LambdaForm(const=2, c1=ONE)
    s = RadicalScalar.sqrt_rational(2)
    g = f * s
    assert g.eval_exact((1, 0, -1)) == s * 3


# ---------------------------------------------------------------------------
# signed radicands: sqrt(n) = i * sqrt(-n) for n < 0


def test_imaginary_unit():
    assert I * I == -ONE
    assert I == RadicalScalar.from_json({"terms": [[-1, "1/1"]]})
    assert RadicalScalar({-4: 1}) == 2 * I  # sqrt(-4) = 2i
    assert RadicalScalar({-8: 1}) == RadicalScalar({-2: 2})
    assert RadicalScalar.sqrt_rational(2) * I == RadicalScalar({-2: 1})
    assert RadicalScalar({-2: 1}) * RadicalScalar({-3: 1}) \
        == -RadicalScalar.sqrt_rational(6)
    assert RadicalScalar({-2: 1}) * RadicalScalar({-2: 1}) == -2
    assert I.inverse() == -I
    assert complex(I) == 1j
    assert complex(3 + RadicalScalar({-2: 1})) == pytest.approx(3 + 1j * math.sqrt(2))
    with pytest.raises(ValueError, match="not real"):
        float(I)
    with pytest.raises(ValueError):
        RadicalScalar({0: 1})


signed_radicands = st.integers(min_value=1, max_value=50).flatmap(
    lambda n: st.sampled_from((n, -n)))


@st.composite
def gaussian_scalars(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    return RadicalScalar({draw(signed_radicands): draw(rationals) for _ in range(n)})


def close(z: complex, w: complex) -> bool:
    return abs(z - w) <= 1e-9 * max(1.0, abs(z), abs(w))


@given(gaussian_scalars(), gaussian_scalars(), gaussian_scalars())
@settings(max_examples=150, deadline=None)
def test_signed_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a and (a - a).is_zero()
    assert (I * a) * I == -a
    assert close(complex(a * b), complex(a) * complex(b))
    assert close(complex(a + b), complex(a) + complex(b))


@given(gaussian_scalars())
@settings(max_examples=80, deadline=None)
def test_float_only_of_real_values(a):
    if any(n < 0 for n in a.terms):
        with pytest.raises(ValueError, match="not real"):
            float(a)
    else:
        assert float(a) == complex(a).real and complex(a).imag == 0


def test_lambda_form_with_gaussian_coefficients():
    f = LambdaForm(const=I, c1=ONE)  # l1 + i
    assert f.eval((0.5, -0.25, -0.25)) == pytest.approx(0.5 + 1j)
    assert f.eval_exact((1, 0, -1)) == 1 + I
    assert (f * I).eval_exact((1, 0, -1)) == I - 1


def test_square_extraction_cache_is_bounded():
    from sl3rep.scalars import _square_extract

    assert _square_extract.cache_info().maxsize == 1 << 16


@given(gaussian_scalars(), st.one_of(
    st.floats(-1e6, 1e6),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)))
@settings(max_examples=150, deadline=None)
@example(I * RadicalScalar.sqrt_rational(3) + Fraction(1, 2), 0.25)
@example(I * RadicalScalar.sqrt_rational(3) + Fraction(1, 2), -1.5 + 2j)
def test_times_float_or_complex_is_complex(r, x):
    # as a Fraction times a float is a float: complex(r) * x, in both orders
    want = complex(r) * x
    for got in (r * x, x * r):
        assert type(got) is complex and got == want
