"""Tests for the sparse K-type vectors."""

from fractions import Fraction

import pytest

from sl3rep.ktvector import KTypeVector
from sl3rep.scalars import ONE


@pytest.mark.parametrize("c", [1, ONE, Fraction(1), 1.0, -3, 0])
def test_scaled_returns_a_new_vector(c):
    # a term added to the result never reaches the input, at c = 1 too
    v = KTypeVector({1: 2, 3: -1})
    out = v.scaled(c)
    assert out.terms == ({1: 2 * c, 3: -c} if c else {})
    out.add_term(1, 1)
    assert v.terms == {1: 2, 3: -1}
