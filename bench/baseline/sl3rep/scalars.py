"""Exact arithmetic over Q extended by square roots of squarefree integers.

Values are finite sums sum_n q_n * sqrt(n) with rational q_n and squarefree
n >= 1.  This is exactly the coefficient field produced by the coupling
coefficients and ladder normalizations used elsewhere in the package, so
zero tests (the basis of invariant-subspace detection) are exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction]


@lru_cache(maxsize=None)
def _square_extract(n: int) -> tuple[int, int]:
    """Write n = s^2 * f with f squarefree; return (s, f).  Requires n >= 1."""
    if n <= 0:
        raise ValueError("square extraction needs a positive integer")
    s = 1
    f = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    f *= n  # leftover prime factor, exponent 1
    return s, f


class RadicalScalar:
    """Canonical sum of rational multiples of square roots of squarefree ints.

    Instances are immutable; ``terms`` maps squarefree n >= 1 to a nonzero
    Fraction.  The rational part is stored under key 1.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[int, RationalLike] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for n, c in terms.items():
                c = Fraction(c)
                if c:
                    s, f = _square_extract(n)
                    c *= s
                    acc = clean.get(f)
                    c = c if acc is None else acc + c
                    if c:
                        clean[f] = c
                    elif f in clean:
                        del clean[f]
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, q: RationalLike) -> "RadicalScalar":
        return cls({1: Fraction(q)})

    @classmethod
    def sqrt_rational(cls, q: RationalLike) -> "RadicalScalar":
        """Exact square root of a nonnegative rational, e.g. sqrt(1/10) = (1/10)*sqrt(10)."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("sqrt of a negative rational is not representable")
        if q == 0:
            return cls()
        # sqrt(p/r) = sqrt(p*r)/r
        s, f = _square_extract(q.numerator * q.denominator)
        return cls({f: Fraction(s, q.denominator)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(n == 1 for n in self.terms)

    def as_rational(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"{self!r} is irrational")
        return self.terms[1]

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        merged = dict(self.terms)
        for n, c in other.terms.items():
            acc = merged.get(n)
            c = c if acc is None else acc + c
            if c:
                merged[n] = c
            elif n in merged:
                del merged[n]
        out = RadicalScalar.__new__(RadicalScalar)
        out.terms = merged
        out._hash = None
        return out

    __radd__ = __add__

    def __neg__(self):
        out = RadicalScalar.__new__(RadicalScalar)
        out.terms = {n: -c for n, c in self.terms.items()}
        out._hash = None
        return out

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return _ZERO
            q = Fraction(other)
            out = RadicalScalar.__new__(RadicalScalar)
            out.terms = {n: c * q for n, c in self.terms.items()}
            out._hash = None
            return out
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        if not self.terms or not other.terms:
            return _ZERO
        merged: dict[int, Fraction] = {}
        from math import gcd

        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                if a == b:
                    n, c = 1, ca * cb * a
                else:
                    g = gcd(a, b)
                    n = (a // g) * (b // g)  # squarefree since a, b are
                    c = ca * cb * g
                acc = merged.get(n)
                c = c if acc is None else acc + c
                if c:
                    merged[n] = c
                elif n in merged:
                    del merged[n]
        out = RadicalScalar.__new__(RadicalScalar)
        out.terms = merged
        out._hash = None
        return out

    __rmul__ = __mul__

    def inverse(self) -> "RadicalScalar":
        """Exact inverse, defined for single-term values q*sqrt(n) only."""
        if len(self.terms) != 1:
            raise ValueError("inverse is only supported for single-term values")
        (n, q), = self.terms.items()
        return RadicalScalar({n: Fraction(1, 1) / (q * n)})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, RadicalScalar):
            return self * other.inverse()
        return NotImplemented

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items())))
        return self._hash

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        from math import sqrt

        return sum((float(c) * sqrt(n) for n, c in self.terms.items()), 0.0)

    def to_json(self) -> dict:
        return {"terms": [[n, f"{c.numerator}/{c.denominator}"]
                          for n, c in sorted(self.terms.items())]}

    @classmethod
    def from_json(cls, data: dict) -> "RadicalScalar":
        return cls({int(n): Fraction(c) for n, c in data["terms"]})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for n, c in sorted(self.terms.items()):
            if n == 1:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"sqrt({n})")
            else:
                parts.append(f"{c}*sqrt({n})")
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(x) -> "RadicalScalar":
    if isinstance(x, RadicalScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return RadicalScalar.from_rational(x)
    return NotImplemented


_ZERO = RadicalScalar()
ZERO = _ZERO
ONE = RadicalScalar.from_rational(1)


class LambdaForm:
    """Degree-<=1 polynomial a*l1 + b*l2 + c*l3 + d with RadicalScalar coefficients.

    Evaluation is only defined on triples summing to zero, so equality is
    decided on the canonical two-parameter form obtained by substituting
    l3 = -l1 - l2.
    """

    __slots__ = ("const", "c1", "c2", "c3")

    def __init__(self, const=_ZERO, c1=_ZERO, c2=_ZERO, c3=_ZERO):
        self.const = _as_radical(const)
        self.c1 = _as_radical(c1)
        self.c2 = _as_radical(c2)
        self.c3 = _as_radical(c3)

    @classmethod
    def constant(cls, c) -> "LambdaForm":
        return cls(const=_as_radical(c))

    def canonical(self) -> tuple[RadicalScalar, RadicalScalar, RadicalScalar]:
        return (self.const, self.c1 - self.c3, self.c2 - self.c3)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.canonical())

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, LambdaForm):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __add__(self, other):
        if isinstance(other, LambdaForm):
            return LambdaForm(self.const + other.const, self.c1 + other.c1,
                              self.c2 + other.c2, self.c3 + other.c3)
        if isinstance(other, (int, Fraction, RadicalScalar)):
            return LambdaForm(self.const + _as_radical(other), self.c1, self.c2, self.c3)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return LambdaForm(-self.const, -self.c1, -self.c2, -self.c3)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Scalar multiplication only; forms stay degree <= 1."""
        if isinstance(other, (int, Fraction, RadicalScalar)):
            s = _as_radical(other)
            return LambdaForm(self.const * s, self.c1 * s, self.c2 * s, self.c3 * s)
        return NotImplemented

    __rmul__ = __mul__

    def eval(self, lam: Iterable[complex]) -> complex:
        """Numeric evaluation at a complex triple with l1+l2+l3 = 0."""
        l1, l2, l3 = (complex(x) for x in lam)
        if abs(l1 + l2 + l3) > 1e-12:
            raise ValueError("spectral parameter must sum to zero")
        return (float(self.const) + float(self.c1) * l1
                + float(self.c2) * l2 + float(self.c3) * l3)

    def eval_exact(self, lam: Iterable[RationalLike]) -> RadicalScalar:
        """Exact evaluation at a rational triple with l1+l2+l3 = 0."""
        l1, l2, l3 = (Fraction(x) for x in lam)
        if l1 + l2 + l3 != 0:
            raise ValueError("spectral parameter must sum to zero")
        return self.const + self.c1 * l1 + self.c2 * l2 + self.c3 * l3

    def __repr__(self):
        return (f"LambdaForm({self.const!r} + ({self.c1!r})*l1 "
                f"+ ({self.c2!r})*l2 + ({self.c3!r})*l3)")


def _as_radical(x) -> RadicalScalar:
    r = _coerce(x)
    if r is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a RadicalScalar")
    return r
