"""Finite linear combinations of indexed basis elements.

Coefficients may be complex numbers, RadicalScalar, LambdaForm, or any
other type supporting +, unary -, and either an ``is_zero()`` method or
comparison with 0.  Zero terms are pruned so the empty vector is the
canonical zero.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterator


def coeff_is_zero(c) -> bool:
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return c == 0


class KTypeVector:
    """Sparse vector keyed by hashable basis indices."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms: dict[Hashable, Any] = {}
        if terms:
            for idx, c in terms.items():
                if not coeff_is_zero(c):
                    self.terms[idx] = c

    def add_term(self, idx, coeff) -> None:
        acc = self.terms.get(idx)
        coeff = coeff if acc is None else acc + coeff
        if coeff_is_zero(coeff):
            self.terms.pop(idx, None)
        else:
            self.terms[idx] = coeff

    def __add__(self, other: "KTypeVector") -> "KTypeVector":
        out = KTypeVector()
        out.terms = dict(self.terms)
        for idx, c in other.terms.items():
            out.add_term(idx, c)
        return out

    def __sub__(self, other: "KTypeVector") -> "KTypeVector":
        return self + other.scaled(-1)

    def scaled(self, c) -> "KTypeVector":
        out = KTypeVector()
        out.terms = {idx: cv for idx, v in self.terms.items()
                     if not coeff_is_zero(cv := c * v)}
        return out

    def map_coeff(self, fn: Callable) -> "KTypeVector":
        out = KTypeVector()
        for idx, c in self.terms.items():
            out.add_term(idx, fn(c))
        return out

    def __getitem__(self, idx):
        return self.terms[idx]

    def get(self, idx, default=None):
        return self.terms.get(idx, default)

    def __contains__(self, idx):
        return idx in self.terms

    def __iter__(self) -> Iterator:
        return iter(self.terms)

    def items(self):
        return self.terms.items()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, KTypeVector):
            return NotImplemented
        diff = self - other
        return diff.is_zero()

    def __repr__(self):
        inner = " + ".join(f"({c!r})*{idx}" for idx, c in sorted(self.terms.items()))
        return f"KTypeVector({inner or '0'})"
