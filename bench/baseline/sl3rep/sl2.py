"""SL(2,R) principal series ladder calculus and Bargmann reducibility.

Weight vectors v_l (l congruent to the parity epsilon mod 2) carry the
ladder action raise: v_l -> (2 nu + 1 + l) v_{l+2}, lower: v_l ->
(2 nu + 1 - l) v_{l-2}, weight: v_l -> i l v_l.  Reducibility is detected
purely from exact vanishing of ladder coefficients, the same mechanism the
rank-two structure reports use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .ktvector import KTypeVector

Nu = Union[int, Fraction, float, complex]


@dataclass(frozen=True)
class SL2Params:
    nu: Nu
    eps: int = 0

    def __post_init__(self):
        if self.eps not in (0, 1):
            raise ValueError("parity must be 0 or 1")

    @property
    def exact(self) -> bool:
        return isinstance(self.nu, (int, Fraction))


def _check_parity(params: SL2Params, v: KTypeVector) -> None:
    for l in v:
        if (l - params.eps) % 2:
            raise ValueError(f"weight {l} violates parity {params.eps}")


def _ladder_coeff(params: SL2Params, l: int, direction: int):
    # direction +1: raise, -1: lower
    c = 2 * params.nu + 1 + direction * l
    return c if params.exact else complex(c)


def raise_(params: SL2Params, v: KTypeVector) -> KTypeVector:
    _check_parity(params, v)
    out = KTypeVector()
    for l, c in v.items():
        out.add_term(l + 2, _ladder_coeff(params, l, +1) * c)
    return out


def lower(params: SL2Params, v: KTypeVector) -> KTypeVector:
    _check_parity(params, v)
    out = KTypeVector()
    for l, c in v.items():
        out.add_term(l - 2, _ladder_coeff(params, l, -1) * c)
    return out


def weight(params: SL2Params, v: KTypeVector) -> KTypeVector:
    _check_parity(params, v)
    out = KTypeVector()
    for l, c in v.items():
        out.add_term(l, 1j * l * c)
    return out


def basis_vector(l: int) -> KTypeVector:
    return KTypeVector({l: 1})


def sl2_standard_basis_action(params: SL2Params, generator: str,
                              v: KTypeVector) -> KTypeVector:
    """Action of E, H, F (upper, diagonal, lower nilpotent) on weight vectors."""
    _check_parity(params, v)
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
        elif generator == "F":
            out.add_term(l - 2, 1j * (l - 1 - 2 * nu) / 4 * c)
            out.add_term(l, 1j * l / 2 * c)
            out.add_term(l + 2, 1j * (l + 1 + 2 * nu) / 4 * c)
        else:
            raise ValueError("generator must be E, H, or F")
    return out


@dataclass
class SL2Report:
    params: SL2Params
    irreducible: bool
    kind: str  # "irreducible" | "finite-sub" | "discrete-sub"
    k: int | None = None
    sub_weights: str = ""
    quotient: str = ""
    finite_weights: list[int] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [f"nu = {self.params.nu}, eps = {self.params.eps}"]
        if self.irreducible:
            out.append("irreducible (no ladder coefficient vanishes)")
        else:
            out.append(f"reducible at k = {self.k}")
            out.append(f"invariant subspace: {self.sub_weights}")
            out.append(f"quotient: {self.quotient}")
        return out


def sl2_composition_report(params: SL2Params) -> SL2Report:
    """Sub/quotient structure read off from exact ladder-coefficient zeros.

    raise on v_l vanishes iff l = -(2 nu + 1); lower on v_l vanishes iff
    l = 2 nu + 1.  Zeros on the parity-allowed weight lattice are exactly
    the half-integral points nu = +-(k-1)/2 with k congruent to eps mod 2.
    """
    if not params.exact:
        nu = params.nu
        if isinstance(nu, complex) and nu.imag != 0:
            return SL2Report(params, True, "irreducible")
        nu = Fraction(nu.real if isinstance(nu, complex) else nu).limit_denominator(10 ** 6)
        if nu != (params.nu.real if isinstance(params.nu, complex) else params.nu):
            return SL2Report(params, True, "irreducible")
        params = SL2Params(nu, params.eps)
    nu = Fraction(params.nu)
    two_nu_plus_1 = 2 * nu + 1
    if two_nu_plus_1.denominator != 1 or (two_nu_plus_1.numerator - params.eps) % 2 != 0:
        # no weight on the parity lattice kills a ladder coefficient
        return SL2Report(params, True, "irreducible")
    b = two_nu_plus_1.numerator  # lower kills v_b, raise kills v_{-b}
    if b > 0:
        # nu = (k-1)/2 with k = b: the outward-closed halves
        # {..., -k-2, -k} and {k, k+2, ...} are invariant
        k = b
        return SL2Report(
            params, False, "discrete-sub", k=k,
            sub_weights=f"{{..., -{k + 2}, -{k}}} u {{{k}, {k + 2}, ...}}",
            quotient=f"({k - 1})-dimensional",
            finite_weights=list(range(2 - k, k - 1, 2)))
    # nu = -(k-1)/2 with k = 2 - b: finite block {2-k, ..., k-2}
    k = 2 - b
    return SL2Report(
        params, False, "finite-sub", k=k,
        sub_weights="{" + ", ".join(str(w) for w in range(2 - k, k - 1, 2)) + "}",
        quotient="discrete series pair",
        finite_weights=list(range(2 - k, k - 1, 2)))
