"""Independent numerical verification of the exact engine.

Three oracles, sharing no coefficient code with the exact modules:

* SO(3) quadrature (Gauss-Legendre in cos(beta), uniform in alpha and
  gamma) for orthogonality and product-rule integrals;
* finite-difference Lie derivatives of the Iwasawa extension along
  one-parameter subgroups, with complex generators split into two real
  directions;
* the coordinate differential-operator table on upper-triangular
  representatives, checked against the same finite differences.

A 2x2 specialization provides the analogous checks for SL(2,R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .series import GroupElement, extend_wigner
from .wigner import EulerAngles, WignerIndex, little_d

# ---------------------------------------------------------------------------
# Quadrature on SO(3)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes exact for products of Wigner functions up to the design degree."""

    design_degree: int
    beta_nodes: np.ndarray
    beta_weights: np.ndarray
    n_alpha: int
    n_gamma: int

    @classmethod
    def for_degree(cls, lmax: int) -> "QuadratureRule":
        if lmax < 0:
            raise ValueError("design degree must be nonnegative")
        x, w = np.polynomial.legendre.leggauss(2 * lmax + 4)
        return cls(lmax, x, w, 4 * lmax + 4, 4 * lmax + 4)

    def angle_nodes(self):
        alphas = 2 * np.pi * np.arange(self.n_alpha) / self.n_alpha
        gammas = 2 * np.pi * np.arange(self.n_gamma) / self.n_gamma
        return alphas, gammas


def integrate_K(f, rule: QuadratureRule) -> complex:
    """Haar integral over SO(3), normalized to total mass 1."""
    alphas, gammas = rule.angle_nodes()
    total = 0.0 + 0.0j
    for xq, wq in zip(rule.beta_nodes, rule.beta_weights):
        beta = math.acos(float(xq))
        s = sum(f(EulerAngles(a, beta, g)) for a in alphas for g in gammas)
        total += wq * s
    return total / (2 * rule.n_alpha * rule.n_gamma)


def _node_values(indices, rule: QuadratureRule) -> np.ndarray:
    """Matrix of Wigner-function values, one row per index, over all nodes."""
    alphas, gammas = rule.angle_nodes()
    x = rule.beta_nodes
    rows = []
    for l, m1, m2 in indices:
        d = np.array([little_d(l, m1, m2, float(xq)) for xq in x])
        ea = np.exp(1j * m1 * alphas)
        eg = np.exp(1j * m2 * gammas)
        rows.append(np.einsum("a,b,g->abg", ea, d, eg).ravel())
    return np.array(rows)


def _node_weights(rule: QuadratureRule) -> np.ndarray:
    """Flattened weights matching the (alpha, beta, gamma) node ordering."""
    w3 = (np.ones(rule.n_alpha)[:, None, None]
          * rule.beta_weights[None, :, None]
          * np.ones(rule.n_gamma)[None, None, :])
    return w3.ravel() / (2 * rule.n_alpha * rule.n_gamma)


def orthogonality_report(lmax: int) -> dict:
    """Pairwise inner products of every Wigner function up to lmax.

    Returns the max deviation from delta / (2l+1) over all pairs.
    """
    rule = QuadratureRule.for_degree(lmax)
    indices = [WignerIndex(l, m1, m2)
               for l in range(lmax + 1)
               for m1 in range(-l, l + 1)
               for m2 in range(-l, l + 1)]
    vals = _node_values(indices, rule)
    gram = (vals * _node_weights(rule)) @ vals.conj().T
    expected = np.zeros_like(gram)
    for i, idx in enumerate(indices):
        expected[i, i] = 1.0 / (2 * idx.l + 1)
    dev = np.abs(gram - expected)
    return {"lmax": lmax, "count": len(indices),
            "max_deviation": float(dev.max()),
            "pairs": len(indices) ** 2}


def product_integral(idx2: WignerIndex, idx: WignerIndex,
                     target: WignerIndex, rule: QuadratureRule) -> complex:
    """Quadrature value of the triple product D^2 * D^l * conj(D^target)."""
    vals = _node_values([idx2, idx, target], rule)
    prod = vals[0] * vals[1] * vals[2].conj()
    return complex((prod * _node_weights(rule)).sum())


# ---------------------------------------------------------------------------
# Finite-difference Lie derivatives on SL(3,R)


def _fd_elements(g: GroupElement, x: np.ndarray, h: float):
    """(GroupElement, weight) pairs realizing the central difference along x."""
    fwd = GroupElement(g.g @ expm(h * x))
    bwd = GroupElement(g.g @ expm(-h * x))
    return [(fwd, 1.0 / (2 * h)), (bwd, -1.0 / (2 * h))]


def fd_sample_points(x, h: float):
    """Evaluation plan for the derivative along a possibly-complex generator.

    Complex generators are split into real and imaginary parts, each
    differentiated along its own real one-parameter subgroup.
    """
    if not 1e-6 <= h <= 1e-3:
        raise ValueError("step must lie in [1e-6, 1e-3]")
    x = np.asarray(x, dtype=complex)
    plans = []
    xr, xi = x.real, x.imag
    if np.abs(xr).max() > 0:
        plans.append((xr, 1.0))
    if np.abs(xi).max() > 0:
        plans.append((xi, 1.0j))
    return plans


def fd_lie_derivative(lam, idx: WignerIndex, x, g: GroupElement,
                      h: float = 1e-4) -> complex:
    """Central-difference Lie derivative of the extended Wigner function."""
    total = 0.0 + 0.0j
    for xr, unit in fd_sample_points(x, h):
        for elem, weight in _fd_elements(g, xr, h):
            total += unit * weight * extend_wigner(lam, idx, elem)
    return total


def fd_lie_derivative_many(lam, indices, x, g: GroupElement,
                           h: float = 1e-4) -> list[complex]:
    """Derivatives of many Wigner indices sharing the Iwasawa work."""
    plan = [(elem, unit * weight)
            for xr, unit in fd_sample_points(x, h)
            for elem, weight in _fd_elements(g, xr, h)]
    return [sum(w * extend_wigner(lam, idx, elem) for elem, w in plan)
            for idx in indices]


def sample_group_point(rng) -> GroupElement:
    """A well-conditioned random group element in n-a-k coordinates."""
    x = rng.uniform(-1.0, 1.0, size=3)
    y = rng.uniform(0.5, 2.0, size=2)
    angles = EulerAngles(rng.uniform(0, 2 * math.pi),
                         rng.uniform(0.1, math.pi - 0.1),
                         rng.uniform(0, 2 * math.pi))
    return GroupElement.from_nak(x, y, angles)


def verify_theorem_main(lam, lmax: int, samples: int = 5,
                        seed: int = 0, h: float = 1e-4) -> dict:
    """Compare the five-term expansion against finite differences.

    For each generator Z_n, every Wigner index with l <= lmax, and each
    sampled group point, the exact-engine expansion (evaluated through the
    Iwasawa extension) is compared with the finite-difference derivative.
    """
    from .action import act_Z, generator_matrix_numeric

    rng = np.random.default_rng(seed)
    lam = tuple(complex(v) for v in lam)
    indices = [WignerIndex(l, m1, m2)
               for l in range(lmax + 1)
               for m1 in range(-l, l + 1)
               for m2 in range(-l, l + 1)]
    expansions = {(n, idx): act_Z(n, idx, lam)
                  for n in range(-2, 3) for idx in indices}
    max_dev = 0.0
    worst = None
    for _ in range(samples):
        g = sample_group_point(rng)
        ext_cache: dict[WignerIndex, complex] = {}

        def ext(target):
            if target not in ext_cache:
                ext_cache[target] = extend_wigner(lam, target, g)
            return ext_cache[target]

        for n in range(-2, 3):
            xmat = generator_matrix_numeric(f"Z{n}" if n >= 0 else f"Z-{-n}")
            fd = fd_lie_derivative_many(lam, indices, xmat, g, h)
            for idx, fd_val in zip(indices, fd):
                rhs = sum(c * ext(t) for t, c in expansions[(n, idx)].items())
                dev = abs(fd_val - rhs)
                if dev > max_dev:
                    max_dev = dev
                    worst = (n, tuple(idx))
            ext_cache.clear()
    return {"lambda": [[v.real, v.imag] for v in lam], "lmax": lmax,
            "samples": samples, "seed": seed, "step": h,
            "max_deviation": max_dev, "worst": worst}


# ---------------------------------------------------------------------------
# Coordinate differential operators (upper-triangular representatives)


def _coord_element(x1, x2, x3, y1, y2) -> GroupElement:
    return GroupElement.from_nak((x1, x2, x3), (y1, y2),
                                 EulerAngles(0.0, 0.0, 0.0))


def _coord_partial(F, point, var: int, h: float) -> complex:
    p_fwd = list(point)
    p_bwd = list(point)
    p_fwd[var] += h
    p_bwd[var] -= h
    return (F(*p_fwd) - F(*p_bwd)) / (2 * h)


COORD_TABLE_TAGS = ("Y1", "H1", "H2", "X1", "X2", "X3", "Z-2", "Z0", "Z2")


def _coord_operator(tag: str, F, point, m2: int, h: float) -> complex:
    x1, x2, x3, y1, y2 = point
    d = lambda var: _coord_partial(F, point, var, h)
    if tag == "Y1":
        return 1j * m2 * F(*point)
    if tag == "H1":
        return 2 * y1 * d(3) - y2 * d(4)
    if tag == "H2":
        return -y1 * d(3) + 2 * y2 * d(4)
    if tag == "X1":
        return y1 * d(0)
    if tag == "X2":
        return y2 * d(1) + x1 * y2 * d(2)
    if tag == "X3":
        return y1 * y2 * d(2)
    if tag == "Z-2":
        return -m2 * F(*point) + 2j * y1 * d(0) + 2 * y1 * d(3) - y2 * d(4)
    if tag == "Z0":
        return math.sqrt(6) * y2 * d(4)
    if tag == "Z2":
        return m2 * F(*point) - 2j * y1 * d(0) + 2 * y1 * d(3) - y2 * d(4)
    raise ValueError(f"no coordinate operator for {tag}")


def coordinate_diffops_check(lam, idx: WignerIndex, point,
                             h: float = 1e-4) -> dict:
    """Compare every table row against the group-side finite difference."""
    from .action import generator_matrix_numeric

    lam = tuple(complex(v) for v in lam)
    idx = WignerIndex(*idx)

    def F(x1, x2, x3, y1, y2):
        return extend_wigner(lam, idx, _coord_element(x1, x2, x3, y1, y2))

    g = _coord_element(*point)
    rows = {}
    for tag in COORD_TABLE_TAGS:
        coord = _coord_operator(tag, F, tuple(point), idx.m2, h)
        group = fd_lie_derivative(lam, idx, generator_matrix_numeric(tag), g, h)
        rows[tag] = abs(coord - group)
    return {"index": tuple(idx), "point": list(point),
            "rows": rows, "max_deviation": max(rows.values())}


# ---------------------------------------------------------------------------
# SL(2,R) specialization


def sl2_iwasawa(g: np.ndarray):
    """(x, y, theta) coordinates of a det-1 2x2 matrix."""
    g = np.asarray(g, dtype=float)
    if abs(np.linalg.det(g) - 1.0) > 1e-10:
        raise ValueError("determinant must be 1")
    c, d = g[1]
    r = math.hypot(c, d)
    if r < 1e-12:
        raise ValueError("degenerate bottom row")
    a_val = 1.0 / r
    theta = math.atan2(c / r, d / r)
    # n a = g k^{-1}
    k = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    na = g @ k.T
    x = na[0, 1] / na[1, 1]
    y = a_val * a_val
    return x, y, theta


def sl2_extend(nu: complex, l: int, g: np.ndarray) -> complex:
    """a^(1+2nu) e^(i l theta) through the 2x2 Iwasawa factorization."""
    x, y, theta = sl2_iwasawa(g)
    a_val = math.sqrt(y)
    return complex(a_val) ** (1 + 2 * complex(nu)) * np.exp(1j * l * theta)


def sl2_fd_derivative(nu, l: int, x, g: np.ndarray, h: float = 1e-4,
                      richardson: bool = True) -> complex:
    """Central difference, refined to O(h^4) by Richardson extrapolation."""
    x = np.asarray(x, dtype=complex)

    def central(step: float) -> complex:
        total = 0.0 + 0.0j
        for xr, unit in ([(x.real, 1.0)] if np.abs(x.imag).max() == 0
                         else [(x.real, 1.0), (x.imag, 1.0j)]):
            fwd = sl2_extend(nu, l, g @ expm(step * xr))
            bwd = sl2_extend(nu, l, g @ expm(-step * xr))
            total += unit * (fwd - bwd) / (2 * step)
        return total

    if not richardson:
        return central(h)
    return (4 * central(h / 2) - central(h)) / 3


SL2_RAISE = np.array([[1, -1j], [-1j, -1]])
SL2_LOWER = np.array([[1, 1j], [1j, -1]])
SL2_WEIGHT = np.array([[0.0, -1.0], [1.0, 0.0]])


def sl2_ladder_check(nu, l: int, g: np.ndarray, h: float = 1e-4) -> dict:
    """Ladder coefficients (2nu+1+-l) and the weight il from the oracle."""
    nu = complex(nu)
    devs = {
        "raise": abs(sl2_fd_derivative(nu, l, SL2_RAISE, g, h)
                     - (2 * nu + 1 + l) * sl2_extend(nu, l + 2, g)),
        "lower": abs(sl2_fd_derivative(nu, l, SL2_LOWER, g, h)
                     - (2 * nu + 1 - l) * sl2_extend(nu, l - 2, g)),
        "weight": abs(sl2_fd_derivative(nu, l, SL2_WEIGHT, g, h)
                      - 1j * l * sl2_extend(nu, l, g)),
    }
    return {"nu": [nu.real, nu.imag], "l": l, "rows": devs,
            "max_deviation": max(devs.values())}


def sl2_maass_check(nu, l: int, x: float, y: float, h: float = 1e-4) -> dict:
    """Maass operators +-2iy d/dx + 2y d/dy +- l against the group side."""
    nu = complex(nu)

    def F(xx, yy):
        n = np.array([[1.0, xx], [0.0, 1.0]])
        a = np.diag([math.sqrt(yy), 1.0 / math.sqrt(yy)])
        return sl2_extend(nu, l, n @ a)

    g = np.array([[1.0, x], [0.0, 1.0]]) @ np.diag(
        [math.sqrt(y), 1.0 / math.sqrt(y)])
    dx = (F(x + h, y) - F(x - h, y)) / (2 * h)
    dy = (F(x, y + h) - F(x, y - h)) / (2 * h)
    devs = {
        "raise": abs((2j * y * dx + 2 * y * dy + l * F(x, y))
                     - sl2_fd_derivative(nu, l, SL2_RAISE, g, h)),
        "lower": abs((-2j * y * dx + 2 * y * dy - l * F(x, y))
                     - sl2_fd_derivative(nu, l, SL2_LOWER, g, h)),
    }
    return {"nu": [nu.real, nu.imag], "l": l, "rows": devs,
            "max_deviation": max(devs.values())}
