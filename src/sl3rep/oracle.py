"""Independent numerical verification of the exact engine.

Three oracles, sharing no coefficient code with the exact modules:

* SO(3) quadrature (Gauss-Legendre in cos(beta), uniform in alpha and
  gamma) for orthogonality and product-rule integrals;
* finite-difference Lie derivatives of the Iwasawa extension along
  one-parameter subgroups, with complex generators split into two real
  directions;
* the coordinate differential-operator table on upper-triangular
  representatives, checked against the same finite differences.

The 2x2 checks for SL(2,R) reuse `series.iwasawa` and the same
central-difference plan.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .kernel import act_Z, generator_matrix_numeric
from .series import GroupElement, character, extend_wigner, iwasawa
from .wigner import EulerAngles, WignerIndex, little_d_matrix, wigner_D_matrix

# ---------------------------------------------------------------------------
# Quadrature on SO(3)


class QuadratureRule(NamedTuple):
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


def _node_values(indices, rule: QuadratureRule) -> np.ndarray:
    """Matrix of Wigner-function values, one row per index, over all nodes."""
    alphas, gammas = rule.angle_nodes()
    betas = np.arccos(rule.beta_nodes)
    return np.array([np.einsum("a,b,g->abg", np.exp(1j * m1 * alphas),
                               little_d_matrix(l, betas)[:, m1 + l, m2 + l],
                               np.exp(1j * m2 * gammas)).ravel()
                     for l, m1, m2 in indices])


def _node_weights(rule: QuadratureRule) -> np.ndarray:
    """Flattened weights matching the (alpha, beta, gamma) node ordering."""
    w3 = (np.ones(rule.n_alpha)[:, None, None]
          * rule.beta_weights[None, :, None]
          * np.ones(rule.n_gamma)[None, None, :])
    return w3.ravel() / (2 * rule.n_alpha * rule.n_gamma)


GRAM_BLOCK_MAX_ENTRIES = 1 << 22


def _gram_blocks(lmax: int):
    """Yield ((l, l'), block) of the quadrature Gram matrix, rows (m1, m2) and
    columns (m1', m2') as in `_node_values`.  On the product grid an entry is
    A[m1 - m1'] B G[m2 - m2']: A and G the means of e^{ik alpha}, e^{ik gamma}
    over their nodes, B half the weighted beta sum of the two d-values."""
    rule = QuadratureRule.for_degree(lmax)
    shifts = np.arange(-2 * lmax, 2 * lmax + 1)
    a_mean, g_mean = (np.exp(1j * np.multiply.outer(shifts, t)).mean(axis=1)
                      for t in rule.angle_nodes())
    d = [little_d_matrix(l, np.arccos(rule.beta_nodes)) for l in range(lmax + 1)]
    for l in range(lmax + 1):
        weighted = 0.5 * rule.beta_weights[:, None, None] * d[l]
        for lp in range(lmax + 1):
            diff = np.subtract.outer(np.arange(-l, l + 1),
                                     np.arange(-lp, lp + 1)) + 2 * lmax
            block = (a_mean[diff][:, None, :, None]
                     * np.tensordot(weighted, d[lp], axes=(0, 0))
                     * g_mean[diff][None, :, None, :])
            yield (l, lp), block.reshape((2 * l + 1) ** 2, (2 * lp + 1) ** 2)


def orthogonality_report(lmax: int) -> dict:
    """The max deviation of the inner products of every pair of Wigner
    functions up to lmax from delta / (2l+1).  lmax > 22 raises ValueError:
    the largest (l, l') block, (2 lmax + 1)^4 complex entries, would exceed
    GRAM_BLOCK_MAX_ENTRIES = 2^22."""
    if (2 * lmax + 1) ** 4 > GRAM_BLOCK_MAX_ENTRIES:
        raise ValueError(f"lmax = {lmax} needs a Gram block of more than "
                         f"{GRAM_BLOCK_MAX_ENTRIES} entries; lmax <= 22 is accepted")
    max_dev = 0.0
    for (l, lp), block in _gram_blocks(lmax):
        if l == lp:
            block = block - np.eye(len(block)) / (2 * l + 1)
        max_dev = max(max_dev, float(np.abs(block).max()))
    count = sum((2 * l + 1) ** 2 for l in range(lmax + 1))
    return {"lmax": lmax, "count": count, "max_deviation": max_dev,
            "pairs": count ** 2}


def product_integral(idx2: WignerIndex, idx: WignerIndex,
                     target: WignerIndex, rule: QuadratureRule) -> complex:
    """Quadrature value of the triple product D^2 * D^l * conj(D^target)."""
    vals = _node_values([idx2, idx, target], rule)
    prod = vals[0] * vals[1] * vals[2].conj()
    return complex((prod * _node_weights(rule)).sum())


# ---------------------------------------------------------------------------
# Finite-difference Lie derivatives on SL(3,R)


def expm(x) -> np.ndarray:
    """exp(x) of a small square matrix: the Taylor series of a = x / 2^s, 2^s
    the least power bringing the 1-norm to 1/2 or below, summed until a term
    no longer changes the sum, then squared s times."""
    x = np.asarray(x)
    norm = float(np.abs(x).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ValueError("matrix exponential of a non-finite matrix")
    s = max(0, math.ceil(math.log2(2 * norm))) if norm else 0
    a, term = x / 2.0 ** s, np.eye(len(x))
    out = term
    for k in range(1, 40):
        term = term @ a / k
        if np.array_equal(out + term, out):
            break
        out = out + term
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        for _ in range(s):
            out = out @ out
    if not np.isfinite(out).all():
        raise ValueError(f"matrix exponential overflows at 1-norm {norm:g}")
    return out


def _fd_plan(g: np.ndarray, x, h: float) -> list:
    """The points g exp(+-h X) of the central difference along X, with their
    weights, for g of either rank.  A complex X is split into its real and
    imaginary parts, each differentiated along its own real subgroup."""
    if not 1e-6 <= h <= 1e-3:
        raise ValueError("step must lie in [1e-6, 1e-3]")
    x = np.asarray(x, dtype=complex)
    return [(g @ expm(sign * h * part), unit * (sign / (2 * h)))
            for part, unit in ((x.real, 1.0), (x.imag, 1.0j))
            if np.abs(part).max() > 0 for sign in (1.0, -1.0)]


def fd_lie_derivative(lam, idx: WignerIndex, x, g: GroupElement,
                      h: float = 1e-4) -> complex:
    """Central-difference Lie derivative of the extended Wigner function."""
    return fd_lie_derivative_many(lam, [idx], x, g, h)[0]


def fd_lie_derivative_many(lam, indices, x, g: GroupElement,
                           h: float = 1e-4) -> list[complex]:
    """Derivatives of many Wigner indices sharing the Iwasawa work: for each
    K-type l among the indices, the weighted sum over the difference points
    of chi(point) D^l(point), one D-matrix per point, read at every index."""
    indices = [WignerIndex(*idx).validate() for idx in indices]
    plan = [(GroupElement(p), w) for p, w in _fd_plan(g.g, x, h)]
    weighted = [(elem.angles, w * character(lam, elem.diag)) for elem, w in plan]
    sums = {l: sum((c * wigner_D_matrix(l, angles) for angles, c in weighted),
                   np.zeros((2 * l + 1, 2 * l + 1)))
            for l in {idx.l for idx in indices}}
    return [sums[l][m1 + l, m2 + l] for l, m1, m2 in indices]


def sample_group_point(rng) -> GroupElement:
    """A well-conditioned random group element in n-a-k coordinates."""
    x = rng.uniform(-1.0, 1.0, size=3)
    y = rng.uniform(0.5, 2.0, size=2)
    angles = EulerAngles(rng.uniform(0, 2 * math.pi),
                         rng.uniform(0.1, math.pi - 0.1),
                         rng.uniform(0, 2 * math.pi))
    return GroupElement.from_nak(x, y, angles)


def verify_theorem_main(lam, lmax: int, samples: int = 5,
                        seed: int = 0, h: float = 2e-5) -> dict:
    """Compare the five-term expansion against finite differences.

    For each generator Z_n, every Wigner index with l <= lmax, and each
    sampled point g, the exact-engine expansion, read from chi(g) D^l(g) built
    once per l <= lmax + 2, is compared with `fd_lie_derivative_many`.
    The default step h = 2e-5 keeps the O(h^2) error of the central
    differences below the CLI's 1e-6 tolerance for |Re|, |Im| <= 1; where it
    does not (large lam), `sl3rep verify` reruns at h / 2 and exits 2.
    """
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
        chi = character(lam, g.diag)
        ext = [chi * wigner_D_matrix(l, g.angles) for l in range(lmax + 3)]
        for n in range(-2, 3):
            xmat = generator_matrix_numeric(f"Z{n}" if n >= 0 else f"Z-{-n}")
            fd = fd_lie_derivative_many(lam, indices, xmat, g, h)
            for idx, fd_val in zip(indices, fd):
                rhs = sum(c * ext[l][m1 + l, m2 + l]
                          for (l, m1, m2), c in expansions[(n, idx)].items())
                dev = abs(fd_val - rhs)
                if dev > max_dev:
                    max_dev = dev
                    worst = (n, tuple(idx))
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
    return {"index": tuple(idx), "point": list(point), "step": h,
            "rows": rows, "max_deviation": max(rows.values())}


# ---------------------------------------------------------------------------
# SL(2,R) specialization


# the rank-one step: with the Richardson step it meets the 1e-8 ladder tolerance
SL2_STEP = 1e-4


def sl2_extend(nu: complex, l: int, g: np.ndarray) -> complex:
    """a^(1+2nu) e^(i l theta) at g = n a k, a = diag(a, 1/a) and k the
    rotation by theta, whose bottom row is (sin theta, cos theta)."""
    _, a, k = iwasawa(g)
    theta = math.atan2(k[1, 0], k[1, 1])
    return complex(a[0, 0]) ** (1 + 2 * complex(nu)) * np.exp(1j * l * theta)


def sl2_fd_derivative(nu, l: int, x, g: np.ndarray) -> complex:
    """Central difference at step SL2_STEP, refined to O(h^4) by Richardson
    extrapolation."""
    def central(step: float) -> complex:
        return sum(w * sl2_extend(nu, l, p) for p, w in _fd_plan(g, x, step))

    return (4 * central(SL2_STEP / 2) - central(SL2_STEP)) / 3


SL2_RAISE = np.array([[1, -1j], [-1j, -1]])
SL2_LOWER = np.array([[1, 1j], [1j, -1]])
SL2_WEIGHT = np.array([[0.0, -1.0], [1.0, 0.0]])


def sl2_ladder_check(nu, l: int, g: np.ndarray) -> dict:
    """Ladder coefficients (2nu+1+-l) and the weight il from the oracle."""
    nu = complex(nu)
    devs = {
        "raise": abs(sl2_fd_derivative(nu, l, SL2_RAISE, g)
                     - (2 * nu + 1 + l) * sl2_extend(nu, l + 2, g)),
        "lower": abs(sl2_fd_derivative(nu, l, SL2_LOWER, g)
                     - (2 * nu + 1 - l) * sl2_extend(nu, l - 2, g)),
        "weight": abs(sl2_fd_derivative(nu, l, SL2_WEIGHT, g)
                      - 1j * l * sl2_extend(nu, l, g)),
    }
    return {"nu": [nu.real, nu.imag], "l": l, "rows": devs,
            "max_deviation": max(devs.values())}


def sl2_maass_check(nu, l: int, x: float, y: float) -> dict:
    """Maass operators +-2iy d/dx + 2y d/dy +- l against the group side."""
    nu = complex(nu)

    def na(xx, yy):
        return np.array([[1.0, xx], [0.0, 1.0]]) @ np.diag(
            [math.sqrt(yy), 1.0 / math.sqrt(yy)])

    F = lambda xx, yy: sl2_extend(nu, l, na(xx, yy))
    g = na(x, y)
    dx, dy = (_coord_partial(F, (x, y), var, SL2_STEP) for var in (0, 1))
    devs = {
        "raise": abs((2j * y * dx + 2 * y * dy + l * F(x, y))
                     - sl2_fd_derivative(nu, l, SL2_RAISE, g)),
        "lower": abs((-2j * y * dx + 2 * y * dy - l * F(x, y))
                     - sl2_fd_derivative(nu, l, SL2_LOWER, g)),
    }
    return {"nu": [nu.real, nu.imag], "l": l, "rows": devs,
            "max_deviation": max(devs.values())}
