"""The four workloads: their inputs, made from a seed, and their timed calls.

`make_inputs(name, seed)` returns plain data, so the checks can read the
same inputs the program was given.  `prepare(name, data)` turns the data
into sl3rep objects, and `run(name, prepared)` is the timed phase: one cold
pass over the workload's fixed operations, returning the raw outputs.

The seed changes values, never the amount of work: which quarter-integral
s, which leaking spectral parameters, the order of the bracket checks,
the parity class and complex lambda of the assembly, the oracle's lambda
and sample points, and which outputs are sampled for checking.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

WORKLOADS = ("certify", "bracket", "assemble", "oracle")

# certify: k23 at the window `sl3rep compose --preset k23` uses; the other
# reports at the smallest windows they accept, so k23 dominates the pass
K23_LMAX = 27
K3_LMAX = 6
EVEN_K, EVEN_LMAX = 2, 6
DEGENERATE_LMAX = 10
S_CHOICES = ("-3/4", "-7/4", "-11/4", "3/4", "7/4", "11/4", "1/4", "-1/4")
# bracket: every index of the interior K-types l <= lmax - 2 of an l <= 5 window
BRACKET_L = (0, 1, 2, 3)
BRACKET_SAMPLE = 24
# assemble
ASSEMBLE_LMAX = 9
ASSEMBLE_GENS = ("Z-2", "Z-1", "Z0", "Z1", "Z2", "Y1", "Y2", "Y3")
ODD_DELTAS = ((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1))  # one label set
ASSEMBLE_COLUMNS = 30
# oracle
ORTHO_LMAX = 6
THEOREM_LMAX, THEOREM_SAMPLES = 3, 2
# the step of the acceptance gate: at the default 1e-4 the O(h^2) error of the
# central differences passes 1e-6 for some lambda with |Re|, |Im| <= 1
THEOREM_STEP = 2e-5
D_MATRIX_LS = (10, 20, 30, 40, 50, 60)
D_MATRIX_ANGLES = (0.4, 1.1, 2.3)  # fixed, so the failing D-matrices do not depend on the seed


def _complex(rng: random.Random) -> complex:
    return complex(round(rng.uniform(-1, 1), 4), round(rng.uniform(-1, 1), 4))


def _lam_text(z: complex) -> str:
    return f"{z.real:.4f}{z.imag:+.4f}i"


def make_inputs(name: str, seed: int) -> dict:
    rng = random.Random(f"{name}:{seed}")
    if name == "certify":
        a = rng.choice((9, 10, 12, 13))
        t = Fraction(rng.choice(("1/2", "1", "3/2", "2")))
        return {
            "s": rng.choice(S_CHOICES),
            "negatives": [
                # Lambda^(-2)((a,-a,0), l, 23) = 2a - 22 != 0: leaks toward m1 = 21
                {"name": f"m1 >= 23 at ({a}, {-a}, 0)", "lambda": [a, -a, 0],
                 "delta": [1, 0, 1], "pred": ["m1_ge", 23], "lmax": 25},
                # Lambda^(2)((t-1, 1-t, 0), l, 1) = 2t != 0: leaks toward m1 = 3
                {"name": f"m1 = 1 at ({t - 1}, {1 - t}, 0)",
                 "lambda": [str(t - 1), str(1 - t), "0"],
                 "delta": [1, 0, 1], "pred": ["m1_eq", 1], "lmax": 5},
            ],
        }
    if name == "bracket":
        from itertools import combinations
        tags = ("X1", "X2", "X3", "X-1", "X-2", "X-3", "H1", "H2")
        checks = [(a, b, (l, m1, m2)) for l in BRACKET_L
                  for m1 in range(-l, l + 1) for m2 in range(-l, l + 1)
                  for a, b in combinations(tags, 2)]
        rng.shuffle(checks)
        lam = [_complex(rng), _complex(rng)]
        return {"checks": checks, "lambda": [lam[0], lam[1], -lam[0] - lam[1]],
                "sample": sorted(rng.sample(range(len(checks)), BRACKET_SAMPLE))}
    if name == "assemble":
        lam = [_complex(rng), _complex(rng)]
        return {"delta": list(rng.choice(ODD_DELTAS)),
                "lambda": [lam[0], lam[1], -lam[0] - lam[1]],
                "lmax": ASSEMBLE_LMAX, "gens": list(ASSEMBLE_GENS),
                "column_seed": rng.randrange(2 ** 32)}
    if name == "oracle":
        lam = [_complex(rng), _complex(rng)]
        return {"ortho_lmax": ORTHO_LMAX,
                "theorem": {"lambda": [lam[0], lam[1], -lam[0] - lam[1]],
                            "lmax": THEOREM_LMAX, "samples": THEOREM_SAMPLES,
                            "seed": rng.randrange(2 ** 16)},
                "d_ls": list(D_MATRIX_LS), "angles": list(D_MATRIX_ANGLES)}
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# predicates given as data


def predicate(spec):
    kind, v = spec
    if kind == "m1_ge":
        return lambda lab: lab[1] >= v
    if kind == "m1_eq":
        return lambda lab: lab[1] == v
    raise ValueError(kind)


def rational_lambda(values) -> tuple:
    return tuple(Fraction(x) for x in values)


# ---------------------------------------------------------------------------
# set-up and the timed phase


def prepare(name: str, data: dict):
    """Program-side inputs; runs in set-up, before the timer starts."""
    from sl3rep.series import SeriesParams
    from sl3rep.structure import SubspaceSpec
    from sl3rep.wigner import EulerAngles, WignerIndex

    if name == "certify":
        specs = [(SubspaceSpec(n["name"], SeriesParams(rational_lambda(n["lambda"]),
                                                       tuple(n["delta"])),
                               predicate(n["pred"])), n["lmax"])
                 for n in data["negatives"]]
        return {"s": Fraction(data["s"]), "negatives": specs}
    if name == "bracket":
        return [(a, b, WignerIndex(*idx)) for a, b, idx in data["checks"]]
    if name == "assemble":
        lam = data["lambda"]
        argv_base = ["action", f"--lambda={_lam_text(lam[0])},{_lam_text(lam[1])}",
                     "--delta", ",".join(map(str, data["delta"])),
                     "--lmax", str(data["lmax"]), "--format", "json"]
        return [argv_base + ["--gen", g] for g in data["gens"]]
    if name == "oracle":
        th = data["theorem"]
        return {"ortho_lmax": data["ortho_lmax"],
                "theorem": (tuple(th["lambda"]), th["lmax"], th["samples"], th["seed"]),
                "d_ls": data["d_ls"], "angles": EulerAngles(*data["angles"])}
    raise ValueError(name)


def run(name: str, prepared):
    """One cold pass over the workload's operations; returns raw outputs."""
    if name == "certify":
        from sl3rep import structure
        return {
            "k23": structure.k23_subspace_report(K23_LMAX),
            "k3": structure.k3_chain_report(K3_LMAX),
            "even_k": structure.even_k_report(EVEN_K, EVEN_LMAX),
            "degenerate": structure.degenerate_series_report(prepared["s"],
                                                            DEGENERATE_LMAX),
            "negatives": [structure.verify_invariant(spec, lmax)
                          for spec, lmax in prepared["negatives"]],
        }
    if name == "bracket":
        from sl3rep.action import bracket_check
        return [bracket_check(a, b, idx) for a, b, idx in prepared]
    if name == "assemble":
        from sl3rep import cli
        out = []
        for argv in prepared:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            out.append((code, buf.getvalue()))
        return out
    if name == "oracle":
        from sl3rep import oracle, wigner
        lam, lmax, samples, seed = prepared["theorem"]
        return {
            "orthogonality": oracle.orthogonality_report(prepared["ortho_lmax"]),
            "theorem": oracle.verify_theorem_main(lam, lmax, samples=samples, seed=seed,
                                                  h=THEOREM_STEP),
            "d_matrices": [wigner.wigner_D_matrix(l, prepared["angles"])
                           for l in prepared["d_ls"]],
        }
    raise ValueError(name)


# the members of each certified report: (name, lambda, predicate on (l, m1))
def report_members(s: Fraction) -> dict:
    h = Fraction(EVEN_K - 1, 2)
    return {
        "k23": [("Sym^2 span (m1 >= 23)", (11, -11, 0), lambda l, m1: m1 >= 23)],
        "k3": [("V1_odd", (-1, 1, 0), lambda l, m1: m1 == 1 and l % 2 == 1),
               ("V1", (-1, 1, 0), lambda l, m1: m1 == 1),
               ("dual", (1, -1, 0), lambda l, m1: m1 >= 3)],
        "even_k": [("V_A", (h, -h, 0), lambda l, m1: m1 >= EVEN_K),
                   ("V_B", (-h, h, 0), lambda l, m1: m1 < EVEN_K)],
        "degenerate": [("m1 = 0", (Fraction(2, 3) * s - Fraction(1, 2),
                                   Fraction(2, 3) * s + Fraction(1, 2),
                                   Fraction(-4, 3) * s), lambda l, m1: m1 == 0)],
    }

