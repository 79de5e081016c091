"""Acceptance gate: ten end-to-end checks with pinned tolerances and
per-check time budgets.  Each test prints a single PASS/FAIL line with the
measured deviation (or an exact-arithmetic summary) and the elapsed time.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from sl3rep.action import (STANDARD_BASIS, act_U, act_W, act_Z,
                           bracket_check, project_P, pwqu_exceptional)
from sl3rep.clebsch import cg_product, q
from sl3rep.ktvector import KTypeVector
from sl3rep.oracle import (coordinate_diffops_check, orthogonality_report,
                           sl2_ladder_check, sl2_maass_check,
                           verify_theorem_main)
from sl3rep.sl2 import SL2Params, lower, raise_, sl2_composition_report
from sl3rep.series import SeriesParams, basis, multiplicity
from sl3rep.structure import (degenerate_series_report, even_k_report,
                              k3_chain_report, k23_subspace_report)
from sl3rep.wigner import EulerAngles, WignerIndex, wigner_D

from cg_identities import recurrence_holds, symmetry_holds


def report(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status}: {name} — {detail} ({elapsed:.2f}s / budget {budget:.0f}s)",
          flush=True)
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: {elapsed:.2f}s over budget {budget:.0f}s"


def test_orthogonality_of_wigner_functions():
    # all pairwise inner products up to l = 4, tolerance 1e-9, budget 10 s
    t0 = time.monotonic()
    rep = orthogonality_report(4)
    dev = rep["max_deviation"]
    report("Wigner orthogonality (l <= 4, tol 1e-9)", dev < 1e-9,
           f"max deviation {dev:.3e} over {rep['pairs']} pairs",
           time.monotonic() - t0, 10)


def test_coupling_recurrence_and_symmetry_exact():
    # exact recurrence and reflection symmetry for every index with l <= 8,
    # budget 5 s
    t0 = time.monotonic()
    checked = 0
    ok = True
    for l in range(1, 9):
        for j in range(-2, 3):
            for m in range(-l, l + 1):
                ok = ok and recurrence_holds(l, m, j)
                checked += 1
                for k in range(-2, 3):
                    ok = ok and symmetry_holds(k, j, l, m)
                    checked += 1
    report("coupling recurrence + symmetry (exact, l <= 8)", ok,
           f"{checked} identities verified in exact arithmetic",
           time.monotonic() - t0, 5)


def test_product_rule_random_triples():
    # 50 random (first factor, second factor, angle) triples, tol 1e-9,
    # budget 10 s
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    max_dev = 0.0
    for _ in range(50):
        l = int(rng.integers(0, 7))
        idx = WignerIndex(l, int(rng.integers(-l, l + 1)),
                          int(rng.integers(-l, l + 1)))
        idx2 = WignerIndex(2, int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        ang = EulerAngles(rng.uniform(0, 2 * np.pi),
                          rng.uniform(0.05, np.pi - 0.05),
                          rng.uniform(0, 2 * np.pi))
        lhs = wigner_D(idx2, ang) * wigner_D(idx, ang)
        rhs = sum(complex(c) * wigner_D(t, ang)
                  for t, c in cg_product(idx2, idx).items())
        max_dev = max(max_dev, abs(lhs - rhs))
    report("product expansion at 50 random triples (tol 1e-9)",
           max_dev < 1e-9, f"max deviation {max_dev:.3e}",
           time.monotonic() - t0, 10)


def test_five_term_expansion_against_finite_differences():
    # three random complex spectral parameters, all five generators Z_n,
    # every index with l <= 4, 10 group points each, tol 1e-6, budget 60 s
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    max_dev = 0.0
    for trial in range(3):
        a, b = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(2))
        rep = verify_theorem_main((a, b, -a - b), lmax=4, samples=10,
                                  seed=100 + trial, h=2e-5)
        max_dev = max(max_dev, rep["max_deviation"])
    report("five-term expansion vs finite differences "
           "(3 parameters, l <= 4, 10 points, tol 1e-6)",
           max_dev < 1e-6, f"max deviation {max_dev:.3e}",
           time.monotonic() - t0, 60)


def test_bracket_fidelity_all_generator_pairs():
    # [pi(A), pi(B)] = pi([A, B]) in exact arithmetic for all 28 unordered
    # pairs of standard generators, on every index of the interior K-types
    # (l = 2..6) of the l <= 8 window, budget 60 s
    t0 = time.monotonic()
    pairs = list(itertools.combinations(STANDARD_BASIS, 2))
    assert len(pairs) == 28
    checked = 0
    ok = True
    for l in range(2, 7):
        for m1 in range(-l, l + 1):
            for m2 in range(-l, l + 1):
                idx = WignerIndex(l, m1, m2)
                for a, b in pairs:
                    ok = ok and bracket_check(a, b, idx)
                    checked += 1
    report("bracket fidelity (28 pairs, exact, interior l = 2..6)", ok,
           f"{checked} exact commutator identities",
           time.monotonic() - t0, 60)


def test_rank_one_ladder_and_composition_series():
    # finite-difference ladder coefficients at tol 1e-8, plus exact
    # sub/quotient weight sets for k = 2..6 on both half-integral walls,
    # budget 5 s
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    max_dev = 0.0
    for _ in range(6):
        nu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        l = int(rng.integers(-5, 6))
        u = rng.uniform(0.5, 2.0)
        g = np.array([[1.0, rng.uniform(-1, 1)], [0.0, 1.0]]) @ np.diag(
            [np.sqrt(u), 1 / np.sqrt(u)])
        max_dev = max(max_dev, sl2_ladder_check(nu, l, g)["max_deviation"])
    structural_ok = True
    for k in range(2, 7):
        pos = SL2Params(Fraction(k - 1, 2), eps=k % 2)
        neg = SL2Params(Fraction(1 - k, 2), eps=k % 2)
        rp, rn = sl2_composition_report(pos), sl2_composition_report(neg)
        structural_ok = structural_ok and rp.kind == "discrete-sub" \
            and rp.k == k and rn.kind == "finite-sub" and rn.k == k \
            and rn.sub_weights == "{" + ", ".join(
                map(str, range(2 - k, k - 1, 2))) + "}"
        # exact vanishing at the walls
        structural_ok = structural_ok \
            and not lower(pos, KTypeVector({k: 1})) \
            and not raise_(pos, KTypeVector({-k: 1})) \
            and not raise_(neg, KTypeVector({k - 2: 1})) \
            and not lower(neg, KTypeVector({2 - k: 1}))
    report("rank-one ladder (tol 1e-8) + composition series k = 2..6 (exact)",
           max_dev < 1e-8 and structural_ok,
           f"ladder max deviation {max_dev:.3e}, weight sets exact",
           time.monotonic() - t0, 5)


def test_k_type_multiplicities_all_parity_classes():
    # closed-form multiplicity equals basis enumeration for all 8 parity
    # classes and l <= 30, exact, budget 1 s
    t0 = time.monotonic()
    ok = True
    checked = 0
    for delta in itertools.product((0, 1), repeat=3):
        params = SeriesParams((0, 0, 0), delta)
        for l in range(31):
            ok = ok and len(basis(params, l)) == \
                multiplicity(delta, l) * (2 * l + 1)
            checked += 1
    report("K-type multiplicities (8 parity classes, l <= 30, exact)", ok,
           f"{checked} (parity, l) cells", time.monotonic() - t0, 1)


def test_composition_series_reports():
    # the four structure reports: even-k pairs k = 2, 4, 6 at lmax 12; the
    # parabolic-induction ladder; the length-3 chain; the m1 >= 23 span at
    # lmax 31; total budget 120 s
    t0 = time.monotonic()
    ok = True
    details = []
    for k in (2, 4, 6):
        rep = even_k_report(k, lmax=12)
        good = all(m["invariant"] for m in rep.chain) \
            and not rep.metadata["multiplicity_mismatches"]
        ok = ok and good
        details.append(f"even-k k={k} {'ok' if good else 'BAD'}")
    dg = degenerate_series_report(Fraction(-7, 4), lmax=12)
    good = dg.metadata["U_pm1_zero"] and dg.metadata["quarter_integral"] \
        and dg.metadata["vanishing_rungs"] \
        and all(m["invariant"] for m in dg.chain)
    dg_reg = degenerate_series_report(Fraction(1, 3), lmax=12)
    good = good and not dg_reg.metadata["vanishing_rungs"] \
        and dg_reg.metadata["U_pm1_zero"]
    ok = ok and good
    details.append(f"parabolic ladder {'ok' if good else 'BAD'}")
    k3 = k3_chain_report(lmax=12)
    good = [m["invariant"] for m in k3.chain] == [True] * 3 \
        and k3.metadata["composition_length"] == 3
    ok = ok and good
    details.append(f"length-3 chain {'ok' if good else 'BAD'}")
    k23 = k23_subspace_report(lmax=31)
    good = k23.chain[0]["invariant"] and k23.metadata["first_k_type"] == 23 \
        and k23.multiplicities[23][0] == 1 and k23.multiplicities[22][0] == 0
    ok = ok and good
    details.append(f"m1>=23 span {'ok' if good else 'BAD'}")
    report("composition-series reports", ok, "; ".join(details),
           time.monotonic() - t0, 120)


def test_coordinate_operator_table_and_maass_operators():
    # the nine-row coordinate-operator table and the rank-one Maass
    # operators at 10 random points, tol 1e-5, budget 30 s
    t0 = time.monotonic()
    rng = np.random.default_rng(17)
    lam = (0.21 + 0.34j, -0.4, 0.19 - 0.34j)
    max_dev = 0.0
    for _ in range(10):
        l = int(rng.integers(1, 4))
        m = int(rng.integers(-l, l + 1))  # diagonal index: content requires m1 = m2
        point = [float(v) for v in rng.uniform(-0.8, 0.8, size=3)] + \
                [float(v) for v in rng.uniform(0.6, 1.8, size=2)]
        res = coordinate_diffops_check(lam, WignerIndex(l, m, m), point)
        max_dev = max(max_dev, res["max_deviation"])
    maass_dev = 0.0
    for _ in range(10):
        nu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        l = int(rng.integers(-4, 5))
        res = sl2_maass_check(nu, l, float(rng.uniform(-1, 1)),
                              float(rng.uniform(0.6, 1.8)))
        maass_dev = max(maass_dev, res["max_deviation"])
    dev = max(max_dev, maass_dev)
    report("coordinate-operator table + Maass operators (tol 1e-5)",
           dev < 1e-5,
           f"table max {max_dev:.3e}, Maass max {maass_dev:.3e}",
           time.monotonic() - t0, 30)


def test_projected_ladder_composition_identity():
    # P^l_j (W^{l+j}_{n,m2} D^l_{m1,m2}) = q(n,j,l,m2) U_j D^l_{m1,m2}
    # exactly for every defined combination with l <= 5, and the set of
    # (l, j) where no composition is defined is exactly
    # {(0,0), (0,1), (1,-1)}, budget 10 s
    t0 = time.monotonic()
    lam = (Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6))
    ok = True
    checked = 0
    defined_pairs = set()
    for l in range(0, 6):
        for j in range(-2, 3):
            if l + j < 0:
                continue
            for m1 in range(-l, l + 1):
                for m2 in range(-l, l + 1):
                    if abs(m2) > l + j:
                        continue
                    v = KTypeVector({WignerIndex(l, m1, m2): 1})
                    for n in range(-2, 3):
                        try:
                            w = act_W(n, l + j, m2, v, lam)
                        except ValueError:
                            continue  # normalization undefined: not counted
                        lhs = project_P(l, j, w)
                        rhs = act_U(j, WignerIndex(l, m1, m2),
                                    lam).scaled(q(n, j, l, m2))
                        ok = ok and (lhs - rhs).is_zero()
                        checked += 1
                        if not rhs.is_zero():
                            defined_pairs.add((l, j))
    exceptional = {(l, j) for l in range(6) for j in range(-2, 3)
                   if l + j >= 0} - defined_pairs
    expected_exceptional = pwqu_exceptional(5)
    ok = ok and expected_exceptional == {(0, 0), (0, 1), (1, -1)}
    ok = ok and exceptional >= expected_exceptional
    # pairs outside the predicted exceptional set must produce at least one
    # nonzero composition somewhere in the index range
    ok = ok and all(p in expected_exceptional or p in defined_pairs
                    for p in {(l, j) for l in range(6) for j in range(-2, 3)
                              if l + j >= 0})
    report("projected ladder compositions (exact, l <= 5) + exceptional set",
           ok, f"{checked} exact identities, exceptional set "
               f"{sorted(expected_exceptional)}",
           time.monotonic() - t0, 10)
