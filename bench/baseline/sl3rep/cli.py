"""Command-line front end.

Subcommands: wigner, cg, sl2, series, action, compose, verify.  Exit codes:
0 success, 1 verification failure, 2 usage error.  All output ordering is
deterministic given identical flags and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np


def _parse_scalar(text: str):
    """A rational ('1/4', '0.25') or complex ('0.3+0.1i') literal."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}")


def _parse_lambda(text: str):
    """Two comma-separated components; the third is forced by the zero sum."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated values")
    a, b = (_parse_scalar(p) for p in parts)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return (a, b, -a - b)
    a, b = complex(a), complex(b)
    return (a, b, -a - b)


def _parse_delta(text: str):
    parts = text.split(",")
    if len(parts) != 3 or not all(p in ("0", "1") for p in parts):
        raise argparse.ArgumentTypeError("expected three 0/1 values")
    return tuple(int(p) for p in parts)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _pretty_radical(r) -> str:
    if r.is_zero():
        return "0"
    parts = []
    for n, c in sorted(r.terms.items()):
        if n == 1:
            parts.append(f"({c})" if c.denominator != 1 else str(c))
        elif c == 1:
            parts.append(f"√{n}")
        else:
            parts.append(f"({c})·√{n}")
    return " + ".join(parts).replace("+ -", "- ")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_wigner(args) -> int:
    from .wigner import EulerAngles, WignerIndex, wigner_D

    val = wigner_D(WignerIndex(args.l, args.m1, args.m2),
                   EulerAngles(args.alpha, args.beta, args.gamma))
    if args.format == "json":
        _emit(json.dumps({"l": args.l, "m1": args.m1, "m2": args.m2,
                          "value": [val.real, val.imag]}), args.out)
    else:
        _emit(_fmt_complex(val), args.out)
    return 0


def _cmd_cg(args) -> int:
    from .clebsch import q

    val = q(args.k, args.j, args.l, args.m)
    if args.format == "json":
        _emit(json.dumps({"k": args.k, "j": args.j, "l": args.l, "m": args.m,
                          "exact": val.to_json(), "float": float(val)}),
              args.out)
    else:
        _emit(f"{_pretty_radical(val)} ≈ {float(val):.6f}", args.out)
    return 0


def _cmd_sl2(args) -> int:
    from .sl2 import SL2Params, sl2_composition_report

    params = SL2Params(args.nu, args.eps)
    if args.mode == "ladder":
        nu = args.nu
        rows = [("raise", 2 * nu + 1 + args.l, args.l + 2),
                ("lower", 2 * nu + 1 - args.l, args.l - 2),
                ("weight", 1j * args.l if not params.exact else None, args.l)]
        lines = []
        for name, coeff, target in rows:
            if name == "weight":
                coeff = f"{args.l}i"
            lines.append(f"{name}: v_{args.l} -> ({coeff}) v_{target}")
        _emit("\n".join(lines), args.out)
        return 0
    report = sl2_composition_report(params)
    if args.format == "json":
        _emit(json.dumps({"nu": str(args.nu), "eps": args.eps,
                          "irreducible": report.irreducible,
                          "kind": report.kind, "k": report.k,
                          "sub_weights": report.sub_weights,
                          "quotient": report.quotient}), args.out)
    else:
        _emit("\n".join(report.lines()), args.out)
    return 0


def _cmd_series(args) -> int:
    from .series import SeriesParams, basis, multiplicity

    params = SeriesParams(args.lam, args.delta)
    lines = ["l,m1,m2"]
    for l in range(args.lmax + 1):
        for lab in basis(params, l):
            lines.append(f"{lab.l},{lab.m1},{lab.m2}")
    lines.append("")
    lines.append("l,multiplicity")
    for l in range(args.lmax + 1):
        lines.append(f"{l},{multiplicity(args.delta, l)}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_action(args) -> int:
    from .action import assemble_matrix
    from .series import SeriesParams

    params = SeriesParams(args.lam, args.delta)
    mat = assemble_matrix(params, args.gen, args.lmax)
    if args.format == "csv":
        dense = mat.dense()
        lines = ["," + ",".join(f"v({lab.l};{lab.m1};{lab.m2})"
                                for lab in mat.labels)]
        for lab, row in zip(mat.labels, dense):
            lines.append(f"v({lab.l};{lab.m1};{lab.m2})," +
                         ",".join(_fmt_complex(z) for z in row))
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(mat.to_json(), sort_keys=True), args.out)
    return 0


def _cmd_compose(args) -> int:
    from . import structure

    if args.preset == "even-k":
        report = structure.even_k_report(args.k, args.lmax or 12)
    elif args.preset == "degenerate":
        report = structure.degenerate_series_report(args.s, args.lmax or 12)
    elif args.preset == "k3":
        report = structure.k3_chain_report(args.lmax or 12)
    elif args.preset == "k23":
        report = structure.k23_subspace_report(args.lmax or 31)
    else:
        raise argparse.ArgumentTypeError(f"unknown preset {args.preset}")
    if args.format == "json":
        _emit(json.dumps(report.to_json(), sort_keys=True, default=str),
              args.out)
    else:
        lines = report.lines()
        length = report.metadata.get("composition_length")
        if length:
            lines.append(f"  chain length {length}")
        _emit("\n".join(lines), args.out)
    ok = all(member["invariant"] for member in report.chain)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    from . import oracle

    report: dict
    if args.suite == "orthogonality":
        report = oracle.orthogonality_report(args.lmax)
        tol = 1e-9
    elif args.suite == "cg":
        from .clebsch import q
        from .wigner import WignerIndex

        rule = oracle.QuadratureRule.for_degree(args.lmax + 2)
        rng = np.random.default_rng(args.seed)
        max_dev = 0.0
        for _ in range(args.samples):
            l = int(rng.integers(1, args.lmax + 1))
            j = int(rng.integers(-2, 3))
            if l + j < abs(l - 2) or l + j < 0:
                continue
            a = int(rng.integers(-2, 3))
            b = int(rng.integers(-2, 3))
            m1 = int(rng.integers(-l, l + 1))
            m2 = int(rng.integers(-l, l + 1))
            if abs(m1 + a) > l + j or abs(m2 + b) > l + j:
                continue
            got = oracle.product_integral(
                WignerIndex(2, a, b), WignerIndex(l, m1, m2),
                WignerIndex(l + j, m1 + a, m2 + b), rule)
            want = float(q(a, j, l, m1)) * float(q(b, j, l, m2)) \
                / (2 * (l + j) + 1)
            max_dev = max(max_dev, abs(got - want))
        report = {"suite": "cg", "lmax": args.lmax, "seed": args.seed,
                  "max_deviation": max_dev}
        tol = 1e-9
    elif args.suite == "theorem-main":
        report = oracle.verify_theorem_main(args.lam or (0.0, 0.0, 0.0),
                                            args.lmax, samples=args.samples,
                                            seed=args.seed)
        tol = 1e-6
    elif args.suite == "diffops":
        from .wigner import WignerIndex

        rng = np.random.default_rng(args.seed)
        max_dev = 0.0
        lam = args.lam or (0.1, 0.2, -0.3)
        for _ in range(args.samples):
            l = int(rng.integers(0, args.lmax + 1))
            m1 = int(rng.integers(-l, l + 1))
            m2 = int(rng.integers(-l, l + 1))
            point = [float(v) for v in rng.uniform(-1, 1, size=3)] + \
                    [float(v) for v in rng.uniform(0.5, 2.0, size=2)]
            res = oracle.coordinate_diffops_check(lam, WignerIndex(l, m1, m2),
                                                  point)
            max_dev = max(max_dev, res["max_deviation"])
        report = {"suite": "diffops", "lmax": args.lmax, "seed": args.seed,
                  "max_deviation": max_dev}
        tol = 1e-5
    elif args.suite == "sl2":
        rng = np.random.default_rng(args.seed)
        ladder_dev = 0.0
        maass_dev = 0.0
        for _ in range(args.samples):
            nu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            l = int(rng.integers(-6, 7))
            g = np.array([[1.0, rng.uniform(-1, 1)], [0.0, 1.0]]) @ np.diag(
                [math.sqrt(u := rng.uniform(0.5, 2.0)), 1 / math.sqrt(u)])
            ladder_dev = max(ladder_dev,
                             oracle.sl2_ladder_check(nu, l, g)["max_deviation"])
            maass_dev = max(maass_dev, oracle.sl2_maass_check(
                nu, l, rng.uniform(-1, 1), rng.uniform(0.5, 2.0))["max_deviation"])
        # the ladder identity is checked tightly; the coordinate-operator
        # rows carry the looser finite-difference tolerance
        report = {"suite": "sl2", "seed": args.seed,
                  "ladder_deviation": float(ladder_dev),
                  "maass_deviation": float(maass_dev),
                  "max_deviation": max(ladder_dev / 1e-8, maass_dev / 1e-5)}
        tol = 1.0
    else:
        raise argparse.ArgumentTypeError(f"unknown suite {args.suite}")
    passed = bool(report["max_deviation"] < tol)
    report["max_deviation"] = float(report["max_deviation"])
    report["tolerance"] = tol
    report["passed"] = passed
    _emit(json.dumps(report, sort_keys=True, default=str), args.out)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sl3rep",
        description="Exact and numeric K-type calculus for the principal "
                    "series of SL(3,R)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("table", "json", "csv"),
                        default="table")
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=int, default=0)

    w = sub.add_parser("wigner", help="evaluate a Wigner function")
    for name in ("l", "m1", "m2"):
        w.add_argument(f"--{name}", type=int, required=True)
    for name in ("alpha", "beta", "gamma"):
        w.add_argument(f"--{name}", type=float, required=True)
    common(w)
    w.set_defaults(func=_cmd_wigner)

    c = sub.add_parser("cg", help="exact coupling coefficient")
    for name in ("k", "j", "l", "m"):
        c.add_argument(f"--{name}", type=int, required=True)
    common(c)
    c.set_defaults(func=_cmd_cg)

    s2 = sub.add_parser("sl2", help="SL(2,R) ladder and composition series")
    s2.add_argument("mode", choices=("ladder", "compose"))
    s2.add_argument("--nu", type=_parse_scalar, required=True)
    s2.add_argument("--eps", type=int, default=0, choices=(0, 1))
    s2.add_argument("--l", type=int, default=0)
    common(s2)
    s2.set_defaults(func=_cmd_sl2)

    se = sub.add_parser("series", help="basis labels and multiplicities")
    se.add_argument("--delta", type=_parse_delta, required=True)
    se.add_argument("--lambda", dest="lam", type=_parse_lambda,
                    default=(Fraction(0), Fraction(0), Fraction(0)))
    se.add_argument("--lmax", type=int, default=6)
    common(se)
    se.set_defaults(func=_cmd_series)

    a = sub.add_parser("action", help="generator matrix on the truncated module")
    a.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True)
    a.add_argument("--delta", type=_parse_delta, required=True)
    a.add_argument("--gen", required=True)
    a.add_argument("--lmax", type=int, default=8)
    common(a)
    a.set_defaults(func=_cmd_action)

    co = sub.add_parser("compose", help="composition-series reports")
    co.add_argument("--preset", required=True,
                    choices=("even-k", "degenerate", "k3", "k23"))
    co.add_argument("--k", type=int, default=2)
    co.add_argument("--s", type=_parse_scalar, default=Fraction(1, 4))
    co.add_argument("--lmax", type=int, default=None)
    common(co)
    co.set_defaults(func=_cmd_compose)

    v = sub.add_parser("verify", help="numerical oracle suites")
    v.add_argument("--suite", required=True,
                   choices=("orthogonality", "cg", "theorem-main",
                            "diffops", "sl2"))
    v.add_argument("--lmax", type=int, default=3)
    v.add_argument("--samples", type=int, default=5)
    v.add_argument("--lambda", dest="lam", type=_parse_lambda, default=None)
    common(v)
    v.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
