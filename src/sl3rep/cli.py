"""Command-line front end.

Subcommands: wigner, cg, sl2, series, action, compose, verify.  Exit codes:
0 success, 1 verification failure, 2 usage error.  All output ordering is
deterministic given identical flags and seed.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from .errors import VerificationError


# Python's default limit on int-string conversion: a rational with a longer
# numerator or denominator cannot be printed
MAX_DIGITS = 4300


def _parse_scalar(text: str):
    """A rational ('1/4', '0.25', '1e-3') or finite complex ('0.3+0.1i')
    literal.  A rational whose numerator or denominator would have more than
    MAX_DIGITS digits is refused; a literal of more digits, or with an
    exponent beyond 2 * MAX_DIGITS, is refused before anything is built."""
    shown = text if len(text) <= 40 else text[:37] + "..."
    too_long = argparse.ArgumentTypeError(
        f"number {shown!r} has more than {MAX_DIGITS} digits")
    exponent = re.search(r"e([-+]?\d+)\s*$", text, re.IGNORECASE)
    if (sum(c.isdigit() for c in text) > MAX_DIGITS
            or exponent and abs(int(exponent[1])) > 2 * MAX_DIGITS):
        raise too_long
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    else:
        if max(abs(x.numerator), x.denominator) >= 10 ** MAX_DIGITS:
            raise too_long
        return x
    try:
        z = complex(text.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}")
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"number {text!r} is not finite")
    return z


def _parse_angle(text: str) -> float:
    """A finite float: a NaN or an infinite angle has no D-function value."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}")
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"number {text!r} is not finite")
    return x


def _parse_lambda(text: str):
    """Two comma-separated components; the third is forced by the zero sum."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated values")
    a, b = (_parse_scalar(p) for p in parts)
    if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
        a, b = complex(a), complex(b)
    return (a, b, -a - b)


def _parse_float_lambda(text: str):
    """A --lambda of the numeric engine: each component, the third too, fits
    a finite float."""
    lam = _parse_lambda(text)
    try:
        if all(cmath.isfinite(complex(x)) for x in lam):
            return lam
    except OverflowError:
        pass
    raise argparse.ArgumentTypeError("the numeric engine needs every "
                                     "component to fit a finite float")


def _parse_delta(text: str):
    parts = text.split(",")
    if len(parts) != 3 or not all(p in ("0", "1") for p in parts):
        raise argparse.ArgumentTypeError("expected three 0/1 values")
    return tuple(int(p) for p in parts)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _csv_text(mat) -> str:
    """The dense matrix as CSV; every entry that is +0 in both parts is the
    one string _fmt_complex gives it, "0+0i", and only the others are
    formatted."""
    dense = mat.dense()
    zero = ((dense.real == 0) & ~np.signbit(dense.real)
            & (dense.imag == 0) & ~np.signbit(dense.imag))
    names = [f"v({lab.l};{lab.m1};{lab.m2})" for lab in mat.labels]
    lines = ["," + ",".join(names)]
    for name, row, row_zero in zip(names, dense, zero):
        cells = ["0+0i"] * len(row)
        for i in np.flatnonzero(~row_zero):
            cells[i] = _fmt_complex(row[i])
        lines.append(name + "," + ",".join(cells))
    return "\n".join(lines)


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
        try:
            with open(out, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None
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

    if args.l < 0 or abs(args.m) > args.l or abs(args.k) > 2 or abs(args.j) > 2:
        raise ValueError("a coupling index has l >= 0, |m| <= l and |k|, |j| <= 2")
    val = q(args.k, args.j, args.l, args.m)
    if args.format == "json":
        _emit(json.dumps({"k": args.k, "j": args.j, "l": args.l, "m": args.m,
                          "exact": val.to_json(), "float": float(val)}),
              args.out)
    else:
        _emit(f"{_pretty_radical(val)} ≈ {float(val):.6f}", args.out)
    return 0


def _cmd_sl2(args) -> int:
    from .sl2 import (SL2Params, _check_parity, _ladder_coeff,
                      sl2_composition_report)

    _read_options(args, ("l",) if args.mode == "ladder" else (), {"l": 0},
                  f"sl2 {args.mode}")
    params = SL2Params(args.nu, args.eps)
    if args.mode == "ladder":
        _check_parity(params, [args.l])
        rows = [("raise", _ladder_coeff(params, args.l, +1), args.l + 2),
                ("lower", _ladder_coeff(params, args.l, -1), args.l - 2),
                ("weight", f"{args.l}i", args.l)]
        if args.format == "json":
            _emit(json.dumps({"nu": str(args.nu), "eps": args.eps, "l": args.l, "rows": [
                {"name": name, "coefficient": str(coeff), "target": target}
                for name, coeff, target in rows]}), args.out)
        else:
            _emit("\n".join(f"{name}: v_{args.l} -> ({coeff}) v_{target}"
                            for name, coeff, target in rows), args.out)
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

    if args.lmax < 0:
        raise ValueError("--lmax must be nonnegative")
    params = SeriesParams(args.lam, args.delta)
    ls = range(args.lmax + 1)
    lines = ["l,m1,m2", *(",".join(map(str, lab)) for l in ls for lab in basis(params, l)),
             "", "l,multiplicity", *(f"{l},{multiplicity(args.delta, l)}" for l in ls)]
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_action(args) -> int:
    from .action import assemble_matrix
    from .series import SeriesParams

    if args.lmax < 0:
        raise ValueError("--lmax must be nonnegative")
    mat = assemble_matrix(SeriesParams(args.lam, args.delta), args.gen, args.lmax)
    _emit(_csv_text(mat) if args.format == "csv" else mat.json_text(), args.out)
    return 0


def _cmd_compose(args) -> int:
    from . import structure

    # each preset's report and the options it reads, in argument order
    build, reads = {"even-k": (structure.even_k_report, ("k", "lmax")),
                    "degenerate": (structure.degenerate_series_report, ("s", "lmax")),
                    "k3": (structure.k3_chain_report, ("lmax",)),
                    "k23": (structure.k23_subspace_report, ("lmax",))}[args.preset]
    defaults = {"k": 2, "s": Fraction(1, 4), "lmax": 31 if args.preset == "k23" else 12}
    _read_options(args, reads, defaults, f"the {args.preset} preset")
    try:
        report = build(*(getattr(args, name) for name in reads))
    except ValueError as exc:  # only the float recheck chains one: lambda(s) overflows
        raise ValueError(f"argument --s: {exc}") if exc.__cause__ else exc
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


def _read_options(args, reads, defaults: dict, what: str) -> None:
    """Fill in the defaults of the options in `reads` that the parser gave as
    None (not given), and refuse any other option of `defaults` given."""
    for name, default in defaults.items():
        if name in reads:
            if getattr(args, name) is None:
                setattr(args, name, default)
        elif getattr(args, name) is not None:
            flag = "--lambda" if name == "lam" else f"--{name}"
            raise ValueError(f"{what} does not read {flag}")


# the options each verify suite reads
_VERIFY_READS = {
    "orthogonality": ("lmax",),
    "cg": ("lmax", "samples", "seed"),
    "theorem-main": ("lmax", "samples", "lam", "seed"),
    "diffops": ("lmax", "samples", "lam", "seed"),
    "sl2": ("samples", "seed"),
}
_VERIFY_DEFAULTS = {"lmax": 3, "samples": 5, "lam": None, "seed": 0}


def _cmd_verify(args) -> int:
    from . import oracle
    from .wigner import WignerIndex

    reads = _VERIFY_READS[args.suite]
    _read_options(args, reads, _VERIFY_DEFAULTS, f"the {args.suite} suite")
    # a suite that compares no case must not pass
    if "samples" in reads and args.samples < 1:
        raise ValueError("--samples must be at least 1")
    least = 1 if args.suite == "cg" else 0
    if "lmax" in reads and args.lmax < least:
        raise ValueError(f"--lmax must be at least {least} for the "
                         f"{args.suite} suite")
    if args.suite == "orthogonality":
        report = oracle.orthogonality_report(args.lmax)
        tol = 1e-9
    elif args.suite == "cg":
        from .clebsch import q_float

        rule = oracle.QuadratureRule.for_degree(args.lmax + 2)
        rng = np.random.default_rng(args.seed)
        max_dev = 0.0
        compared = 0
        while compared < args.samples:
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
            want = q_float(a, j, l, m1) * q_float(b, j, l, m2) \
                / (2 * (l + j) + 1)
            max_dev = max(max_dev, abs(got - want))
            compared += 1
        report = {"suite": "cg", "lmax": args.lmax, "seed": args.seed,
                  "max_deviation": max_dev}
        tol = 1e-9
    elif args.suite == "theorem-main":
        def fd_report(**step) -> dict:
            return oracle.verify_theorem_main(args.lam or (0.0, 0.0, 0.0), args.lmax,
                                              args.samples, args.seed, **step)
        report, tol = fd_report(), 1e-6
    elif args.suite == "diffops":
        def fd_report(**step) -> dict:
            rng = np.random.default_rng(args.seed)
            max_dev = 0.0
            lam = args.lam or (0.1, 0.2, -0.3)
            for _ in range(args.samples):
                l = int(rng.integers(0, args.lmax + 1))
                # the slice sits at k = 1, where both sides vanish off m1 = m2
                m = int(rng.integers(-l, l + 1))
                point = [float(v) for v in rng.uniform(-1, 1, size=3)] + \
                        [float(v) for v in rng.uniform(0.5, 2.0, size=2)]
                res = oracle.coordinate_diffops_check(lam, WignerIndex(l, m, m),
                                                      point, **step)
                max_dev = max(max_dev, res["max_deviation"])
            return {"suite": "diffops", "lmax": args.lmax, "seed": args.seed,
                    "step": res["step"], "max_deviation": max_dev}
        report, tol = fd_report(), 1e-5
    else:  # sl2
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
    passed = bool(report["max_deviation"] < tol)
    code = 0 if passed else 1
    if not passed and args.suite in ("theorem-main", "diffops"):
        # a deviation that falls about fourfold at half the step is the
        # O(h^2) error of the central differences, not a wrong expansion
        finer = float(fd_report(h=report["step"] / 2)["max_deviation"])
        report["half_step_deviation"] = finer
        code = 2 if 3 * finer <= report["max_deviation"] else 1
    report["max_deviation"] = float(report["max_deviation"])
    report["tolerance"] = tol
    report["passed"] = passed
    _emit(json.dumps(report, sort_keys=True, default=str), args.out)
    if code == 2:
        print(f"error: the step h = {report['step']:g} cannot resolve the tolerance "
              f"at this lambda: the deviation falls to {finer:.3g} at h / 2",
              file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sl3rep",
        description="Exact and numeric K-type calculus for the principal "
                    "series of SL(3,R)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, formats=()):
        if formats:
            sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--out", default=None)

    w = sub.add_parser("wigner", help="evaluate a Wigner function")
    for name in ("l", "m1", "m2"):
        w.add_argument(f"--{name}", type=int, required=True)
    for name in ("alpha", "beta", "gamma"):
        w.add_argument(f"--{name}", type=_parse_angle, required=True)
    common(w, ("table", "json"))
    w.set_defaults(func=_cmd_wigner)

    c = sub.add_parser("cg", help="exact coupling coefficient")
    for name in ("k", "j", "l", "m"):
        c.add_argument(f"--{name}", type=int, required=True)
    common(c, ("table", "json"))
    c.set_defaults(func=_cmd_cg)

    s2 = sub.add_parser("sl2", help="SL(2,R) ladder and composition series")
    s2.add_argument("mode", choices=("ladder", "compose"))
    s2.add_argument("--nu", type=_parse_scalar, required=True)
    s2.add_argument("--eps", type=int, default=0, choices=(0, 1))
    s2.add_argument("--l", type=int, default=None)
    common(s2, ("table", "json"))
    s2.set_defaults(func=_cmd_sl2)

    se = sub.add_parser("series", help="basis labels and multiplicities")
    se.add_argument("--delta", type=_parse_delta, required=True)
    se.add_argument("--lambda", dest="lam", type=_parse_lambda,
                    default=(Fraction(0), Fraction(0), Fraction(0)))
    se.add_argument("--lmax", type=int, default=6)
    common(se)
    se.set_defaults(func=_cmd_series)

    a = sub.add_parser("action", help="generator matrix on the truncated module")
    a.add_argument("--lambda", dest="lam", type=_parse_float_lambda, required=True)
    a.add_argument("--delta", type=_parse_delta, required=True)
    a.add_argument("--gen", required=True)
    a.add_argument("--lmax", type=int, default=8)
    common(a, ("json", "csv"))
    a.set_defaults(func=_cmd_action)

    co = sub.add_parser("compose", help="composition-series reports")
    co.add_argument("--preset", required=True,
                    choices=("even-k", "degenerate", "k3", "k23"))
    # None marks an option not given, as for verify below
    co.add_argument("--k", type=int, default=None)
    co.add_argument("--s", type=_parse_scalar, default=None)
    co.add_argument("--lmax", type=int, default=None)
    common(co, ("table", "json"))
    co.set_defaults(func=_cmd_compose)

    v = sub.add_parser("verify", help="numerical oracle suites")
    v.add_argument("--suite", required=True,
                   choices=("orthogonality", "cg", "theorem-main",
                            "diffops", "sl2"))
    # None marks an option not given; _read_options fills in the defaults of
    # the options the suite reads and refuses the others
    v.add_argument("--lmax", type=int, default=None)
    v.add_argument("--samples", type=int, default=None)
    v.add_argument("--lambda", dest="lam", type=_parse_float_lambda, default=None)
    v.add_argument("--seed", type=int, default=None)
    common(v)
    v.set_defaults(func=_cmd_verify)
    return p


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with each negative value (-7/4, -1/3,1/5, -0.3+0.1i) joined to
    its option as --opt=value: argparse's own test for a negative number
    varies with the Python version and misses these.  Every option but
    --help takes one value."""
    out: list[str] = []
    for word in argv:
        prev = out[-1] if out else ""
        if (re.match(r"-[\d.i]", word) and prev.startswith("--")
                and "=" not in prev and not "--help".startswith(prev)):
            out[-1] = f"{prev}={word}"
        else:
            out.append(word)
    return out


# the parser of `main`, built on first use: parsing leaves it unchanged
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_attach_negative_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, AssertionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
