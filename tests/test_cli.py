"""Tests for the command-line interface: output formats, determinism, and
exit codes."""

import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sl3rep
from sl3rep import VerificationError, action, structure
from sl3rep.cli import _csv_text, _fmt_complex, _parse_scalar, main
from sl3rep.series import BasisLabel, SeriesParams, basis


# a subprocess imports the package these tests import, also where only
# pytest's `pythonpath` setting puts it on the path
_PATHS = [str(Path(sl3rep.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in _PATHS if p)}


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "sl3rep.cli", *argv],
                          capture_output=True, text=True, env=SUBPROCESS_ENV)
    return proc.returncode, proc.stdout, proc.stderr


def test_wigner_value():
    code, out, _ = run_cli("wigner", "--l", "1", "--m1", "0", "--m2", "0",
                           "--alpha", "0", "--beta", "1.0", "--gamma", "0",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"][0] == pytest.approx(math.cos(1.0))
    assert doc["value"][1] == pytest.approx(0.0)


def test_cg_json_and_table():
    code, out, _ = run_cli("cg", "--k", "0", "--j", "0", "--l", "1", "--m", "1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["float"] == pytest.approx(1 / math.sqrt(10))
    assert doc["exact"] == {"terms": [[10, "1/10"]]}
    code, out, _ = run_cli("cg", "--k", "0", "--j", "0", "--l", "1", "--m", "1")
    assert code == 0 and "√10" in out


def test_sl2_compose_exit_codes():
    code, out, _ = run_cli("sl2", "compose", "--nu", "1/2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "discrete-sub" and doc["k"] == 2
    code, out, _ = run_cli("sl2", "compose", "--nu", "1/3", "--format", "json")
    assert code == 0 and json.loads(out)["irreducible"]


def test_series_listing():
    code, out, _ = run_cli("series", "--delta", "0,0,0", "--lambda", "0,0",
                           "--lmax", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,m1,m2"
    assert "0,0,0" in lines[1:]
    assert "l,multiplicity" in lines


def test_action_json_deterministic(tmp_path):
    args = ("action", "--lambda", "1/2,0", "--delta", "0,0,0",
            "--gen", "Z1", "--lmax", "3", "--format", "json")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["metadata"]["generator"] == "Z1"
    assert doc["metadata"]["lmax"] == 3
    # --out writes the same bytes to a file
    target = tmp_path / "m.json"
    code3, out3, _ = run_cli(*args, "--out", str(target))
    assert code3 == 0 and out3 == ""
    assert json.loads(target.read_text()) == doc


# sha256 of the stdout bytes; each was the same under PYTHONHASHSEED 0, 1,
# 2 and random
PINNED_OUTPUTS = [
    ("compose --preset k3 --format json",
     "85410c88fa63b0a94d94b0aed1a2602d12e68c1ac7b42750782fa1503462e68f"),
    ("compose --preset k23 --format json",
     "5434a970a9394e60df8708b1b9a836b011e29a3db64074e2cf6391604416db6b"),
    ("compose --preset even-k --k 4 --format json",
     "1a03ac55f33317a271c46ce0bbcac6161157c19d96305100552cc8c57ea8c53b"),
    ("compose --preset degenerate --s 1/4 --format json",
     "b827306f53ad6562532c86348611ee6ee0ca6f986cf8b01f7aab62933c03c61b"),
    ("compose --preset degenerate --s 0.3+0.1i --format json",
     "506d135a19c829796fabcf2b2b632137905e737ea9da99b2792717f5f43ed2c1"),
    ("compose --preset k3 --format table",
     "dd61e79dfe474a092be1a13f14c62dad3191533a1593dc36894d2dca5ccdef5d"),
    ("compose --preset degenerate --s 0.3+0.1i --format table",
     "f2e0627f8ee83c414fa8cb77ea7ecf35aafa316e8740913bb1ee638f0f5c808c"),
    ("action --lambda 1/3,1/5 --delta 1,0,1 --gen Z1 --lmax 6 --format json",
     "936a6ffb44c95cbe436d7e47ecd19bfe4bd2aeababaf0e86772afd8314ca64ad"),
    ("action --lambda 0.3+0.1i,-0.2 --delta 0,1,0 --gen Z-2 --lmax 6 --format csv",
     "17b95892f7e09bb9a17130498359dba9e44508dfd7ac15b60233a1859c83e30e"),
    ("action --lambda 0.3+0.1i,-0.2 --delta 0,1,0 --gen Y3 --lmax 6 --format json",
     "e7a51e343642cb6cc99d7fe8f687cfe7fc79cb1202a4fcd86f49516b7a170813"),
    ("wigner --l 2 --m1 1 --m2 -1 --alpha 0.3 --beta 1.1 --gamma 2.0",
     "a19a057f3d735fe1f5d20f8cc672dd29212307474ff8b09fd576d31e8aa3bc0d"),
]


@pytest.mark.parametrize("command, digest", PINNED_OUTPUTS,
                         ids=[command for command, _ in PINNED_OUTPUTS])
def test_cli_output_bytes_are_pinned(command, digest):
    proc = subprocess.run([sys.executable, "-m", "sl3rep.cli", *command.split()],
                          capture_output=True, env=SUBPROCESS_ENV)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_action_csv():
    code, out, _ = run_cli("action", "--lambda", "0,0", "--delta", "0,0,0",
                           "--gen", "Y1", "--lmax", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith(",v(0;0;0)")


def reference_csv_text(mat) -> str:
    """The CSV writer entry by entry, zeros included."""
    lines = ["," + ",".join(f"v({lab.l};{lab.m1};{lab.m2})" for lab in mat.labels)]
    for lab, row in zip(mat.labels, mat.dense()):
        lines.append(f"v({lab.l};{lab.m1};{lab.m2})," +
                     ",".join(_fmt_complex(z) for z in row))
    return "\n".join(lines)


@pytest.mark.parametrize("lam,delta,gen", [
    ((0.3 + 0.1j, -0.2, -0.1 - 0.1j), (1, 0, 1), "Z1"),
    ((0.5, -0.5, 0.0), (0, 0, 0), "Z-2"),
    ((0.0, -0.0, 0.0), (0, 1, 0), "Y1"),
])
def test_csv_matches_per_entry_writer(lam, delta, gen):
    mat = action.assemble_matrix(SeriesParams(lam, delta), gen, 5)
    assert _csv_text(mat) == reference_csv_text(mat)


def test_csv_writes_signed_zeros_and_non_finite_entries_per_entry():
    params = SeriesParams((0, 0, 0), (0, 0, 0))
    labels = [BasisLabel(0, 0, 0)] + list(basis(params, 2))
    block = np.zeros((len(labels) - 1, 1), dtype=complex)
    block[0, 0] = complex(-0.0, 0.0)
    block[1, 0] = complex(0.0, -0.0)
    block[2, 0] = complex(-0.0, -0.0)
    block[3, 0] = complex(float("nan"), 0.0)
    block[4, 0] = complex(0.0, float("-inf"))
    block[5, 0] = complex(1e-310, -2.5)
    mat = action.ActionMatrix(params, "Z2", 2, labels, {(0, 2): block})
    text = _csv_text(mat)
    assert text == reference_csv_text(mat)
    assert "-0+0i" in text and "0-0i" in text and "nan+0i" in text


def test_compose_preset_exit_code():
    code, out, _ = run_cli("compose", "--preset", "degenerate", "--s", "1/4",
                           "--lmax", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["quarter_integral"] is True


def test_compose_degenerate_at_complex_s_reports_u_pm1_zero():
    # U_{+-1} is decided exactly at s = 0 and 1, so the 7.9e-17 to which
    # 1 + lam1 - lam2 rounds at this s does not enter the report
    code, out, _ = run_cli("compose", "--preset", "degenerate", "--s",
                           "0.123+0.456i", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["U_pm1_zero"] is True
    assert "U_{+-1} vanishes identically on the subspace" in doc["notes"]


def test_verify_suite_pass_and_fields():
    code, out, _ = run_cli("verify", "--suite", "cg", "--lmax", "3",
                           "--samples", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["max_deviation"] < doc["tolerance"]


def test_usage_errors_exit_2():
    assert run_cli("cg", "--k", "0")[0] == 2
    assert run_cli("no-such-command")[0] == 2
    assert run_cli("series", "--delta", "2,0,0", "--lambda", "0,0")[0] == 2
    # an unknown generator, also where the window holds no label
    assert main(["action", "--lambda", "0,0", "--delta", "1,0,0", "--gen", "X1",
                 "--lmax", "0"]) == 2


WIGNER = ["wigner", "--l", "1", "--m1", "0", "--m2", "0", "--alpha", "0",
          "--beta", "1", "--gamma", "0"]
CG = ["cg", "--k", "0", "--j", "0", "--l", "1", "--m", "1"]
SL2 = ["sl2", "compose", "--nu", "1/3"]
SERIES = ["series", "--delta", "0,0,0", "--lmax", "1"]
ACTION = ["action", "--lambda", "0,0", "--delta", "0,0,0", "--gen", "Y1",
          "--lmax", "1"]
COMPOSE = ["compose", "--preset", "degenerate", "--lmax", "4"]
VERIFY = ["verify", "--suite", "cg", "--lmax", "1", "--samples", "1"]


@pytest.mark.parametrize("argv", [
    *[cmd + ["--seed", "1"] for cmd in (WIGNER, CG, SL2, SERIES, ACTION, COMPOSE)],
    SERIES + ["--format", "json"], VERIFY + ["--format", "json"],
    *[cmd + ["--format", "csv"] for cmd in (WIGNER, CG, SL2, COMPOSE)],
    ACTION + ["--format", "table"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_options_a_command_does_not_read_exit_2(argv, capsys):
    assert main(argv) == 2
    assert argv[-2] in capsys.readouterr().err


def test_bare_action_prints_json(capsys):
    assert main(ACTION) == 0
    bare = capsys.readouterr().out
    assert main(ACTION + ["--format", "json"]) == 0
    assert capsys.readouterr().out == bare
    assert json.loads(bare)["metadata"]["generator"] == "Y1"


@pytest.mark.parametrize("preset", ["even-k", "degenerate", "k3", "k23"])
def test_compose_lmax_zero_exits_2(preset, capsys):
    # --lmax 0 is a window, not a request for the default one
    assert main(["compose", "--preset", preset, "--lmax", "0"]) == 2
    assert "lmax must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "theorem-main", "--lambda", "nan,0", "--lmax", "2",
     "--samples", "1"],
    ["verify", "--suite", "diffops", "--lambda", "nan,0", "--lmax", "1",
     "--samples", "2"],
    ["action", "--lambda", "nan,0", "--delta", "0,0,0", "--gen", "Z1",
     "--lmax", "2"],
    ["verify", "--suite", "theorem-main", "--lambda", "1e5,0", "--lmax", "1"],
    # finite components whose zero sum overflows to inf - inf = nan
    ["action", "--lambda", "1e308+0i,1e308", "--delta", "0,0,0", "--gen", "Z1",
     "--lmax", "2"],
], ids=["theorem-main-nan", "diffops-nan", "action-nan", "theorem-main-overflow",
        "action-nan-sum"])
def test_non_finite_or_overflowing_lambda_exits_2(argv):
    assert main(argv) == 2


@pytest.mark.parametrize("command, option", [
    ("compose --preset degenerate --s -7/4 --lmax 4", "--s"),
    ("sl2 compose --nu -3/2", "--nu"),
    ("sl2 ladder --nu -i --l -2", "--nu"),
    ("action --lambda -1/3,1/5 --delta 0,0,0 --gen Z1 --lmax 2", "--lambda"),
    ("action --lambda -0.3+0.1i,0.2 --delta 1,0,1 --gen Z-1 --lmax 2", "--lambda"),
    ("series --delta 0,0,0 --lambda -1,1", "--lambda"),
])
def test_a_negative_value_is_read_as_its_equals_form(command, option, capsys):
    argv = command.split()
    assert main(argv) == 0
    spaced = capsys.readouterr()
    at = argv.index(option)
    assert main(argv[:at] + [f"{option}={argv[at + 1]}"] + argv[at + 2:]) == 0
    assert capsys.readouterr() == spaced and spaced.out


def test_a_negative_value_on_the_command_line():
    spaced = run_cli("sl2", "compose", "--nu", "-3/2")
    assert spaced[0] == 0 and spaced == run_cli("sl2", "compose", "--nu=-3/2")


def test_an_option_followed_by_an_option_still_lacks_its_value(capsys):
    assert main("compose --preset degenerate --s --lmax 4".split()) == 2
    assert "argument --s: expected one argument" in capsys.readouterr().err


def test_theorem_main_overflow_names_lambda(capsys):
    assert main(["verify", "--suite", "theorem-main", "--lambda", "1e5,0",
                 "--lmax", "1"]) == 2
    err = capsys.readouterr().err
    assert "overflows" in err and "100000" in err and "diagonal entry" in err


def test_action_json_at_a_large_lambda_is_json_dumps(capsys):
    from sl3rep.action import assemble_matrix
    from sl3rep.series import SeriesParams

    assert main(["action", "--lambda=1e307+1e307i,-1e307-1e307i",
                 "--delta", "1,0,1", "--gen", "Z-1", "--lmax", "5",
                 "--format", "json"]) == 0
    lam = (1e307 + 1e307j, -1e307 - 1e307j, 0j)
    mat = assemble_matrix(SeriesParams(lam, (1, 0, 1)), "Z-1", 5)
    want = json.dumps(mat.to_json(), sort_keys=True)
    assert capsys.readouterr().out == want + "\n"


@pytest.mark.parametrize("option", ["--alpha", "--beta", "--gamma"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_wigner_refuses_non_finite_angles(option, value, capsys):
    argv = {"--alpha": "0", "--beta": "1.0", "--gamma": "0", option: value}
    assert main(["wigner", "--l", "2", "--m1", "0", "--m2", "0",
                 *(word for item in argv.items() for word in item),
                 "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {option}" in err and "not finite" in err


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    assert main(["series", "--delta", "1,0,1", "--lmax", "2",
                 "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.exists()


def test_unvalidated_numeric_ranges_exit_2():
    code, _, err = run_cli("wigner", "--l", "81", "--m1", "0", "--m2", "0",
                           "--alpha", "0", "--beta", "1.0", "--gamma", "0")
    assert code == 2 and "80" in err
    code, _, err = run_cli("verify", "--suite", "orthogonality", "--lmax", "23")
    assert code == 2 and "Gram block" in err


def test_sl2_compose_at_k_10_to_the_12_stays_small():
    # both walls at k = 10^12 build no list of the k - 1 finite weights: run
    # with the address space capped at 1 GB, where such a list cannot fit
    code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from fractions import Fraction
from sl3rep.cli import main
from sl3rep.sl2 import SL2Params, sl2_composition_report
k = 10 ** 12
for nu, kind in ((Fraction(k - 1, 2), "discrete-sub"),
                 (Fraction(1 - k, 2), "finite-sub")):
    rep = sl2_composition_report(SL2Params(nu, 0))
    assert rep.kind == kind and rep.k == k, rep
    texts = rep.lines() + [rep.sub_weights, rep.quotient]
    assert max(map(len, texts)) < 100, texts
assert main(["sl2", "compose", "--nu", "-999999999999/2"]) == 0
"""
    pytest.importorskip("resource")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=SUBPROCESS_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "{-999999999998, -999999999996, ..., 999999999998}" in proc.stdout


def test_imports_stay_clear_of_scipy():
    # scipy.linalg alone takes longer to import than the whole package, and
    # no sl3rep module needs it: the oracle's matrix exponential is numpy's
    code = ("import importlib, pkgutil, sys, sl3rep\n"
            "names = [m.name for m in pkgutil.iter_modules(sl3rep.__path__)]\n"
            "for name in names: importlib.import_module('sl3rep.' + name)\n"
            "print(sorted(names))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=SUBPROCESS_ENV)
    names, loaded = proc.stdout.splitlines()
    assert "'oracle'" in names and "'cli'" in names
    assert loaded == "[]"


def test_exact_engine_runs_without_numpy():
    # numpy serves only the float side, imported inside the functions that
    # call it; a None in sys.modules makes any import of it fail
    code = """
import sys
sys.modules["numpy"] = None
from fractions import Fraction
from itertools import combinations
import sl3rep, sl3rep.action, sl3rep.structure
from sl3rep import VerificationError
from sl3rep.action import CONVENIENT_BASIS, assemble_matrix, bracket_check
from sl3rep.series import SeriesParams, iwasawa
from sl3rep.structure import (SubspaceSpec, _numeric_recheck,
                              degenerate_series_report, k3_chain_report,
                              verify_invariant)
from sl3rep.wigner import EulerAngles, WignerIndex, wigner_D

assert k3_chain_report(6).to_json()["certificates"]
leaking = SubspaceSpec("m1 = 0", SeriesParams(
    (Fraction(1, 3), Fraction(1, 5), Fraction(-8, 15)), (0, 0, 0)),
    lambda lab: lab.m1 == 0)
assert not verify_invariant(leaking, 8).invariant
try:  # the complex re-evaluation of the leaking span
    _numeric_recheck(leaking, leaking.labels(6))
except VerificationError:
    pass
else:
    raise AssertionError("the float recheck missed the leak")
for s in (Fraction(1, 4), 0.3 + 0.1j):
    degenerate_series_report(s, 6)
assert all(bracket_check(a, b, WignerIndex(2, 1, 0))
           for a, b in combinations(CONVENIENT_BASIS, 2))
assert sys.modules["numpy"] is None
del sys.modules["numpy"]
wigner_D(WignerIndex(1, 0, 0), EulerAngles(0.0, 1.0, 0.0))
iwasawa([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
assemble_matrix(SeriesParams((0.5j, -0.5j, 0), (0, 0, 0)), "Z1", 2).dense()
print(sys.modules["numpy"].__name__)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=SUBPROCESS_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "numpy\n"


@pytest.mark.parametrize("suite", ["orthogonality", "cg", "theorem-main",
                                   "diffops", "sl2"])
def test_verify_without_samples_exits_2(suite, capsys):
    assert main(["verify", "--suite", suite, "--samples", "0"]) == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("suite, lmax", [
    ("orthogonality", -1), ("cg", 0), ("cg", -1), ("theorem-main", -1),
    ("diffops", -1), ("sl2", -1)])
def test_verify_without_labels_exits_2(suite, lmax, capsys):
    assert main(["verify", "--suite", suite, "--lmax", str(lmax)]) == 2
    err = capsys.readouterr().err
    assert "--lmax" in err and "low >= high" not in err


@pytest.mark.parametrize("suite, flag, value", [
    ("orthogonality", "--lambda", "1,2"), ("orthogonality", "--samples", "2"),
    ("orthogonality", "--seed", "5"), ("cg", "--lambda", "1,2"),
    ("sl2", "--lmax", "9"), ("sl2", "--lambda", "5,5")])
def test_verify_refuses_options_its_suite_does_not_read(suite, flag, value,
                                                        capsys):
    assert main(["verify", "--suite", suite, flag, value]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and not captured.out


@pytest.mark.parametrize("bare, explicit", [
    (["--suite", "orthogonality"], ["--lmax", "3"]),
    (["--suite", "cg"], ["--lmax", "3", "--samples", "5", "--seed", "0"]),
    (["--suite", "sl2"], ["--samples", "5", "--seed", "0"]),
])
def test_verify_defaults_are_those_of_the_options_read(bare, explicit, capsys):
    # the report echoes the defaults of the options a suite reads
    assert main(["verify", *bare]) == 0
    out = capsys.readouterr().out
    assert main(["verify", *bare, *explicit]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("preset, flag, value", [
    ("k23", "--k", "7"), ("k23", "--s", "1/3"), ("k3", "--k", "2"),
    ("k3", "--s", "1/4"), ("even-k", "--s", "1/4"), ("degenerate", "--k", "2")])
def test_compose_refuses_options_its_preset_does_not_read(preset, flag, value,
                                                          capsys):
    assert main(["compose", "--preset", preset, flag, value, "--lmax", "27"]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and not captured.out


@pytest.mark.parametrize("preset, explicit", [
    ("even-k", ["--k", "2"]), ("degenerate", ["--s", "1/4"])])
def test_compose_defaults_are_those_of_the_options_read(preset, explicit, capsys):
    assert main(["compose", "--preset", preset, "--lmax", "6"]) == 0
    out = capsys.readouterr().out
    assert main(["compose", "--preset", preset, "--lmax", "6", *explicit]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("nu, l, eps", [("1/2", "2", "0"), ("0.3+0.1i", "-3", "1")])
def test_sl2_ladder_json_holds_the_table_rows(nu, l, eps, capsys):
    argv = ["sl2", "ladder", "--nu", nu, "--l", l, "--eps", eps]
    assert main(argv) == 0
    table = capsys.readouterr().out.splitlines()
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["nu"], doc["eps"], doc["l"]) == (str(_parse_scalar(nu)), int(eps), int(l))
    assert [f"{row['name']}: v_{l} -> ({row['coefficient']}) v_{row['target']}"
            for row in doc["rows"]] == table
    assert [row["name"] for row in doc["rows"]] == ["raise", "lower", "weight"]


@pytest.mark.parametrize("argv, err", [
    (["sl2", "ladder", "--nu", "1/2", "--l", "1", "--eps", "0"], "parity"),
    (["sl2", "ladder", "--nu", "1/2", "--eps", "1"], "parity"),
    (["sl2", "compose", "--nu", "1/2", "--l", "2"], "--l"),
])
def test_sl2_refuses_a_weight_it_cannot_use(argv, err, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert err in captured.err and not captured.out


@pytest.mark.parametrize("k, j, l, m", [
    (3, 0, 4, 0), (-3, 0, 4, 0), (0, 3, 4, 0), (0, -3, 4, 0), (0, 0, -1, 0),
    (0, 0, 1, 2), (0, 0, 1, -2)])
def test_cg_refuses_an_index_that_is_no_coupling_index(k, j, l, m, capsys):
    assert main(["cg", "--k", str(k), "--j", str(j), "--l", str(l),
                 "--m", str(m)]) == 2
    captured = capsys.readouterr()
    assert "coupling index" in captured.err and not captured.out


@pytest.mark.parametrize("k, j, l, m", [(2, -2, 1, 1), (0, -2, 1, 0), (2, 0, 0, 0)])
def test_cg_prints_a_zero_coefficient_of_a_coupling_index(k, j, l, m, capsys):
    # ruled out by the triangle or the range rule, not by the index
    assert main(["cg", "--k", str(k), "--j", str(j), "--l", str(l),
                 "--m", str(m)]) == 0
    assert capsys.readouterr().out == "0 ≈ 0.000000\n"


def test_series_without_labels_exits_2(capsys):
    assert main(["series", "--delta", "0,0,0", "--lmax", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--lmax" in captured.err and not captured.out


def test_verify_cg_compares_every_sample(monkeypatch, capsys):
    # at lmax 1-3 some draws reach no coupled target; at lmax 1 and seed 5
    # none of the first five draws does, and five draws once passed the
    # suite without a comparison
    from sl3rep import oracle

    calls = []
    real = oracle.product_integral
    monkeypatch.setattr(oracle, "product_integral",
                        lambda *a: calls.append(a) or real(*a))
    assert main(["verify", "--suite", "cg", "--lmax", "1", "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert len(calls) == 5
    monkeypatch.setattr(oracle, "product_integral",
                        lambda *a: calls.append(a) or 0j)
    for lmax in (1, 2, 3):
        for seed in range(200):
            calls.clear()
            main(["verify", "--suite", "cg", "--lmax", str(lmax),
                  "--seed", str(seed), "--samples", "3"])
            assert len(calls) == 3, (lmax, seed)
    capsys.readouterr()


def test_main_callable_in_process(capsys):
    assert main(["cg", "--k", "2", "--j", "2", "--l", "3", "--m", "3",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["float"] == pytest.approx(1.0)


def test_verification_error_exits_1(monkeypatch, capsys):
    def failing_report(lmax):
        raise VerificationError("rung mismatch at l=2, j=2")

    monkeypatch.setattr(structure, "k3_chain_report", failing_report)
    assert main(["compose", "--preset", "k3"]) == 1
    assert "rung mismatch" in capsys.readouterr().err


def test_theorem_main_default_step_passes(capsys):
    # at the former default step 1e-4 the central-difference error alone
    # was 1.39e-6 here, above the suite's 1e-6 tolerance
    assert main(["verify", "--suite", "theorem-main",
                 "--lambda=0.9401+0.7472i,0.1396+0.5839i", "--lmax", "3",
                 "--samples", "2", "--seed", "29482"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["step"] == 2e-05


# at lambda = (8i, 8i, -16i) the O(h^2) error of the central differences at
# the suites' default steps is above their tolerances (1.09e-6 for
# theorem-main, 3.1e-4 for diffops) for a correct expansion
FD_AT_LARGE_LAMBDA = {
    "theorem-main": ["verify", "--suite", "theorem-main", "--lambda", "8i,8i",
                     "--lmax", "3", "--samples", "2", "--seed", "1"],
    "diffops": ["verify", "--suite", "diffops", "--lambda", "8i,8i",
                "--lmax", "3", "--samples", "20", "--seed", "1"],
}


@pytest.mark.parametrize("suite", sorted(FD_AT_LARGE_LAMBDA))
def test_unresolved_step_exits_2(suite, capsys):
    assert main(FD_AT_LARGE_LAMBDA[suite]) == 2
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["passed"] is False and doc["max_deviation"] > doc["tolerance"]
    assert 3 * doc["half_step_deviation"] <= doc["max_deviation"]
    assert "cannot resolve the tolerance" in captured.err


def test_wrong_expansion_still_exits_1(monkeypatch, capsys):
    exact = action.act_Z

    def off_by_one_percent(n, idx, lam=None):
        return exact(n, idx, lam).scaled(1.01)

    monkeypatch.setattr(action, "act_Z", off_by_one_percent)
    assert main(FD_AT_LARGE_LAMBDA["theorem-main"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["half_step_deviation"] > doc["max_deviation"] / 3


def test_wrong_coordinate_operator_still_exits_1(monkeypatch, capsys):
    from sl3rep import oracle

    exact = oracle._coord_operator

    def off_by_one_percent(tag, F, point, m2, h):
        return 1.01 * exact(tag, F, point, m2, h)

    monkeypatch.setattr(oracle, "_coord_operator", off_by_one_percent)
    assert main(FD_AT_LARGE_LAMBDA["diffops"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["half_step_deviation"] > doc["max_deviation"] / 3


def test_verify_diffops_draws_diagonal_indices(monkeypatch, capsys):
    # the coordinate slice sits at k = 1, where both sides vanish for
    # m1 != m2, so an off-diagonal draw would compare two zeros
    from sl3rep import oracle

    indices = []

    def record(lam, idx, point, **step):
        indices.append(idx)
        return {"max_deviation": 0.0, "step": 1e-4}

    monkeypatch.setattr(oracle, "coordinate_diffops_check", record)
    for seed in range(20):
        assert main(["verify", "--suite", "diffops", "--seed", str(seed)]) == 0
    capsys.readouterr()
    assert len(indices) == 100
    assert all(idx.m1 == idx.m2 for idx in indices), indices


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"', text, re.M).group(1)
    assert sl3rep.__version__ == declared


def readme_command_lines() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("sl3rep ")]


def test_readme_command_lines_exit_0(capsys):
    lines = readme_command_lines()
    assert len(lines) >= 10
    failed = [line for line in lines
              if main(shlex.split(line, comments=True)[1:]) != 0]
    capsys.readouterr()
    assert not failed
