"""One home for every verification expectation, the verdict rule, the size
limits of the verification entry points, and the BLAS thread-count contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import test_acceptance
from charvar import cli, verify
from charvar.numerics import ConvergenceError
from test_cli import run

ROOT = Path(__file__).resolve().parents[1]


# (name in charvar.verify, mutated value, run_suite arguments, criterion)
MUTATIONS = [
    ("expected_h1", lambda n, genus: -1, ("cohomology", [2], [2], 1, 0), 6),
    ("TRANSFER_TOL", 1e-30, ("moment-map", [2], [2], 1, 0), 8),
    (
        "codim_highgenus_from_orders",
        lambda factors, orders, genus: -1,
        ("fixed-loci", [2], [2], 1, 0),
        5,
    ),
]


@pytest.mark.parametrize("name, value, suite_args, criterion", MUTATIONS)
def test_one_mutated_expectation_fails_suite_and_criterion(
    monkeypatch, name, value, suite_args, criterion
):
    def suite_ok():
        return all(rec["ok"] for rec in verify.run_suite(*suite_args))

    monkeypatch.setattr(verify, name, value)
    assert not suite_ok()
    # a shared check may fail by assertion or by the ValueError of a refused
    # transfer; either fails the criterion
    with pytest.raises((AssertionError, ValueError)):
        test_acceptance.CRITERIA[criterion - 1]()
    monkeypatch.undo()
    assert suite_ok()
    test_acceptance.CRITERIA[criterion - 1]()


def test_suite_verdict_fails_on_failures_and_on_strict_unreliable_cuts():
    passed, shaky, failed = {"ok": True}, {"ok": True, "reliable": False}, {"ok": False}
    assert verify.suite_verdict([passed, shaky], strict=False) == (0, 1, None)
    assert verify.suite_verdict([passed, shaky], strict=True) == (
        0, 1, "1 unreliable rank cut(s) in strict mode"
    )
    assert verify.suite_verdict([failed, shaky], strict=True) == (
        1, 1, "1 record(s) disagreed with the oracle"
    )


def test_report_survives_any_exception(monkeypatch, capsys):
    def no_convergence():
        raise ConvergenceError("no convergence")

    def bad_value():
        raise ValueError("bad value")

    monkeypatch.setattr(
        test_acceptance, "CRITERIA", (no_convergence, bad_value, lambda: "fine")
    )
    assert test_acceptance.report() == 1
    assert capsys.readouterr().out.splitlines() == [
        "criterion 1: FAIL (ConvergenceError: no convergence)",
        "criterion 2: FAIL (ValueError: bad value)",
        "criterion 3: PASS (fine)",
    ]


# everything that samples a tuple, counts orbits or ranks an array
_WORK = (
    "sample_random_rep",
    "sample_diagonal_rep",
    "sample_moment_start",
    "genus1_orbit_oracle",
    "fixed_tangent_oracle",
    "fixed_point_tangent_check",
)


@pytest.mark.parametrize(
    "argv, value, limit",
    [
        (("verify", "--suite", "all", "--n", "2,13", "--genus", "2"), "n = 13", 12),
        (("verify", "--suite", "moment-map", "--genus", "2,33"), "genus = 33", 32),
        (("fixed-loci", "--group", "PGL(1001)", "--genus", "2", "--oracle"), "n = 1001", 1000),
        # the kernel twist is trivial on SL(1001), and its count still ranks 1001^2
        (
            ("fixed-loci", "--group", "PGL(2)xSL(1001)", "--genus", "3", "--oracle"),
            "n = 1001",
            1000,
        ),
    ],
)
def test_refusal_above_a_limit_comes_before_any_work(capsys, monkeypatch, argv, value, limit):
    calls = []
    for name in (*_WORK, "twist_rows"):
        module = cli if name == "twist_rows" else verify
        monkeypatch.setattr(module, name, lambda *a, _name=name, **k: calls.append(_name))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error[size]") and value in err and f"limit {limit}" in err
    assert calls == []


def test_inputs_at_the_limits_are_answered(capsys, monkeypatch):
    code, out, err = run(
        capsys, "verify", "--suite", "fixed-loci", "--n", "12", "--genus", "1,32"
    )
    assert code == 0, err
    # genus one counts orbits in O(1) and has no factor limit
    code, out, err = run(capsys, "fixed-loci", "--group", "PGL(1500)", "--genus", "1", "--oracle")
    assert code == 0, err

    cases = []
    monkeypatch.setattr(verify, "order_mismatch", lambda *case: cases.append(case))
    code, out, err = run(capsys, "fixed-loci", "--group", "PGL(1000)", "--genus", "2", "--oracle")
    assert code == 0, err
    assert (1000, 1000, 2) in cases


def test_integer_fields_do_not_depend_on_blas_threads():
    # at n >= 8 OpenBLAS splits the solves across threads and float fields
    # may differ in their last digits; integers and every verdict may not
    argv = (
        "verify", "--suite", "all", "--n", "8,10", "--genus", "2,3",
        "--trials", "1", "--seed", "5", "--json",
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "charvar.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for threads in ("1", "2")
    ]

    def without_floats(value):
        if isinstance(value, float):
            return float
        if isinstance(value, dict):
            return {k: without_floats(v) for k, v in value.items()}
        if isinstance(value, list):
            return [without_floats(v) for v in value]
        return value

    payloads = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        payloads.append(without_floats(json.loads(out)))
    assert len(payloads[0]["records"]) == 16
    assert payloads[0] == payloads[1]
