"""Golden corpus: fixed CLI commands whose --json output must not change.

Each command's expected stdout lives in ``tests/golden/<name>.json`` and is
compared byte for byte.  After a deliberate output change, rewrite the
files with ``PYTHONPATH=src python3 tests/test_golden.py --regenerate`` and
review the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from charvar import cli

GOLDEN = Path(__file__).with_name("golden")


def _spec(torus_rank, factors, generators):
    return json.dumps(
        {
            "torus_rank": torus_rank,
            "factors": factors,
            "central_generators": [
                {"torus": list(torus), "factors": list(ss)} for torus, ss in generators
            ],
        }
    )


# (C*)^3 x SL(2)^3 glued pairwise, like GL(2)^3 with the torus coordinates coupled
TORUS_COUPLED = _spec(
    3,
    [2, 2, 2],
    [
        (["1/2", "1/2", "0"], [1, 1, 0]),
        (["0", "1/2", "1/2"], [0, 1, 1]),
        (["0", "0", "0"], [1, 0, 0]),
    ],
)
# SL(2) x SL(4) x SL(2) modulo an order-8 subgroup with two sign-flip slots
MIXED_SL2_SL4 = _spec(
    0, [2, 4, 2], [([], [1, 2, 0]), ([], [0, 2, 1]), ([], [0, 0, 1])]
)
# torus angles with denominators 2, 3 and 4 in one presentation
MIXED_DENOMINATORS = _spec(
    2,
    [2, 3, 4],
    [
        (["1/2", "0"], [1, 0, 0]),
        (["1/3", "3/4"], [0, 1, 0]),
        (["0", "1/4"], [0, 0, 2]),
    ],
)

COMMANDS = {
    "analyze_pgl2_7_g1": ["analyze", "--group", "PGL(2)^7", "--genus", "1"],
    "classify_pgl2_7_g1": ["classify", "--group", "PGL(2)^7", "--genus", "1"],
    "terminalize_pgl2_7_g2": ["terminalize", "--group", "PGL(2)^7", "--genus", "2"],
    "fixed_loci_pgl2_5_g2": ["fixed-loci", "--group", "PGL(2)^5", "--genus", "2"],
    "analyze_gl3_g2": ["analyze", "--group", "GL(3)", "--genus", "2"],
    "analyze_gl2_g1": ["analyze", "--group", "GL(2)", "--genus", "1"],
    "analyze_sl2_pgl3_g1": ["analyze", "--group", "SL(2)xPGL(3)", "--genus", "1"],
    "classify_sl2_2_g2": ["classify", "--group", "SL(2)^2", "--genus", "2"],
    "fixed_loci_pgl3_g2_oracle": [
        "fixed-loci", "--group", "PGL(3)", "--genus", "2", "--oracle",
    ],
    "strata_sl4_g2": ["strata", "--group", "SL(4)", "--genus", "2"],
    "strata_gl2_sl3_g1": ["strata", "--group", "GL(2)xSL(3)", "--genus", "1"],
    "presets": ["presets"],
    "analyze_torus_coupled_g1": ["analyze", "--group", TORUS_COUPLED, "--genus", "1"],
    "classify_torus_coupled_g2": ["classify", "--group", TORUS_COUPLED, "--genus", "2"],
    "fixed_loci_torus_coupled_g2_oracle": [
        "fixed-loci", "--group", TORUS_COUPLED, "--genus", "2", "--oracle",
    ],
    "terminalize_torus_coupled_g1": [
        "terminalize", "--group", TORUS_COUPLED, "--genus", "1",
    ],
    "analyze_mixed_sl2_sl4_g1": ["analyze", "--group", MIXED_SL2_SL4, "--genus", "1"],
    "fixed_loci_mixed_sl2_sl4_g1_oracle": [
        "fixed-loci", "--group", MIXED_SL2_SL4, "--genus", "1", "--oracle",
    ],
    "classify_mixed_sl2_sl4_g3": ["classify", "--group", MIXED_SL2_SL4, "--genus", "3"],
    "analyze_mixed_denominators_g2": [
        "analyze", "--group", MIXED_DENOMINATORS, "--genus", "2",
    ],
    "fixed_loci_mixed_denominators_g1": [
        "fixed-loci", "--group", MIXED_DENOMINATORS, "--genus", "1",
    ],
    "terminalize_mixed_denominators_g1": [
        "terminalize", "--group", MIXED_DENOMINATORS, "--genus", "1",
    ],
    "verify_fixed_loci_n2346_g123": [
        "verify", "--suite", "fixed-loci", "--n", "2,3,4,6", "--genus", "1,2,3",
    ],
    "verify_all_n2_g2_seed42": [
        "verify", "--suite", "all", "--n", "2", "--genus", "2",
        "--trials", "1", "--seed", "42",
    ],
    "fixed_loci_pgl4_g2_oracle": [
        "fixed-loci", "--group", "PGL(4)", "--genus", "2", "--oracle",
    ],
    "fixed_loci_pgl2_3_g1_oracle": [
        "fixed-loci", "--group", "PGL(2)^3", "--genus", "1", "--oracle",
    ],
}


def _run(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--json"])
    assert code == 0, (argv, code)
    return out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, monkeypatch):
    # the CLI's JSON writer must give the stdlib's bytes on the real payload
    writer = cli._json_text
    payloads = []
    monkeypatch.setattr(cli, "_json_text", lambda p: payloads.append(p) or writer(p))
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert _run(COMMANDS[name]) == expected
    [payload] = payloads
    assert writer(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_every_golden_file_has_a_command():
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(COMMANDS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_golden.py --regenerate")
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.json").write_bytes(_run(argv))
