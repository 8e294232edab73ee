"""Exit codes, JSON shapes, config merging, and determinism of the CLI."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from charvar import classify, cli, fixed_loci, groups, verify
from charvar.fixed_loci import TwistRows
from charvar.groups import CentralSubgroup, ElementRows
from charvar.strata import StratumInfo, StratumRows, strata_table
from conftest import mixed_denominator_specs, small_group_catalog


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_presets_listing(capsys):
    code, out, err = run(capsys, "presets")
    assert code == 0
    assert "SL(n)" in out and "PGL(n)" in out

    payload = run_json(capsys, "presets")
    patterns = [row["pattern"] for row in payload["presets"]]
    assert "GL(n)" in patterns and "A^k" in patterns


def test_analyze_json_shape(capsys):
    report = run_json(capsys, "analyze", "--group", "GL(2)", "--genus", "2")
    assert report["dimension"] == 10
    assert report["singular_codim"] == 2
    assert report["verdict"]["kind"] == "resolution"
    assert report["terminalization"]["smooth"] is True
    assert report["verification"] is None
    # every headline field is justified by a stated rule
    for key in ("dimension", "strata", "singular_codim", "verdict"):
        assert isinstance(report["citations"][key], str)
        assert len(report["citations"][key]) > 20


def test_dimension_citation_states_the_computed_formula(capsys):
    report = run_json(capsys, "analyze", "--group", "GL(3)", "--genus", "2")
    assert report["citations"]["dimension"] == (
        "dimension count: 2gh for the torus plus 2(g-1)(n_i^2-1) summed over "
        "SL factors at genus >= 2, and 2h plus 2(n_i-1) at genus one"
    )
    # the cited formula at h = 1, g = 2 and one SL(3) factor
    assert report["dimension"] == 2 * 2 * 1 + 2 * (2 - 1) * (3 * 3 - 1)


def test_strata_row_keys(capsys):
    table = run_json(capsys, "strata", "--group", "SL(3)", "--genus", "2")
    rows = table["factors"][0]["strata"]
    assert rows, "no strata emitted"
    for row in rows:
        assert set(row) == {"nu", "dim_gl", "dim_sl", "codim", "fiber_bounds", "open"}
    open_rows = [row for row in rows if row["open"]]
    assert len(open_rows) == 1 and open_rows[0]["codim"] == 0
    sub = next(row for row in rows if row["nu"] == [[1, 2], [1, 1]])
    assert sub["dim_gl"] == 14 and sub["codim"] == 6


def test_classify_json_has_citation(capsys):
    payload = run_json(capsys, "classify", "--group", "PGL(2)", "--genus", "2")
    assert payload["kind"] == "no_resolution"
    assert payload["has_resolution"] is False
    assert "genus" in payload["citation"]
    assert payload["properties"]["terminal"] is False


def test_terminalize_json(capsys):
    plan = run_json(capsys, "terminalize", "--group", "SL(2)xSL(3)", "--genus", "1")
    kinds = [leaf["kind"] for leaf in plan["leaves"]]
    assert kinds == ["hilbert_chow", "hilbert_chow"]
    assert plan["smooth"] is True


def test_fixed_loci_with_oracle(capsys):
    code, out, err = run(
        capsys, "fixed-loci", "--group", "PGL(2)", "--genus", "2", "--oracle"
    )
    assert code == 0, err
    assert "codim 4" in out
    assert "oracle cross-checks passed" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--group", "XQ(2)", "--genus", "2"),
        ("analyze", "--group", "SL(2)"),  # genus missing
        ("analyze", "--group", "SL(2)", "--genus", "0"),
        ("classify", "--genus", "2"),  # group missing
        ("no-such-command",),
        (),
        ("verify", "--suite", "fixed-loci", "--n", "2,x"),
        ("verify", "--suite", "cohomology", "--n", "2", "--genus", "1"),
        ("verify", "--suite", "fixed-loci", "--n", "0"),
        ("verify", "--suite", "fixed-loci", "--n", "-2"),
        ("verify", "--suite", "fixed-loci", "--n", "1"),
        ("verify", "--suite", "cohomology", "--n", "1"),
        ("verify", "--suite", "moment-map", "--genus", "0"),
        ("verify", "--suite", "moment-map", "--genus", "-1"),
        ("analyze", "--group", "SL(2)", "--genus", "2", "--config", "/no/such/file"),
        ("strata", "--group", "SL(60)", "--genus", "2"),
        ("analyze", "--group", "SL(2)xSL(60)", "--genus", "2"),
    ],
)
def test_input_errors_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error[")


@pytest.mark.parametrize(
    "group",
    [
        {"factors": [2], "central_generators": [{"factors": [None]}]},
        {"factors": [2], "central_generators": [{"factors": [1.5]}]},
        {"factors": [2], "central_generators": [{"factors": ["1"]}]},
        {"factors": [2], "central_generators": [{"factors": [True]}]},
        {"factors": [2], "central_generators": [{"factors": 5}]},
        {"factors": [2], "central_generators": [{"factors": "1"}]},
        {"factors": [2], "central_generators": [{"factor": [1]}]},
        {"factors": [2], "central_generators": 5},
        {"torus_rank": 1, "factors": [2], "central_generators": [{"torus": 5, "factors": [1]}]},
        {"torus_rank": 1, "factors": [2], "central_generators": [{"torus": [False], "factors": [1]}]},
        {"torus_rank": True, "factors": [2]},
        {"factors": [True, 2]},
    ],
    ids=repr,
)
def test_malformed_generator_fields_are_group_spec_errors(capsys, group):
    code, out, err = run(capsys, "classify", "--group", json.dumps(group), "--genus", "2")
    assert code == 1 and out == ""
    assert err.startswith("error[group-spec]")
    assert "Traceback" not in err


def test_size_limit_names_n_and_the_limit(capsys):
    limit = cli.MAX_LISTED_N
    for command in ("strata", "analyze"):
        code, out, err = run(capsys, command, "--group", f"SL({limit + 1})", "--genus", "1")
        assert code == 1 and out == ""
        assert err.startswith("error[size]")
        assert f"n = {limit + 1}" in err and f"limit {limit}" in err
    # the limit itself is listed (genus one keeps this quick)
    assert run(capsys, "strata", "--group", f"SL({limit})", "--genus", "1")[0] == 0


def test_malformed_config_exits_1(capsys, tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "presets", "--config", str(bad))
    assert code == 1 and "error[config]" in err

    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    code, out, err = run(capsys, "presets", "--config", str(listy))
    assert code == 1 and "error[config]" in err


def test_config_supplies_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "SL(3)", "genus": 2}))
    payload = run_json(capsys, "classify", "--config", str(cfg))
    assert payload["kind"] == "no_resolution"

    # explicit flag beats the config value
    code, out, err = run(
        capsys, "classify", "--config", str(cfg), "--group", "SL(2)", "--json"
    )
    assert code == 0
    assert json.loads(out)["kind"] == "resolution"


_VERIFY = {"suite": "fixed-loci", "sizes": [2], "genera": [2], "trials": 1}


@pytest.mark.parametrize(
    "command, config, refused",
    [
        ("classify", {"group": "SL(2)", "genus": 2.7}, True),
        ("classify", {"group": "SL(2)", "genus": True}, True),
        ("classify", {"group": "SL(2)", "genus": None}, True),
        ("classify", {"group": "SL(2)", "genus": "2.0"}, True),
        ("classify", {"group": "SL(2)", "genus": [2]}, True),
        ("classify", {"group": "SL(2)", "genus": 2, "json": "no"}, True),
        ("classify", {"group": "SL(2)", "genus": 2, "json": 0}, True),
        ("classify", {"group": 5, "genus": 2}, True),
        ("fixed-loci", {"group": "PGL(2)", "genus": 2, "oracle": 1}, True),
        ("verify", {**_VERIFY, "trials": 1.9}, True),
        ("verify", {**_VERIFY, "seed": 1.5}, True),
        ("verify", {**_VERIFY, "sizes": [2.5]}, True),
        ("verify", {**_VERIFY, "sizes": "2,x"}, True),
        ("verify", {**_VERIFY, "genera": [True]}, True),
        ("verify", {**_VERIFY, "strict": "no"}, True),
        ("verify", {**_VERIFY, "suite": 1}, True),
        # what the flags themselves accept
        ("classify", {"group": "SL(2)", "genus": "2"}, False),
        ("classify", {"group": "SL(2)", "genus": 2, "json": False}, False),
        ("fixed-loci", {"group": {"factors": [2], "central_generators": []}, "genus": 2}, False),
        ("verify", {**_VERIFY, "sizes": "2,3", "genera": "1,2", "seed": "7"}, False),
        ("verify", {**_VERIFY, "strict": True}, False),
    ],
    ids=repr,
)
def test_config_values_are_typed_not_coerced(capsys, tmp_path, command, config, refused):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, command, "--config", str(cfg))
    if refused:
        assert code == 1 and out == ""
        assert err.startswith("error[config]") and "Traceback" not in err
    else:
        assert code == 0, err


def test_verify_fixed_loci_passes(capsys):
    payload = run_json(
        capsys, "verify", "--suite", "fixed-loci", "--n", "2,3,4", "--genus", "1,2"
    )
    assert payload["ok"] is True
    assert len(payload["records"]) == 6
    assert all(rec["checks"] > 0 for rec in payload["records"])


def test_verify_cohomology_passes(capsys):
    payload = run_json(
        capsys,
        "verify", "--suite", "cohomology",
        "--n", "2", "--genus", "2", "--trials", "2", "--seed", "11",
    )
    assert payload["ok"] is True
    kinds = [rec["kind"] for rec in payload["records"]]
    assert kinds.count("irreducible-random") == 2
    assert kinds.count("commuting-diagonal") == 1
    for rec in payload["records"]:
        if rec["kind"] == "irreducible-random":
            assert rec["h"] == [0, 6, 0]
        else:
            assert rec["h"][0] == 1 and rec["h"][2] == 1


def test_verify_moment_map_passes(capsys):
    payload = run_json(
        capsys,
        "verify", "--suite", "moment-map",
        "--n", "2,3", "--genus", "2", "--trials", "2", "--seed", "5",
    )
    assert payload["ok"] is True
    for rec in payload["records"]:
        assert rec["moment_residual"] <= 1e-8
        assert rec["relator_residual"] <= 1e-7


def test_verify_deterministic(capsys):
    argv = (
        "verify", "--suite", "all",
        "--n", "2", "--genus", "2", "--trials", "1", "--seed", "42", "--json",
    )
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_forced_oracle_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(verify, "genus1_orbit_oracle", lambda n, pair: 999)
    code, out, err = run(
        capsys, "verify", "--suite", "fixed-loci", "--n", "2", "--genus", "1"
    )
    assert code == 2
    assert "error[verify]" in err

    code, out, err = run(
        capsys, "fixed-loci", "--group", "PGL(2)", "--genus", "1", "--oracle"
    )
    assert code == 2
    assert "error[oracle]" in err


def test_strict_flag_accepted(capsys):
    payload = run_json(
        capsys,
        "verify", "--suite", "fixed-loci", "--n", "2", "--genus", "2", "--strict",
    )
    assert payload["strict"] is True and payload["ok"] is True


def test_analyze_human_output_mentions_plan(capsys):
    code, out, err = run(capsys, "analyze", "--group", "PGL(2)", "--genus", "2")
    assert code == 0
    assert "terminalization plan" in out
    assert "Q-factorial terminal" in out


def test_oracle_checks_second_pair_coordinate(capsys, monkeypatch):
    real = verify.genus1_orbit_oracle

    def wrong_in_second_coordinate(n, pair):
        return 999 if pair[0] == 0 and pair[1] else real(n, pair)

    monkeypatch.setattr(verify, "genus1_orbit_oracle", wrong_in_second_coordinate)
    payload = json.loads(
        run(capsys, "fixed-loci", "--group", "PGL(3)", "--genus", "1", "--oracle", "--json")[1]
    )
    problems = payload["oracle_mismatches"]
    assert len(problems) == 2
    assert all("as pair (0, " in p for p in problems)


def _count_calls(monkeypatch, module, name):
    """Count calls to ``module.name`` made through any charvar module that
    binds the same function."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("charvar") and vars(mod).get(name) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_oracle_runs_once_per_distinct_case(capsys, monkeypatch):
    # PGL(2)^5 has 31 kernel twists over 5 factors but only the cases
    # (n, l) = (2, 1) and (2, 2)
    tangent = _count_calls(monkeypatch, verify, "fixed_tangent_oracle")
    numeric = _count_calls(monkeypatch, verify, "fixed_point_tangent_check")
    code, out, err = run(
        capsys, "fixed-loci", "--group", "PGL(2)^5", "--genus", "2", "--oracle"
    )
    assert code == 0, err
    assert sorted(tangent) == sorted(numeric) == [(2, 1, 2), (2, 2, 2)]


def test_fixed_loci_oracle_answers_pgl200(capsys):
    # the combinatorial and the numeric tangent counts are both polynomial
    code, out, err = run(
        capsys, "fixed-loci", "--group", "PGL(200)", "--genus", "2", "--oracle", "--json"
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["oracle_mismatches"] == []
    assert len(payload["twists"]) == 199


def test_analyze_plans_once_and_never_scans_the_kernel(capsys, monkeypatch):
    plans = _count_calls(monkeypatch, cli, "plan_terminalization")
    scans = _count_calls(monkeypatch, fixed_loci, "min_nonfree_codim")
    code, out, err = run(capsys, "analyze", "--group", "PGL(2)^5", "--genus", "2")
    assert code == 0, err
    assert len(plans) == 1
    assert len(scans) == 0


def test_classify_reports_properties_once_and_never_scans_the_kernel(capsys, monkeypatch):
    reports = _count_calls(monkeypatch, classify, "properties_report")
    scans = _count_calls(monkeypatch, fixed_loci, "min_nonfree_codim")
    code, out, err = run(capsys, "classify", "--group", "PGL(2)^5", "--genus", "2", "--json")
    assert code == 0, err
    assert json.loads(out)["properties"]["singular_codim"] == 2
    assert len(reports) == 1
    assert len(scans) == 0


def test_fixed_loci_scans_the_kernel_once(capsys, monkeypatch):
    # Z0 is listed once, and the minimum comes from the pass that builds the
    # rows: no second scan of the kernel, no per-element result objects
    listed = _count_listings(monkeypatch)
    scans = _count_calls(monkeypatch, fixed_loci, "min_nonfree_codim")
    orders = _count_calls(monkeypatch, fixed_loci, "per_factor_orders")
    results = _count_calls(monkeypatch, fixed_loci, "FixedLocusResult")
    code, out, err = run(capsys, "fixed-loci", "--group", "PGL(2)^5", "--genus", "2", "--json")
    assert code == 0, err
    assert json.loads(out)["min_codim"] == 4
    assert listed == [32]
    assert scans == orders == results == []


def _count_listings(monkeypatch):
    """Orders of the subgroups whose elements get listed."""
    listed = []
    real = CentralSubgroup._list_elements

    def counted(self):
        listed.append(self.order)
        return real(self)

    monkeypatch.setattr(CentralSubgroup, "_list_elements", counted)
    return listed


@pytest.mark.parametrize("genus", ["1", "2"])
def test_classify_and_terminalize_list_no_element(capsys, monkeypatch, genus):
    # |Z0| = 2^19 is just under the cap; both answers need only orders
    listed = _count_listings(monkeypatch)
    verdict = run_json(capsys, "classify", "--group", "PGL(2)^19", "--genus", genus)
    plan = run_json(capsys, "terminalize", "--group", "PGL(2)^19", "--genus", genus)
    assert listed == []
    assert verdict["has_resolution"] == (genus == "1")
    assert plan["smooth"] == (genus == "1")
    # the counter is live: a command that prints Z0 lists it, once
    run_json(capsys, "fixed-loci", "--group", "PGL(2)^5", "--genus", genus)
    assert listed == [32]


def test_cap_refusal_lists_nothing_and_comes_before_any_work(capsys, monkeypatch):
    listed = _count_listings(monkeypatch)
    decompositions = _count_calls(monkeypatch, groups, "canonical_decomposition")
    verdicts = _count_calls(monkeypatch, classify, "classify_resolution")
    code, out, err = run(capsys, "classify", "--group", "PGL(2)^40", "--genus", "1")
    assert code == 1
    assert "error[group-spec]" in err and "cap" in err
    assert out == ""
    assert listed == [] and decompositions == [] and verdicts == []


@pytest.mark.parametrize(
    "group, limit",
    [
        ({"torus_rank": 10**30, "factors": [4]}, f"limit {groups.MAX_TORUS_RANK}"),
        ({"torus_rank": groups.MAX_TORUS_RANK + 1, "factors": [4]},
         f"limit {groups.MAX_TORUS_RANK}"),
        (f"GL(1)^{groups.MAX_PRESET_FACTORS + 1}", f"limit {groups.MAX_PRESET_FACTORS}"),
        (f"SL(2)^{groups.MAX_PRESET_FACTORS // 2 + 1}xGL(1)^{groups.MAX_PRESET_FACTORS // 2}",
         f"limit {groups.MAX_PRESET_FACTORS}"),
        # |Z0| = 2^40, refused from the preset's sizes before any generator exists
        ("GL(2)^40", "cap"),
    ],
    ids=repr,
)
def test_oversized_specs_are_refused_before_any_work(capsys, monkeypatch, group, limit):
    closures = []
    closure = groups.Center.closure
    monkeypatch.setattr(
        groups.Center, "closure", lambda *a, **kw: closures.append(a) or closure(*a, **kw)
    )
    specs = _count_calls(monkeypatch, groups, "GroupSpec")
    text = group if isinstance(group, str) else json.dumps(group)
    for command in ("classify", "analyze", "fixed-loci", "strata", "terminalize"):
        code, out, err = run(capsys, command, "--group", text, "--genus", "2")
        assert code == 1 and out == "", command
        assert err.startswith("error[group-spec]") and limit in err, err
    assert closures == []
    assert specs == [] or isinstance(group, dict)


def test_torus_rank_at_the_limit_is_answered(capsys):
    group = json.dumps({"torus_rank": groups.MAX_TORUS_RANK, "factors": [4]})
    for text in (group, f"GL(1)^{groups.MAX_TORUS_RANK}"):
        code, out, err = run(capsys, "classify", "--group", text, "--genus", "2")
        assert code == 0, err


def test_analyze_lists_only_the_kernel(capsys, monkeypatch):
    # GL(2)^3 x PGL(2)^2: |Z0| = 32, kernel of order 4
    listed = _count_listings(monkeypatch)
    report = run_json(capsys, "analyze", "--group", "GL(2)^3xPGL(2)^2", "--genus", "2")
    assert report["decomposition"]["center_order"] == 32
    assert len(report["decomposition"]["ss_kernel"]) == 4
    assert listed == [4]


def test_all_lists_public_names_only():
    import types

    import charvar

    assert len(set(charvar.__all__)) == len(charvar.__all__)
    for name in charvar.__all__:
        assert not isinstance(getattr(charvar, name), types.ModuleType), name
    assert "plan_terminalization" in charvar.__all__
    assert "groups" not in charvar.__all__


# strings that exercise every escape the JSON writer must match
_TEXT = 'ab"\\/\n\t\r\x00\x1f\x7f\u00e9\u2211\U0001f600 '
_FLOATS = (0.0, -0.0, 1e-300, 5e-324, 0.1, -2.5e17, 1e16, 1.7976931348623157e308,
           float("nan"), float("inf"), float("-inf"))


def _random_value(rnd, depth=0):
    kind = rnd.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return rnd.choice((0, 1, -1, 2**70, -(2**64), rnd.randint(-1000, 1000)))
    if kind == 1:
        return rnd.choice((True, False, None))
    if kind == 2:
        return rnd.choice(_FLOATS + (rnd.uniform(-1e6, 1e6),))
    if kind in (3, 4):
        return "".join(rnd.choice(_TEXT) for _ in range(rnd.randrange(6)))
    size = rnd.randrange(4)
    if kind == 5:
        return [_random_value(rnd, depth + 1) for _ in range(size)]
    if kind == 6:
        return tuple(_random_value(rnd, depth + 1) for _ in range(size))
    return {
        "".join(rnd.choice(_TEXT) for _ in range(rnd.randrange(4))): _random_value(rnd, depth + 1)
        for _ in range(size)
    }


@pytest.mark.parametrize(
    "value",
    [{}, [], (), {"a": {}, "b": [], "c": [[]], "d": {"e": ()}}, [True, 1, False, 0, None],
     list(_FLOATS), _TEXT, {_TEXT: _TEXT, "": 0}],
)
def test_json_writer_matches_stdlib(value):
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_writer_matches_stdlib_on_random_values():
    rnd = random.Random(20261018)
    for _ in range(500):
        value = _random_value(rnd)
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value", [{1, 2}, object(), b"bytes", 1j, [{"a": {3: "int key"}}], {None: 1}]
)
def test_json_writer_rejects_unsupported_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def _captured_payloads(monkeypatch, capsys, argvs):
    """The payloads ``main`` hands the JSON writer, one per argv."""
    payloads = []
    monkeypatch.setattr(cli, "_json_text", lambda p: payloads.append(p) or "")
    for argv in argvs:
        assert run(capsys, *argv, "--json")[0] == 0, argv
    assert len(payloads) == len(argvs)
    return payloads


def test_stratum_rows_match_stdlib_at_both_depths(monkeypatch, capsys):
    # analyze puts the rows one level deeper than strata; genus one has
    # null fiber bounds; every n up to the size of a wide query
    writer = cli._json_text
    argvs = []
    for n in range(1, 17):
        presets = (f"SL({n})", f"PGL({n})", f"GL({n})") if n <= 12 else ()
        for group in presets + (f"GL({n})xSL(2)",):
            for genus in range(1, 5):
                for command in ("strata", "analyze"):
                    argvs.append((command, "--group", group, "--genus", str(genus)))
    for argv, payload in zip(argvs, _captured_payloads(monkeypatch, capsys, argvs)):
        assert writer(payload) == json.dumps(payload, sort_keys=True, indent=2), argv


def test_stratum_rows_edge_values():
    # an empty row list of each row writer's type is a plain empty list
    for rows_type in (StratumRows, TwistRows, ElementRows):
        rows = rows_type()
        assert rows == [] and json.dumps(rows) == "[]"
        for value in (rows, {"strata": rows}, [rows, rows_type([])]):
            assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_a_row_key_the_row_format_lacks_shows_in_the_comparison(monkeypatch):
    # the format writes the six known keys; a seventh must not vanish
    # unnoticed, so the stdlib comparison above has to see it
    row_json = StratumInfo.to_json
    monkeypatch.setattr(StratumInfo, "to_json", lambda row: {**row_json(row), "extra": 1})
    payload = strata_table(groups.parse_group_spec("SL(3)"), 2).to_json()
    assert payload["factors"][0]["strata"][0]["extra"] == 1
    assert cli._json_text(payload) != json.dumps(payload, sort_keys=True, indent=2)


def test_stratum_rows_take_a_constant_number_of_writer_calls(capsys, monkeypatch):
    counts = []
    for n in (2, 12):
        calls = _count_calls(monkeypatch, cli, "_write_json")
        code, out, err = run(capsys, "strata", "--group", f"SL({n})", "--genus", "2", "--json")
        assert code == 0, err
        counts.append((len(calls), out.count("\n")))
        monkeypatch.undo()
    (small_calls, small_lines), (wide_calls, wide_lines) = counts
    assert wide_lines > 15000 and wide_lines > 100 * small_lines
    assert wide_calls == small_calls <= 5


def test_twist_and_kernel_rows_match_stdlib(monkeypatch, capsys):
    # fixed-loci rows, with and without --oracle, and analyze's kernel list,
    # on every catalog spec and every mixed-denominator torus spec, each at
    # two of the genera 1-3 (the rows differ by genus only in codim and
    # note); analyze, whose kernel list is the same at every genus, runs on
    # the torus specs and every fourth catalog spec
    catalog = list(small_group_catalog())
    argvs = []
    for i, spec in enumerate(catalog + mixed_denominator_specs()):
        group = json.dumps(spec.to_json())
        genera = [str(1 + (i + shift) % 3) for shift in range(3)]
        argvs.append(("fixed-loci", "--group", group, "--genus", genera[0]))
        argvs.append(("fixed-loci", "--group", group, "--genus", genera[1], "--oracle"))
        if i >= len(catalog) or i % 4 == 0:
            argvs.append(("analyze", "--group", group, "--genus", genera[2]))
    writer = cli._json_text
    seen = set()
    for argv, payload in zip(argvs, _captured_payloads(monkeypatch, capsys, argvs)):
        assert writer(payload) == json.dumps(payload, sort_keys=True, indent=2), argv
        rows = payload.get("twists", payload.get("decomposition", {}).get("ss_kernel"))
        seen.add("trivial Z0" if rows == [] else None)
        for row in rows:
            element = row.get("element", row)
            seen.add("empty row" if row.get("empty") else None)
            seen.add("fractional angle" if any("/" in c for c in element["torus"]) else None)
            seen.add("no SL factor" if element["factors"] == [] else None)
    assert seen >= {"trivial Z0", "empty row", "fractional angle", "no SL factor"}


@pytest.mark.parametrize("group", ["PGL(2)xGL(2)", "GL(2)^2"])
def test_a_key_the_twist_formats_lack_shows_in_the_comparison(group):
    # the formats write the known keys only; an added key must not vanish
    # unnoticed, so the stdlib comparison above has to see it
    spec = groups.parse_group_spec(group)
    rows, _ = fixed_loci.twist_rows(groups.canonical_decomposition(spec), 2)
    kernel = groups.canonical_decomposition(spec).summary()["ss_kernel"]
    for value in (rows, kernel):
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)
        value[-1]["extra"] = 1
        assert cli._json_text(value) != json.dumps(value, sort_keys=True, indent=2)


def test_twist_rows_take_a_constant_number_of_writer_calls(capsys, monkeypatch):
    counts = []
    for k in (3, 9):
        calls = _count_calls(monkeypatch, cli, "_write_json")
        argv = ("fixed-loci", "--group", f"PGL(2)^{k}", "--genus", "2", "--json")
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        counts.append((len(calls), out.count("\n")))
        monkeypatch.undo()
    (small_calls, small_lines), (wide_calls, wide_lines) = counts
    assert wide_lines > 50 * small_lines
    assert wide_calls == small_calls


def test_closed_pipe_exits_quietly():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # 1.8 MB of output, far more than a pipe buffers
    argv = ["strata", "--group", "SL(16)", "--genus", "3", "--json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "charvar.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE
    finally:
        proc.kill()
        proc.stderr.close()
    assert cli.EXIT_BROKEN_PIPE not in (cli.EXIT_INPUT_ERROR, cli.EXIT_VERIFY_FAILURE)
    assert err == b""


def test_main_calls_in_one_process_match_fresh_processes(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "SL(3)", "genus": 2}))
    sequence = [
        ("fixed-loci", "--group", "PGL(3)", "--genus", "2", "--oracle"),
        ("fixed-loci", "--group", "PGL(3)", "--genus", "2", "--json"),
        ("classify", "--config", str(cfg), "--json"),
        ("classify", "--group", "SL(2)", "--genus", "3"),
        ("verify", "--suite", "fixed-loci", "--n", "2,3", "--genus", "1,2"),
        ("analyze", "--group", "SL(2)"),  # genus missing: exit 1
        ("strata", "--group", "GL(2)", "--genus", "2"),
    ]
    together = [run(capsys, *argv) for argv in sequence]
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for argv, (code, out, err) in zip(sequence, together):
        alone = subprocess.run(
            [sys.executable, "-m", "charvar.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr), argv
    assert together[5][0] == 1


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    builds = _count_calls(monkeypatch, cli, "_build_parser")
    cli._parser.cache_clear()
    try:
        for genus in (1, 2, 3, 2):
            assert run(capsys, "classify", "--group", "SL(2)", "--genus", str(genus))[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
