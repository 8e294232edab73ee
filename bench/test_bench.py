"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import contextlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from charvar import cli  # noqa: E402

WORKLOADS = sorted(queries.WORKLOADS)


def first(workload, seed, count):
    return list(itertools.islice(queries.query_stream(workload, seed), count))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_query_list(workload):
    assert first(workload, 3, 60) == first(workload, 3, 60)
    assert first(workload, 3, 60) != first(workload, 4, 60)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_query_repeats(workload):
    keys = [q.key for q in first(workload, 5, 400)]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_round_holds_the_same_mix(workload):
    cells = queries.WORKLOADS[workload]
    size = sum(count for _, count, _ in cells)
    for seed in (1, 2):
        mix = sorted(q.cell for q in first(workload, seed, size))
        expected = sorted(
            draw(random.Random(0)).cell for _, count, draw in cells for _ in range(count)
        )
        assert mix == expected


def test_subgroup_order_counts_torus_coupling():
    gl2 = {"torus_rank": 1, "factors": [2],
           "central_generators": [{"torus": ["1/2"], "factors": [1]}]}
    assert queries.subgroup_order(gl2) == 2
    mixed = {"torus_rank": 1, "factors": [4],
             "central_generators": [{"torus": ["1/3"], "factors": [2]},
                                    {"torus": ["0"], "factors": [1]}]}
    assert queries.subgroup_order(mixed) == 12


def span(name, start, end, parent=None, layer="groups"):
    return tracing.Span(name, layer, start, end, parent, 0)


def test_self_time_subtracts_child_coverage():
    spans = [
        span("main", 0.0, 10.0, layer="cli"),
        span("canonical_decomposition", 1.0, 4.0, 0),
        span("Center.closure", 1.5, 2.5, 1),
        span("Center.closure", 3.0, 3.5, 1),
        span("strata_table", 5.0, 9.0, 0, layer="strata"),
        # overlapping and overhanging children are counted once, clipped
        span("enumerate_weighted_partitions", 4.5, 7.0, 4, layer="strata"),
        span("enumerate_weighted_partitions", 6.0, 8.0, 4, layer="strata"),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 1.0, 0.5, 1.0, 2.5, 2.0])
    metrics = tracing.layer_metrics(spans, queries=1)
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["groups.self_s"] == pytest.approx(3.0)
    assert metrics["groups.decomposition_s"] == pytest.approx(1.5)
    assert metrics["strata.self_s"] == pytest.approx(5.5)
    assert metrics["groups.closure_calls"] == 2


def namespaces():
    import charvar

    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "charvar"]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)} | {
        ("Center", "closure"): charvar.groups.Center.__dict__["closure"]
    }


def test_wrappers_are_restored_after_a_traced_run():
    before = namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        original = before[("charvar.cli", "canonical_decomposition")]
        assert cli.canonical_decomposition is not original
        argv = ("analyze", "--group", "GL(2)xPGL(2)", "--genus", "2", "--json")
        code, text, _ = run._call(cli, argv)
    finally:
        tracer.restore()
    after = namespaces()
    assert code == 0 and json.loads(text)["dimension"] == 16
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    layers = {s.layer for s in tracer.spans}
    assert {"cli", "groups", "strata", "classify", "terminalize", "fixed_loci"} <= layers
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(
        tracer.spans[0].end - tracer.spans[0].start
    )


def test_host_speed_samples_in_proportion_to_query_time():
    host = speed.HostSpeed()
    host.sample_every(0.1, 0.05)
    assert host.samples == []
    host.sample_every(0.1, 0.35)
    assert len(host.samples) == 3
    assert host.scale() == pytest.approx(speed.REFERENCE_S / (sum(host.samples) / 3))


def test_each_query_is_scaled_by_the_reference_times_around_it():
    host = speed.HostSpeed()
    fast, slow = speed.REFERENCE_S / 2, speed.REFERENCE_S * 2
    host.samples = [fast, fast, slow, slow]
    # one, two and three samples were taken before the three queries
    scales = host.local_scales([1, 2, 3], width=1)
    assert scales == pytest.approx([2.0, 0.8, 0.5])


def analyze_output(query):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(query.argv)) == 0
    return out.getvalue()


def test_checks_flag_a_corrupted_analyze_payload():
    query = next(q for q in queries.query_stream("exact_mix", 1) if q.command == "analyze")
    text = analyze_output(query)
    assert checks.check_output(query, 0, text) == []
    payload = json.loads(text)
    payload["dimension"] += 2
    problems = checks.check_output(query, 0, json.dumps(payload))
    assert problems and "dimension" in problems[0]
    assert checks.check_output(query, 1, text) == ["exit code 1"]


def test_verify_digest_ignores_roundoff():
    query = queries.verify_query("cohomology", 4, 2, 7, "cohomology-4")
    record = {"h": [0, 30, 0], "ok": True, "relator_residual": 1e-15}
    moved = dict(record, relator_residual=3e-15)
    same = [checks.digest_bytes(query, json.dumps({"records": [r]})) for r in (record, moved)]
    assert same[0] == same[1]


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [8] * 10, "lower", "better"),
        ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [13] * 10, "lower", "worse"),
        ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [10.6] * 10, "lower", "unchanged"),
        ([5, 15, 5, 15, 5, 15, 5, 15, 5, 15], [10.5] * 10, "lower", "unresolved"),
        ([100] * 10, [90] * 10, "higher", "unchanged"),
        ([100] * 10, [80] * 10, "higher", "worse"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert run.verdict(parent, change, better, bound=0.15) == expected
