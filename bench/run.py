#!/usr/bin/env python3
"""The charvar benchmark.

One workload, as measured in one fresh process:

    python3 bench/run.py --workload exact_mix --seed 1 --seconds 20 --trace 0

Every workload in BENCHMARK.json, each in its own process, for one or more
seeds, printing every metric by name and unit and collecting the results:

    python3 bench/run.py --seed 1 --seeds 3 --seconds 20 --out parent.json

Verdicts per (workload, end-to-end metric) between two such files:

    python3 bench/run.py --compare parent.json change.json

A workload run drives ``charvar.cli.main(argv)`` in-process: one client, a
closed loop, one query per call, each query's answer checked before the
next query starts (checks and query generation are off the clock).
``--trace 0`` reports the end-to-end metrics: set-up time from fresh
interpreters, latency median and p90, throughput and peak memory.  Every
time is scaled to a fixed host speed, measured by a reference task timed
between the queries (see ``speed.py``), because a shared host's speed
changes by half within seconds; the raw wall times are kept in the result
file.
``--trace 1`` runs each query twice, untraced and with every layer's public
functions wrapped, and reports the per-layer metrics; spans are written
next to the results.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Results go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import Digest, check_output
from queries import WARMUP, query_stream, round_size
from speed import REFERENCE_S, HostSpeed
from tracing import LAYERS, Tracer, layer_metrics, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SPEC_FILE = ROOT / "BENCHMARK.json"

# fresh interpreters timed per run for setup_s; the median is reported
SETUP_SAMPLES = 9
# the host-speed reference task runs once per this much query time
REFERENCE_EVERY_S = 0.1
# a run measures at least this many queries, so that ten or more lie beyond p90
MIN_QUERIES = 100
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBE = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import charvar.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = charvar.cli.main(sys.argv[2:])
print(time.perf_counter() - start if code == 0 else -1.0)
"""


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _benchmark_spec() -> dict:
    try:
        return json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as exc:
        _die(f"cannot read {SPEC_FILE.name}: {exc}")


def _pinned_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


# --------------------------------------------------------------------------
# one workload


def _setup_seconds(warmup: tuple[str, ...]) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), *warmup],
        env=_pinned_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    value = float(proc.stdout.strip() or -1.0) if proc.returncode == 0 else -1.0
    if value <= 0:
        _die(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return value


def _call(cli, argv: tuple[str, ...]) -> tuple[object, str, float]:
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a crash is a failed query, not a dead run
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), perf_counter() - start


class Phase:
    """Latencies, failures and the digest of one pass over the queries."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.cells: dict[str, list[float]] = {}
        self.busy = 0.0
        self.failures: list[str] = []
        self.output_bytes = 0
        self.digest = Digest()

    def call(self, cli, query) -> None:
        """Run one query, then check its answer off the clock."""
        code, text, elapsed = _call(cli, query.argv)
        self.latencies.append(elapsed)
        self.cells.setdefault(query.cell, []).append(elapsed)
        self.busy += elapsed
        self.output_bytes += len(text.encode())
        problems = [code] if isinstance(code, str) else check_output(query, code, text)
        if problems:
            self.failures.append(f"{' '.join(query.argv)}: {'; '.join(problems)}")
        self.digest.add(query, text)


def _whole_rounds(queries, whole: int, seconds: float, phases: list[Phase]):
    """Queries in whole workload rounds of ``whole`` queries, so every run
    has the same mix of query kinds: at least ``MIN_QUERIES``, and as many
    rounds as bring the query time nearest to ``seconds``."""
    for index, query in enumerate(queries):
        if index >= MIN_QUERIES and index % whole == 0:
            busy = sum(p.busy for p in phases)
            if busy + busy / (index // whole) / 2 >= seconds:
                return
        yield index, query


def _timings(setup: float, latencies: list[float]) -> dict:
    """The end-to-end timings, from set-up time and per-query times."""
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": setup,
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_p90_ms": 1000 * deciles[8],
        "queries_per_s": len(latencies) / sum(latencies),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads with charvar
    sys.path.insert(0, str(SRC))
    warmup = WARMUP[name]
    setup = []
    if not trace:
        _setup_seconds(warmup)  # untimed: fills the file cache as a user's earlier call would
        setup = [_setup_seconds(warmup) for _ in range(SETUP_SAMPLES)]
    import charvar.cli as cli

    code, _, _ = _call(cli, warmup)
    if code != 0:
        _die(f"warm-up query failed with {code}")

    untraced = Phase()
    phases = [untraced] + ([Phase()] if trace else [])
    queries = _whole_rounds(query_stream(name, seed), round_size(name), seconds, phases)
    host = HostSpeed()
    wall = {}
    if trace:
        metrics = _traced_run(cli, name, seed, queries, *phases)
    else:
        marks = []  # reference samples taken before each query
        host.sample()
        for _, query in queries:
            marks.append(len(host.samples))
            untraced.call(cli, query)
            host.sample_every(REFERENCE_EVERY_S, untraced.busy)
        setup_s = statistics.median(setup)
        wall = _timings(setup_s, untraced.latencies)
        scaled = [t * s for t, s in zip(untraced.latencies, host.local_scales(marks))]
        metrics = _timings(setup_s * host.scale(), scaled)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = [f for p in phases for f in p.failures]
    if any(p.digest.hexdigest() != untraced.digest.hexdigest() for p in phases):
        failures.append("traced answers differ from untraced answers")
    attempted = sum(len(p.latencies) for p in phases)
    return {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "environment": _environment(seed),
        "queries": len(untraced.latencies),
        "setup_samples_s": setup,
        "wall_metrics": wall,
        "cell_p50_ms": {
            cell: 1000 * statistics.median(times) for cell, times in sorted(untraced.cells.items())
        },
        "reference_s": host.reference() if host.samples else None,
        "reference_samples_s": host.samples,
        "digest": untraced.digest.hexdigest(),
        "digest_queries": untraced.digest.queries,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "metrics": metrics,
    }


def _traced_run(cli, name: str, seed: int, queries, untraced: Phase, traced: Phase) -> dict:
    """Run each query twice, untraced and with every layer wrapped, in
    alternating order, so a drift in machine speed cancels out of the
    overhead; write the spans out."""
    tracer = Tracer()
    for index, query in queries:
        tracer.query = index
        for phase in (untraced, traced) if index % 2 == 0 else (traced, untraced):
            if phase is untraced:
                untraced.call(cli, query)
                continue
            tracer.install()
            try:
                traced.call(cli, query)
            finally:
                tracer.restore()
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"spans-{name}-seed{seed}.jsonl", "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span.to_json()) + "\n")
    count = len(traced.latencies)
    metrics = layer_metrics(tracer.spans, count)
    metrics.update(
        {
            "cli.output_bytes": traced.output_bytes,
            "trace.overhead": traced.busy / untraced.busy - 1,
            "trace.queries": count,
            "trace.query_s": traced.busy,
            "trace.accounted_share": sum(self_times(tracer.spans)) / traced.busy,
        }
    )
    return metrics


def _emit(result: dict, spec: dict) -> None:
    key = "per_layer" if result["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    missing = set(units) - set(result["metrics"])
    if missing:
        _die(f"metrics not measured: {sorted(missing)}")
    metrics = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}
    result["metrics"] = metrics
    env = result["environment"]
    print(
        f"{result['workload']} seed={env['seed']} queries={result['queries']} "
        f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} blas={env['blas']}"
    )
    for key_name, metric in metrics.items():
        print(f"  {key_name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':34s} {result['error_rate']:>14.6g} ratio")
    if result["trace"]:
        total = result["metrics"]["trace.query_s"]["value"]
        shares = (f"{layer} {metrics[f'{layer}.self_s']['value'] / total:.1%}" for layer in LAYERS)
        print(f"  self-time shares of traced query time: {', '.join(shares)}")
    print(f"  digest of first {result['digest_queries']} answers: {result['digest']}")
    if result["reference_s"]:
        print(
            f"  host speed: reference task {1000 * result['reference_s']:.3f} ms over "
            f"{len(result['reference_samples_s'])} samples, {1000 * REFERENCE_S:.3f} ms at "
            f"reference speed; unscaled: "
            + ", ".join(f"{k} {v:.6g}" for k, v in result["wall_metrics"].items())
        )
    for failure in result["failures"]:
        print(f"  FAILED {failure[:300]}")
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{result['workload']}-seed{env['seed']}-trace{result['trace']}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))


# --------------------------------------------------------------------------
# every workload, and comparing two sets of runs


def run_all(spec: dict, seed: int, seeds: int, seconds: float, trace: int, out: Path) -> int:
    runs = []
    for s in range(seed, seed + seeds):
        for workload in spec["workloads"]:
            name = workload["name"]
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(s),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S + 10 * seconds,
            )
            print("\n".join(proc.stdout.splitlines()[:-1]))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            runs.append(json.loads((RESULTS / f"{name}-seed{s}-trace{trace}.json").read_text()))
    out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(r["failed"] == 0 for r in runs) else 1


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for one (workload, metric).

    Better: the change wins at least nine tenths of the index-paired runs and
    the medians differ by more than the parent's quartile spread.  Worse: the
    change's median is worse than the parent's by more than the bound.
    Unresolved: neither, while the parent's spread is wider than the bound,
    unless every change run beats every parent run.
    """
    sign = 1 if better == "lower" else -1
    mp, mc = statistics.median(parent), statistics.median(change)
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
    else:
        q1 = q3 = mp
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if wins >= 0.9 * len(pairs) and sign * (mp - mc) > q3 - q1:
        return "better"
    if sign * (mc - mp) > bound * abs(mp):
        return "worse"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if (q3 - q1) > bound * abs(mp) and not all_better:
        return "unresolved"
    return "unchanged"


def _load_runs(path: str) -> list[dict]:
    data = json.loads(Path(path).read_text())
    return data["runs"] if "runs" in data else [data]


def compare(spec: dict, parent_path: str, change_path: str) -> int:
    parent, change = _load_runs(parent_path), _load_runs(change_path)
    print(f"{'workload':16s} {'metric':16s} {'parent':>12s} {'change':>12s}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = [
                [r["metrics"][key]["value"] for r in runs
                 if r["workload"] == name and key in r["metrics"]]
                for runs in (parent, change)
            ]
            if not values[0] or not values[1]:
                continue
            word = verdict(values[0], values[1], metric["better"], metric["bound"])
            print(
                f"{name:16s} {key:16s} {statistics.median(values[0]):12.5g} "
                f"{statistics.median(values[1]):12.5g}  {word}"
            )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=1, help="runs per workload, seeds seed..")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(RESULTS / "all.json"))
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)

    spec = _benchmark_spec()
    if args.compare:
        return compare(spec, *args.compare)
    if not (SRC / "charvar" / "cli.py").is_file():
        _die(f"no charvar sources under {SRC}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is None:
        RESULTS.mkdir(exist_ok=True)
        return run_all(spec, args.seed, args.seeds, seconds, args.trace, Path(args.out))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        _die(f"unknown workload {args.workload!r}")
    _emit(run_workload(args.workload, args.seed, seconds, bool(args.trace)), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
