"""Seeded query streams, one per workload.

Each workload is a list of cells.  A cell draws one query of a fixed kind
(command and size class) with random details.  The stream repeats rounds
that hold every cell its listed number of times, shuffled, so the mix of
query kinds, and with it every latency quantile, is the same for every
seed; the seed only picks the details.  Every cell draws from a set of
queries far larger than any run consumes, because no (command, group,
genus) triple, and no verify argument list, may repeat within a run.

The program only ever sees the generated ``--group``/``--genus``/``--n``/
``--seed`` arguments; ``Query.spec`` keeps the decoded group so the output
checks can recompute what the answer must satisfy.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, Optional

RETRIES = 200


@dataclass(frozen=True)
class Query:
    command: str
    argv: tuple[str, ...]
    genus: Optional[int]
    spec: Optional[dict]
    cell: str

    @property
    def key(self) -> tuple:
        if self.spec is None:
            return self.argv
        return (self.command, _group_text(self.spec), self.genus)


# (label, count per round, draw): draw makes one query of the cell's kind
Cell = tuple[str, int, Callable[[random.Random], Query]]


def _group_text(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def group_query(command: str, spec: dict, genus: int, cell: str, *extra: str) -> Query:
    argv = (command, "--group", _group_text(spec), "--genus", str(genus), *extra, "--json")
    return Query(command, argv, genus, spec, cell)


def verify_query(suite: str, n: int, genus: int, seed: int, cell: str) -> Query:
    argv = (
        "verify", "--suite", suite, "--n", str(n), "--genus", str(genus),
        "--trials", "1", "--seed", str(seed), "--json",
    )
    return Query("verify", argv, genus, None, cell)


def _spec(torus_rank: int, factors: list[int], generators: list[tuple[list, list]]) -> dict:
    return {
        "torus_rank": torus_rank,
        "factors": factors,
        "central_generators": [
            {"torus": [str(Fraction(c)) for c in torus], "factors": residues}
            for torus, residues in generators
        ],
    }


# --------------------------------------------------------------------------
# exact_mix: small random presentations, the typical interactive query


def _small_presentation(rnd: random.Random) -> dict:
    factors = [rnd.randint(2, 6) for _ in range(rnd.randint(1, 3))]
    h = rnd.randint(0, 2)
    generators = []
    for _ in range(rnd.randint(0, 2)):
        torus = [0] * h
        if h and rnd.random() < 0.5:
            torus = [Fraction(rnd.randrange(b), b) for b in (rnd.randint(1, 4) for _ in range(h))]
        generators.append((torus, [rnd.randrange(n) for n in factors]))
    return _spec(h, factors, generators)


def _exact_cell(count: int, command: str) -> Cell:
    def draw(rnd: random.Random) -> Query:
        return group_query(command, _small_presentation(rnd), rnd.randint(1, 3), command)

    return command, count, draw


EXACT_MIX = (
    _exact_cell(6, "analyze"),
    _exact_cell(1, "classify"),
    _exact_cell(1, "terminalize"),
    _exact_cell(1, "strata"),
    _exact_cell(1, "fixed-loci"),
)


# --------------------------------------------------------------------------
# big_center: |Z0| from 32 to 512, where center bookkeeping dominates


def _gf2_rank(rows: list[int]) -> int:
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def _bits(value: int, width: int) -> list[int]:
    return [(value >> i) & 1 for i in range(width)]


def _mix_basis(rnd: random.Random, rows: list[int]) -> list[int]:
    """Random elementary row operations: same span, another presentation."""
    rows = list(rows)
    for i in range(len(rows)):
        for j in range(len(rows)):
            if i != j and rnd.random() < 0.5:
                rows[i] ^= rows[j]
    rnd.shuffle(rows)
    return rows


def _sign_flip_spec(rnd: random.Random, k: int, rank: int, slots: int) -> dict:
    """SL(2)^k modulo a random sign-flip subgroup of order 2^rank that holds
    exactly ``slots`` single-slot flips, i.e. has that many PGL(2) slots."""
    while True:
        rows = [1 << i for i in rnd.sample(range(k), slots)]
        rows += [rnd.randrange(1, 1 << k) for _ in range(rank - slots)]
        units = sum(_gf2_rank(rows + [1 << i]) == rank for i in range(k))
        if _gf2_rank(rows) == rank and units == slots:
            return _spec(0, [2] * k, [([], _bits(r, k)) for r in _mix_basis(rnd, rows)])


def _torus_coupled_spec(rnd: random.Random, k: int, rank: int, torus_rank: int) -> dict:
    """GL(2)^k-style: k torus coordinates and k SL(2) slots; each generator
    pairs a half-angle pattern with a sign-flip pattern.  The angle patterns
    span a space of dimension ``torus_rank``, so the torus-invisible kernel
    has order 2^(rank - torus_rank)."""
    while True:
        torus = [rnd.randrange(1, 1 << k) for _ in range(torus_rank)]
        if _gf2_rank(torus) < torus_rank:
            continue
        for _ in range(rank - torus_rank):
            # a combination of the independent patterns: its generator adds to the kernel
            torus.append(0)
            for t in torus[:torus_rank]:
                torus[-1] ^= t if rnd.random() < 0.5 else 0
        rows = [(t << k) | rnd.randrange(1 << k) for t in torus]
        if _gf2_rank(rows) == rank:
            generators = [
                ([Fraction(b, 2) for b in _bits(r >> k, k)], _bits(r & ((1 << k) - 1), k))
                for r in _mix_basis(rnd, rows)
            ]
            return _spec(k, [2] * k, generators)


def _mixed_24_spec(rnd: random.Random, factors: list[int], order: int) -> dict:
    """SL(4)^a x SL(2)^b modulo random residue vectors, with |Z0| = order."""
    while True:
        generators = [
            ([], [rnd.randrange(n) for n in factors]) for _ in range(rnd.randint(3, 5))
        ]
        spec = _spec(0, factors, generators)
        if subgroup_order(spec) == order:
            return spec


def _center_cell(count: int, command: str, genus: int, family: str, *shape: int) -> Cell:
    def draw(rnd: random.Random) -> Query:
        if family == "flips":
            spec = _sign_flip_spec(rnd, *shape)
        elif family == "torus":
            spec = _torus_coupled_spec(rnd, *shape)
        else:
            spec = _mixed_24_spec(rnd, list(shape[1:]), shape[0])
        return group_query(command, spec, genus, label)

    label = f"{family}{list(shape)}-{command}-g{genus}"
    return label, count, draw


# (count per round, command, genus, family, shape).  flips shape: k SL(2)
# slots, kernel rank, PGL(2) slots (k, k, k is PGL(2)^k).  torus shape: k,
# rank, torus rank.  mixed shape: |Z0|, then the SL factor sizes.  Counts put
# the median among the 25-35 ms queries, most of them PGL(2)^5 analyze and
# PGL(2)^6 fixed-loci, whose cost hardly depends on the seed, and p90 inside
# the three PGL(2)^7 classify queries of each round, away from a jump in
# cost.
BIG_CENTER = tuple(
    _center_cell(*cell)
    for cell in (
        (1, "classify", 1, "flips", 5, 5, 5),
        (3, "analyze", 2, "flips", 5, 5, 5),
        (2, "fixed-loci", 2, "flips", 6, 6, 6),
        (3, "classify", 1, "flips", 7, 7, 7),
        (2, "analyze", 1, "flips", 7, 5, 2),
        (2, "classify", 2, "flips", 8, 6, 1),
        (1, "fixed-loci", 1, "flips", 9, 7, 2),
        (1, "classify", 1, "flips", 9, 8, 3),
        (2, "analyze", 2, "torus", 5, 5, 3),
        (1, "fixed-loci", 1, "torus", 6, 6, 4),
        (1, "classify", 2, "torus", 7, 7, 5),
        (1, "classify", 1, "torus", 9, 9, 7),
        (2, "analyze", 2, "mixed", 32, 4, 4, 2, 2),
        (1, "fixed-loci", 1, "mixed", 64, 4, 4, 4, 2),
        (1, "analyze", 1, "mixed", 128, 4, 4, 4, 2, 2),
        (1, "classify", 2, "mixed", 256, 4, 4, 4, 4, 2),
        (1, "fixed-loci", 2, "mixed", 512, 4, 4, 4, 4, 2, 2),
    )
)


# --------------------------------------------------------------------------
# numeric_verify: one verify query per (suite, n, genus, seed)


def _verify_cell(count: int, suite: str, n: int, genus: int) -> Cell:
    def draw(rnd: random.Random) -> Query:
        return verify_query(suite, n, genus, rnd.randrange(10**9), label)

    label = f"{suite}-n{n}-g{genus}"
    return label, count, draw


# Counts per round.  They put the median in the middle of the ten
# cohomology n = 4, genus 3 queries (about 25 ms, between 17 ms and 30 ms
# cells) and p90 in the middle of the six cohomology n = 8, genus 3 queries
# (about 0.2 s, below the 0.4-1.9 s n = 10 and 12 ones), so that each lies
# among a dozen or more samples of one kind in every run.
VERIFY_COUNTS = {
    ("cohomology", 4): {2: 4, 3: 10},
    ("cohomology", 8): {2: 4, 3: 6},
    ("cohomology", 10): {2: 1, 3: 1},
    ("cohomology", 12): {2: 1, 3: 1},
    ("moment-map", 4): {2: 2, 3: 2},
    ("moment-map", 8): {2: 3, 3: 3},
    ("moment-map", 10): {2: 2, 3: 2},
    ("moment-map", 12): {2: 1, 3: 1},
    ("fixed-loci", 4): {1: 4, 2: 4, 3: 4},
    ("fixed-loci", 6): {1: 4, 2: 2, 3: 2},
    ("fixed-loci", 8): {1: 4, 2: 2, 3: 2},
}
NUMERIC_VERIFY = tuple(
    _verify_cell(count, suite, n, genus)
    for (suite, n), counts in VERIFY_COUNTS.items()
    for genus, count in counts.items()
)


# --------------------------------------------------------------------------
# wide_factor: one SL factor of size 8..16, where strata and oracles work


def _single_factor_spec(rnd: random.Random, n: int, kernel: Optional[int] = None) -> dict:
    """((C*)^h x SL(n)) / Z0 with one SL factor.

    h = 0 gives SL(n) modulo a cyclic mu_d (PGL(n) when d = n); h = 1 adds a
    torus-coupled generator (a/b, s) with s inside mu_d, the GL(n) pattern.
    ``kernel`` fixes d, the order of the torus-invisible part of Z0.
    """
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    d = kernel if kernel is not None else rnd.choice(divisors)
    step = n // d
    units = [u for u in range(1, d + 1) if gcd(u, d) == 1]
    residues = [step * rnd.choice(units) % n] if d > 1 else []
    if rnd.random() < 0.5:
        return _spec(0, [n], [([], [r]) for r in residues])
    b = rnd.randint(2, 12)
    a = rnd.choice([a for a in range(1, b) if gcd(a, b) == 1])
    coupled = ([Fraction(a, b)], [step * rnd.randrange(d) % n])
    return _spec(1, [n], [([0], [r]) for r in residues] + [coupled])


def _wide_cell(command: str, n: int, genus: int) -> Cell:
    def draw(rnd: random.Random) -> Query:
        return group_query(command, _single_factor_spec(rnd, n), genus, label)

    label = f"{command}-n{n}-g{genus}"
    return label, 3 if (command, n) in WIDE_MEDIAN else 1, draw


def _oracle_cell(count: int, n: int, kernel: int, genus: int) -> Cell:
    def draw(rnd: random.Random) -> Query:
        spec = _single_factor_spec(rnd, n, kernel)
        return group_query("fixed-loci", spec, genus, label, "--oracle")

    label = f"oracle-n{n}-d{kernel}-g{genus}"
    return label, count, draw


# analyze and strata cover n = 8..16, alternating genus 2 and 3.  The oracle
# cells stop at n = 10 and skip PGL(9) and PGL(10): one such query runs the
# tangent oracle over 92378 compositions per twist and takes 3 to 7 s.  The
# five PGL(8)-kernel oracle queries (about 0.5 s each) and analyze n = 16
# form the top fifth of each round of 30, so p90 falls among the oracle
# queries.  The median falls in the middle of the cells of WIDE_MEDIAN,
# which cost about the same (60-80 ms) and run three times a round, so that
# enough samples lie near it.
WIDE_MEDIAN = {("analyze", 12), ("strata", 13)}
WIDE_FACTOR = (
    *(_wide_cell("analyze", n, 2 + n % 2) for n in range(8, 17)),
    *(_wide_cell("strata", n, 3 - n % 2) for n in range(8, 17)),
    _oracle_cell(3, 8, 8, 2),
    _oracle_cell(2, 8, 8, 3),
    _oracle_cell(1, 9, 3, 3),
    _oracle_cell(1, 10, 5, 2),
    _oracle_cell(1, 10, 2, 3),
)


WORKLOADS = {
    "exact_mix": EXACT_MIX,
    "big_center": BIG_CENTER,
    "numeric_verify": NUMERIC_VERIFY,
    "wide_factor": WIDE_FACTOR,
}

# a query no generator produces (genus 4), run once before timing starts
WARMUP = {
    "exact_mix": ("analyze", "--group", "GL(2)xSL(3)", "--genus", "4", "--json"),
    "big_center": ("analyze", "--group", "PGL(2)^3", "--genus", "4", "--json"),
    "numeric_verify": (
        "verify", "--suite", "all", "--n", "2", "--genus", "4", "--trials", "1",
        "--seed", "0", "--json",
    ),
    "wide_factor": ("analyze", "--group", "PGL(6)", "--genus", "4", "--json"),
}


def round_size(workload: str) -> int:
    return sum(count for _, count, _ in WORKLOADS[workload])


def query_stream(workload: str, seed: int) -> Iterator[Query]:
    """Endless stream of distinct queries for ``workload``, fixed by ``seed``."""
    cells = WORKLOADS[workload]
    rnd = random.Random(f"{workload}/{seed}")
    seen: set = set()
    while True:
        round_ = [draw for _, count, draw in cells for _ in range(count)]
        rnd.shuffle(round_)
        for draw in round_:
            for _ in range(RETRIES):
                query = draw(rnd)
                if query.key not in seen:
                    break
            else:
                raise RuntimeError(f"{workload}: cell {query.cell} ran out of distinct queries")
            seen.add(query.key)
            yield query


# --------------------------------------------------------------------------
# independent center arithmetic, shared with the output checks


def subgroup_order(spec: dict) -> int:
    """|Z0| by breadth-first closure over integer coordinates.

    Torus angles go over their common denominator, so the ambient group is
    Z_D^h x prod Z_{n_i}; nothing here uses charvar.
    """
    generators = spec.get("central_generators", [])
    angles = [[Fraction(c) for c in g.get("torus", [])] for g in generators]
    denom = 1
    for row in angles:
        for c in row:
            denom = denom * c.denominator // gcd(denom, c.denominator)
    moduli = [denom] * spec.get("torus_rank", 0) + list(spec["factors"])
    vectors = [
        tuple(int(c * denom) for c in row) + tuple(g.get("factors", []))
        for row, g in zip(angles, generators)
    ]
    zero = (0,) * len(moduli)
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for v in vectors:
            y = tuple((a + b) % m for a, b, m in zip(x, v, moduli))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)
