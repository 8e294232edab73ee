"""Acceptance gate: one test per headline guarantee, one PASS line each.

Run through pytest, or directly (python3 tests/test_acceptance.py) for the
standalone PASS/FAIL report.  The fixed-locus, cohomology and moment-map
criteria (4, 5, 6 and 8) call the per-case checks of ``charvar.verify``, where
their expected values and tolerances live, the same checks the verify suites
run; every other expected value is stated inline.  Nothing here depends on
test order.
"""

import sys
import time

import numpy as np

from charvar import (
    GroupSpec,
    NO_RESOLUTION_KIND,
    RESOLUTION_KIND,
    SMOOTH_KIND,
    Center,
    WeightedPartition,
    canonical_decomposition,
    char_variety_dim,
    classify_resolution,
    coboundary_matrix,
    cocycle_matrix,
    enumerate_central_subgroups,
    enumerate_weighted_partitions,
    fixed_tangent_oracle,
    min_nonfree_codim,
    parse_group_spec,
    plan_terminalization,
    sample_diagonal_rep,
    stratum_codim,
    stratum_dim_gl,
)
from charvar import verify
from charvar.numerics import ConvergenceError


def _diagonal_quotient():
    """(SL(2) x SL(2)) / diagonal mu_2."""
    center = Center(0, (2, 2))
    return GroupSpec(0, (2, 2), (center.element([], (1, 1)),))


def classification_catalog():
    """(label, spec, genus, expected verdict kind) with hand-frozen verdicts.

    Smooth for abelian groups; otherwise a resolution exists exactly at
    genus one for products of SL factors and PGL(2) slots, and at genus two
    for SL(2) powers with nothing quotiented away.
    """
    rows = []
    for n in range(1, 6):
        for g in (1, 2, 3):
            if n == 1:
                kind = SMOOTH_KIND
            elif g == 1 or (g == 2 and n == 2):
                kind = RESOLUTION_KIND
            else:
                kind = NO_RESOLUTION_KIND
            rows.append((f"SL({n}) g={g}", parse_group_spec(f"SL({n})"), g, kind))
    for n in range(1, 5):
        for g in (1, 2, 3):
            if n == 1:
                kind = SMOOTH_KIND
            elif g == 1 or (g == 2 and n == 2):
                kind = RESOLUTION_KIND
            else:
                kind = NO_RESOLUTION_KIND
            rows.append((f"GL({n}) g={g}", parse_group_spec(f"GL({n})"), g, kind))
    for n in range(1, 5):
        for g in (1, 2):
            if n == 1:
                kind = SMOOTH_KIND
            elif n == 2 and g == 1:
                kind = RESOLUTION_KIND  # PGL(2) is the one PGL with a resolution
            else:
                kind = NO_RESOLUTION_KIND
            rows.append((f"PGL({n}) g={g}", parse_group_spec(f"PGL({n})"), g, kind))
    for m in (1, 2, 3):
        rows.append(
            (f"SL(2)^{m} g=2", parse_group_spec(f"SL(2)^{m}"), 2, RESOLUTION_KIND)
        )
    for g in (1, 2):
        rows.append(
            (f"(SL(2)xSL(2))/diag g={g}", _diagonal_quotient(), g, NO_RESOLUTION_KIND)
        )
    rows.append(("SL(2)xSL(3) g=1", parse_group_spec("SL(2)xSL(3)"), 1, RESOLUTION_KIND))
    return rows


# ---------------------------------------------------------------------------
# criteria


def criterion_1():
    """Classification verdicts across the catalog, under one second."""
    start = time.perf_counter()
    rows = classification_catalog()
    for label, spec, genus, expected in rows:
        verdict = classify_resolution(spec, genus)
        assert verdict.kind == expected, (
            f"{label}: got {verdict.kind}, expected {expected}"
        )
        assert verdict.has_resolution == (expected != NO_RESOLUTION_KIND), label
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"classification took {elapsed:.2f} s, limit 1 s"
    return f"{len(rows)} verdicts match the frozen table in {elapsed:.3f} s"


def criterion_2():
    """Stratum dimensions and the exhaustive small-codimension lists."""
    start = time.perf_counter()
    nu = WeightedPartition.of((1, 2), (1, 1))
    assert stratum_dim_gl(nu, 2) == 14
    assert stratum_codim(nu, 2, 3) == 6
    assert stratum_codim(WeightedPartition.of((1, 1), (1, 1)), 2, 2) == 2

    # the closed form is a genus >= 2 statement; genus one has its own model
    below4 = []
    below8 = []
    for n in range(2, 11):
        for genus in range(2, 6):
            for nu in enumerate_weighted_partitions(n):
                if nu.is_generic:
                    continue
                codim = stratum_codim(nu, genus, n)
                if codim < 4:
                    below4.append((n, genus, str(nu)))
                if codim < 8 and (n, genus) != (2, 2):
                    below8.append((n, genus, str(nu)))
    assert below4 == [(2, 2, "(1,1; 1,1)")], f"codim<4 list wrong: {below4}"
    assert sorted(below8) == [(2, 3, "(1,1; 1,1)"), (3, 2, "(1,2; 1,1)")], (
        f"codim<8 list wrong: {below8}"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"scan took {elapsed:.2f} s, limit 10 s"
    return f"dims 14/6/2 and exceptional lists exact in {elapsed:.2f} s"


def criterion_3():
    """Codimension expansion equals dimension subtraction, n <= 12, g in 2..6."""
    checks = 0
    for n in range(1, 13):
        ambient = {g: char_variety_dim(parse_group_spec(f"GL({n})"), g)
                   for g in range(2, 7)}
        for nu in enumerate_weighted_partitions(n):
            for genus in range(2, 7):
                expansion = stratum_codim(nu, genus, n)
                subtraction = ambient[genus] - stratum_dim_gl(nu, genus)
                assert expansion == subtraction, (n, genus, str(nu))
                checks += 1
    return f"{checks} integer identities hold"


def criterion_4():
    """Genus-one fixed loci: closed form vs orbit counting, all twists n <= 8."""
    checks = 0
    for n in range(1, 9):
        for a in range(n):
            for b in range(n):
                problem = verify.genus1_pair_mismatch(n, (a, b))
                assert problem is None, problem
                checks += 1
    best = min_nonfree_codim(canonical_decomposition(parse_group_spec("PGL(2)")), 1)
    assert best is not None and best[0] == 2
    return f"{checks} twists agree; PGL(2) minimum codim 2"


def criterion_5():
    """Genus >= 2 fixed loci: tangent counts, and the 4(g-1) lower bound."""
    checks = 0
    for n in range(1, 7):
        for ell in range(1, n + 1):
            if n % ell:
                assert fixed_tangent_oracle(n, ell, 2) is None
                continue
            for genus in (2, 3):
                problem = verify.order_mismatch(n, ell, genus)
                assert problem is None, problem
                checks += 1
    for label, spec, _, _ in classification_catalog():
        decomp = canonical_decomposition(spec)
        for genus in (2, 3):
            best = min_nonfree_codim(decomp, genus)
            if best is not None:
                assert best[0] >= 4 * (genus - 1), (label, genus, best)
    pgl2 = canonical_decomposition(parse_group_spec("PGL(2)"))
    for genus in (2, 3):
        assert min_nonfree_codim(pgl2, genus)[0] == 4 * (genus - 1)
    return f"{checks} tangent counts agree; minimum >= 4(g-1), tight for PGL(2)"


_COHOMOLOGY_CASES = ((2, 2), (3, 2), (2, 3))
_TRIALS = 50
_exact_reps_cache = []


def _gathered_reps():
    """50 refined irreducible and 50 diagonal reps per (n, g), cached."""
    if _exact_reps_cache:
        return _exact_reps_cache[0]
    irreducible = {}
    diagonal = {}
    for n, genus in _COHOMOLOGY_CASES:
        found = []
        attempt = 0
        while len(found) < _TRIALS:
            assert attempt < 4 * _TRIALS, f"too many reducible starts at ({n},{genus})"
            seed = 100_000 * n + 1_000 * genus + attempt
            attempt += 1
            rep = verify.irreducible_point(n, genus, seed)
            if rep is not None:
                found.append(rep)
        irreducible[(n, genus)] = found
        diagonal[(n, genus)] = [
            sample_diagonal_rep(n, genus, seed=s) for s in range(_TRIALS)
        ]
    _exact_reps_cache.append((irreducible, diagonal))
    return _exact_reps_cache[0]


def criterion_6():
    """Cohomology on 50 irreducible + 50 diagonal reps per (n, g), < 2 min."""
    start = time.perf_counter()
    irreducible, diagonal = _gathered_reps()
    checks = ((verify.check_irreducible, irreducible), (verify.check_diagonal, diagonal))
    for check, group in checks:
        for (n, genus), reps in group.items():
            for rep in reps:
                failures = check(rep)["failures"]
                assert not failures, (n, genus, failures)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"cohomology runs took {elapsed:.1f} s, limit 120 s"
    total = sum(len(v) for v in irreducible.values())
    return f"{total} irreducible + {total} diagonal reps verified in {elapsed:.1f} s"


def criterion_7():
    """Composite of the two Fox differentials vanishes on every exact rep."""
    irreducible, diagonal = _gathered_reps()
    checked = 0
    for group in (irreducible, diagonal):
        for reps in group.values():
            for rep in reps:
                d0 = coboundary_matrix(rep)
                d1 = cocycle_matrix(rep)
                scale = np.linalg.norm(d1) * np.linalg.norm(d0)
                assert np.linalg.norm(d1 @ d0) <= 1e-10 * scale, rep.n
                checked += 1
    return f"|d1.d0| <= 1e-10 relative on all {checked} exact reps"


def criterion_8():
    """100 moment-map points transfer to reps within the transfer bound."""
    transferred = 0
    for n in (2, 3):
        successes = 0
        attempt = 0
        while successes < 50:
            assert attempt < 80, f"too many refinement failures at n={n}"
            seed = 7_000_000 + 10_000 * n + attempt
            attempt += 1
            try:
                point = verify.moment_point(n, 2, seed)
            except ConvergenceError:
                continue
            failures = verify.check_transfer(point)["failures"]
            assert not failures, (n, seed, failures)
            successes += 1
            transferred += 1
    return f"{transferred} transferred points stay within {verify.TRANSFER_TOL:g}"


def criterion_9():
    """Terminalization smoothness agrees with the classification everywhere."""
    specs = [(label, spec) for label, spec, _, _ in classification_catalog()]
    for base in ((2, 2), (2, 4)):
        for sub in enumerate_central_subgroups(base):
            gens = tuple(e for e in sub.elements if not e.is_identity)
            specs.append((f"SL{base} / order-{sub.order}", GroupSpec(0, base, gens)))
    checks = 0
    for label, spec in specs:
        for genus in (1, 2, 3):
            plan = plan_terminalization(spec, genus)
            verdict = classify_resolution(spec, genus)
            assert plan.smooth == verdict.has_resolution, (label, genus)
            checks += 1
    return f"plan.smooth matches the verdict in {checks} cases"


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def _run(index):
    fn = CRITERIA[index - 1]
    message = fn()
    print(f"criterion {index}: PASS ({message})")


def report() -> int:
    """One PASS or FAIL line per criterion; any exception fails its criterion
    and the report goes on.  Returns the exit status, 1 if any failed."""
    failed = 0
    for i in range(1, len(CRITERIA) + 1):
        try:
            _run(i)
        except Exception as exc:
            print(f"criterion {i}: FAIL ({type(exc).__name__}: {exc})")
            failed += 1
    return 1 if failed else 0


def test_criterion_1():
    _run(1)


def test_criterion_2():
    _run(2)


def test_criterion_3():
    _run(3)


def test_criterion_4():
    _run(4)


def test_criterion_5():
    _run(5)


def test_criterion_6():
    _run(6)


def test_criterion_7():
    _run(7)


def test_criterion_8():
    _run(8)


def test_criterion_9():
    _run(9)


if __name__ == "__main__":
    sys.exit(report())
