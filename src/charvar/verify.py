"""Verification suites: exact predictions against oracles, as records.

Each suite returns a list of JSON-ready records, one per checked case, each
with a ``failures`` list and an ``ok`` flag; the command line only formats
them.  The fixed-locus closed forms are compared with their counting
oracles in exactly one place per genus regime (``genus1_pair_mismatch`` and
``order_mismatch``), used both by the fixed-loci suite and by
``oracle_mismatches`` for a concrete group.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional, Sequence

from .fixed_loci import (
    codim_highgenus_from_orders,
    fixed_tangent_oracle,
    genus1_orbit_oracle,
    per_factor_orders,
)
from .groups import GroupSpec, canonical_decomposition
from .numerics import (
    ConvergenceError,
    SurfaceRep,
    centralizer_dim,
    cohomology_dims,
    fixed_point_tangent_check,
    moment_residual,
    mpa_to_surface,
    newton_refine_rep,
    refine_moment_map_point,
    sample_diagonal_rep,
    sample_moment_start,
    sample_random_rep,
)

SUITES = ("cohomology", "moment-map", "fixed-loci", "all")
_MAX_RESAMPLES = 5


def _trial_seed(master: int, *indices: int) -> int:
    x = master % (2**63)
    for k in indices:
        x = (x * 1_000_003 + k + 1) % (2**63)
    return x


def _record(suite: str, n: int, genus: int, **fields) -> dict:
    return {"suite": suite, "n": n, "genus": genus, "failures": [], **fields}


# --------------------------------------------------------------------------
# fixed-locus closed forms against combinatorial and numeric counts


def genus1_pair_mismatch(n: int, pair: tuple[int, int]) -> Optional[str]:
    """Orbit count against (2n-2) - (2n - 2(n/l)) for one SL(n) twist pair;
    a message on disagreement, else None."""
    a, b = pair
    ell = lcm(n // gcd(a, n), n // gcd(b, n))
    closed = (2 * n - 2) - (2 * n - 2 * (n // ell))
    counted = genus1_orbit_oracle(n, pair)
    if counted == closed:
        return None
    return f"SL({n}): orbit count {counted} vs formula {closed} as pair {pair}"


def order_mismatch(n: int, ell: int, genus: int) -> Optional[str]:
    """Tangent oracle and numeric tangent count against the closed form for
    one order-l twist of SL(n) at genus >= 2; a message unless all agree."""
    closed = codim_highgenus_from_orders([n], [ell], genus)
    counted = fixed_tangent_oracle(n, ell, genus)
    numeric = fixed_point_tangent_check(n, ell, genus)
    if counted == closed and numeric == closed:
        return None
    return (
        f"SL({n}): tangent counts {counted}/{numeric} vs formula {closed} "
        f"for order-{ell} twist"
    )


def oracle_mismatches(spec: GroupSpec, genus: int) -> list[str]:
    """Brute-force recounts of each distinct per-factor case the kernel hits.

    A case is (n, a) at genus one, checked as the pairs (a, 0) and (0, a),
    and (n, l) at genus >= 2; twists with a torus coordinate fix nothing.
    """
    kernel = [e for e in canonical_decomposition(spec).ss_kernel if not e.is_identity]
    if genus == 1:
        cases = dict.fromkeys(
            (n, e.ss_part[i]) for e in kernel for i, n in enumerate(spec.factors)
        )
        found = [
            genus1_pair_mismatch(n, pair)
            for n, a in cases
            for pair in ((a, 0), (0, a))
        ]
    else:
        cases = dict.fromkeys(
            case
            for e in kernel
            for case in zip(spec.factors, per_factor_orders(e, spec.factors))
        )
        found = [order_mismatch(n, ell, genus) for n, ell in cases]
    return [p for p in found if p is not None]


def fixed_loci_records(sizes: Sequence[int], genera: Sequence[int]) -> list[dict]:
    """One record per (n, genus): every twist pair at genus one, every
    order l dividing n at genus >= 2."""
    records = []
    for n in sizes:
        for genus in genera:
            if genus == 1:
                found = [
                    genus1_pair_mismatch(n, (a, b)) for a in range(n) for b in range(n)
                ]
            else:
                found = [
                    order_mismatch(n, ell, genus)
                    for ell in range(1, n + 1)
                    if n % ell == 0
                ]
            rec = _record("fixed-loci", n, genus, checks=len(found))
            rec["failures"] = [p for p in found if p is not None]
            rec["ok"] = not rec["failures"]
            records.append(rec)
    return records


# --------------------------------------------------------------------------
# numerical suites


def _cohomology_fields(rep: SurfaceRep) -> dict:
    report = cohomology_dims(rep)
    return {
        "relator_residual": rep.relator_residual(),
        "h": [report.h0, report.h1, report.h2],
        "euler_residual": report.euler_residual,
        "singular_value_gap": report.to_json()["singular_value_gap"],
        "reliable": report.reliable,
    }


def cohomology_records(
    sizes: Sequence[int], genera: Sequence[int], trials: int, master_seed: int
) -> list[dict]:
    """h^* at refined irreducible points and at one commuting diagonal tuple
    per (n, genus).  Genus >= 2: genus one has no irreducible points."""
    records = []
    for n in sizes:
        for genus in genera:
            expected_h1 = 2 * (genus - 1) * (n * n - 1)
            for trial in range(trials):
                rec = _record(
                    "cohomology", n, genus, kind="irreducible-random", trial=trial
                )
                rec["resamples"] = 0
                rep = None
                for attempt in range(_MAX_RESAMPLES):
                    seed = _trial_seed(master_seed, 1, n, genus, trial, attempt)
                    try:
                        candidate = newton_refine_rep(
                            sample_random_rep(n, genus, seed=seed), tol=1e-12
                        )
                    except ConvergenceError:
                        rec["resamples"] += 1
                        continue
                    if centralizer_dim(candidate, mode="gl") == 1:
                        rep = candidate
                        rec["seed"] = seed
                        break
                    rec["resamples"] += 1
                if rep is None:
                    rec["failures"].append("no irreducible point found")
                else:
                    rec.update(_cohomology_fields(rep), expected_h1=expected_h1)
                    h0, h1, h2 = rec["h"]
                    if rec["relator_residual"] > 1e-12:
                        rec["failures"].append("relator residual above 1e-12")
                    if (h0, h2) != (0, 0):
                        rec["failures"].append("nonzero h0 or h2 at irreducible point")
                    if h1 != expected_h1:
                        rec["failures"].append(f"h1 = {h1}, expected {expected_h1}")
                    if rec["euler_residual"] != 0:
                        rec["failures"].append("nonzero euler residual")
                rec["ok"] = not rec["failures"]
                records.append(rec)

            # one commuting tuple per (n, genus): exact and reducible
            seed = _trial_seed(master_seed, 2, n, genus)
            rep = sample_diagonal_rep(n, genus, seed=seed)
            rec = _record("cohomology", n, genus, kind="commuting-diagonal", seed=seed)
            rec.update(_cohomology_fields(rep))
            h0, _, h2 = rec["h"]
            if (h0, h2) != (n - 1, n - 1):
                rec["failures"].append(f"h0 = {h0}, expected {n - 1}")
            if rec["euler_residual"] != 0:
                rec["failures"].append("nonzero euler residual")
            rec["ok"] = not rec["failures"]
            records.append(rec)
    return records


def moment_records(
    sizes: Sequence[int], genera: Sequence[int], trials: int, master_seed: int
) -> list[dict]:
    """Moment-map solves and their transfer to surface group tuples."""
    records = []
    for n in sizes:
        for genus in genera:
            for trial in range(trials):
                seed = _trial_seed(master_seed, 3, n, genus, trial)
                rec = _record("moment-map", n, genus, trial=trial, seed=seed)
                try:
                    solved = refine_moment_map_point(
                        sample_moment_start(n, genus, seed=seed, spread=0.3),
                        tol=1e-8,
                    )
                    mres = moment_residual(solved)
                    rres = mpa_to_surface(solved, tol=1e-7).relator_residual()
                    rec["moment_residual"] = mres
                    rec["relator_residual"] = rres
                    if mres > 1e-8:
                        rec["failures"].append("moment residual above 1e-8")
                    if rres > 1e-7:
                        rec["failures"].append(
                            "relator residual above ten times the moment tolerance"
                        )
                except (ConvergenceError, ValueError) as exc:
                    rec["failures"].append(str(exc))
                rec["ok"] = not rec["failures"]
                records.append(rec)
    return records


def run_suite(
    suite: str,
    sizes: Sequence[int],
    genera: Sequence[int],
    trials: int,
    master_seed: int,
) -> list[dict]:
    """Records of one suite, or of all three in order for ``"all"``."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    records = []
    if suite in ("cohomology", "all"):
        records += cohomology_records(sizes, genera, trials, master_seed)
    if suite in ("moment-map", "all"):
        records += moment_records(sizes, genera, trials, master_seed)
    if suite in ("fixed-loci", "all"):
        records += fixed_loci_records(sizes, genera)
    return records
