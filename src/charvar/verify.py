"""Verification suites: exact predictions against oracles, as records.

Every expected value and tolerance of a verification case lives in one
per-case check here (``genus1_pair_mismatch``, ``order_mismatch``,
``check_irreducible``, ``check_diagonal``, ``check_transfer``), which the
suites, ``oracle_mismatches`` and the acceptance criteria all call.
``run_suite`` returns JSON-ready records, each with a ``failures`` list and
an ``ok`` flag, and ``suite_verdict`` judges a run; the command line only
formats them.  ``run_suite`` and ``oracle_mismatches`` refuse inputs above
the size limits below with ``SizeLimitError`` before any work.
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

# Size limits, from subprocess times on a 2-core VM.  One trial of every
# suite at n = 12 and genus 32 takes 1.7 s at a 140 MB peak, at n = 16
# 4.3 s and 361 MB.  The cost is linear in the trial count and in the number
# of (n, genus) pairs.  The genus limit keeps in reach the genera where the
# solvers start to fail at seed 0: the moment-map solve at genus 12 for
# n = 12 and genus 20 for n = 4, the search for an irreducible point at
# genus 25 for n = 4.
MAX_VERIFY_N = 12
MAX_VERIFY_GENUS = 32
# The numeric tangent count ranks n^2 numbers per order l | n:
# `fixed-loci --oracle` takes 0.7-1.0 s on PGL(960) and 1.4 s on PGL(1500).
MAX_ORACLE_N = 1000

RELATOR_TOL = 1e-12
MOMENT_TOL = 1e-8
TRANSFER_TOL = 1e-7


class SizeLimitError(ValueError):
    """An input above a size limit, refused before any work."""


def _check_limit(what: str, value: int, limit: int, scope: str) -> None:
    if value > limit:
        raise SizeLimitError(f"{what} = {value} is above the limit {limit} of {scope}")


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
    and (n, l) at genus >= 2, where n may not exceed ``MAX_ORACLE_N``;
    twists with a torus coordinate fix nothing.
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
        _check_limit(
            "n", max((n for n, _ in cases), default=0), MAX_ORACLE_N,
            "the genus >= 2 tangent counts",
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
            records.append(rec)
    return records


# --------------------------------------------------------------------------
# numerical checks and suites


def expected_h1(n: int, genus: int) -> int:
    """h^1 at an irreducible point: the tangent dimension 2(g-1)(n^2-1)."""
    return 2 * (genus - 1) * (n * n - 1)


def irreducible_point(n: int, genus: int, seed: int) -> Optional[SurfaceRep]:
    """A refined random tuple, or None if refinement fails or it is reducible."""
    try:
        rep = newton_refine_rep(sample_random_rep(n, genus, seed=seed), tol=RELATOR_TOL)
    except ConvergenceError:
        return None
    return rep if centralizer_dim(rep, mode="gl") == 1 else None


def moment_point(n: int, genus: int, seed: int) -> list:
    """Perturbed unitaries refined onto the moment map; may raise ConvergenceError."""
    start = sample_moment_start(n, genus, seed=seed, spread=0.3)
    return refine_moment_map_point(start, tol=MOMENT_TOL)


def _cohomology_fields(rep: SurfaceRep) -> dict:
    report = cohomology_dims(rep)
    return {
        "relator_residual": rep.relator_residual(),
        "h": [report.h0, report.h1, report.h2],
        "euler_residual": report.euler_residual,
        "singular_value_gap": report.to_json()["singular_value_gap"],
        "reliable": report.reliable,
    }


def check_irreducible(rep: SurfaceRep) -> dict:
    """Measured fields and failures at a refined irreducible point."""
    fields = _cohomology_fields(rep)
    expected = expected_h1(rep.n, rep.genus)
    h0, h1, h2 = fields["h"]
    failures = []
    if fields["relator_residual"] > RELATOR_TOL:
        failures.append("relator residual above 1e-12")
    if (h0, h2) != (0, 0):
        failures.append("nonzero h0 or h2 at irreducible point")
    if h1 != expected:
        failures.append(f"h1 = {h1}, expected {expected}")
    if fields["euler_residual"] != 0:
        failures.append("nonzero euler residual")
    return {**fields, "expected_h1": expected, "failures": failures}


def check_diagonal(rep: SurfaceRep) -> dict:
    """Measured fields and failures at an exact commuting diagonal tuple."""
    fields = _cohomology_fields(rep)
    h0, _, h2 = fields["h"]
    failures = []
    if (h0, h2) != (rep.n - 1, rep.n - 1):
        failures.append(f"h0 = {h0}, expected {rep.n - 1}")
    if fields["euler_residual"] != 0:
        failures.append("nonzero euler residual")
    return {**fields, "failures": failures}


def check_transfer(point: Sequence) -> dict:
    """Residuals and failures of a moment-map point and its surface tuple."""
    mres = moment_residual(point)
    rres = mpa_to_surface(point, tol=TRANSFER_TOL).relator_residual()
    failures = []
    if mres > MOMENT_TOL:
        failures.append("moment residual above 1e-8")
    if rres > TRANSFER_TOL:
        failures.append("relator residual above ten times the moment tolerance")
    return {"moment_residual": mres, "relator_residual": rres, "failures": failures}


def cohomology_records(
    sizes: Sequence[int], genera: Sequence[int], trials: int, master_seed: int
) -> list[dict]:
    """h^* at refined irreducible points and at one commuting diagonal tuple
    per (n, genus).  Genus >= 2: genus one has no irreducible points."""
    records = []
    for n in sizes:
        for genus in genera:
            for trial in range(trials):
                rec = _record(
                    "cohomology", n, genus, kind="irreducible-random", trial=trial
                )
                rec["resamples"] = 0
                for attempt in range(_MAX_RESAMPLES):
                    seed = _trial_seed(master_seed, 1, n, genus, trial, attempt)
                    rep = irreducible_point(n, genus, seed)
                    if rep is not None:
                        rec["seed"] = seed
                        rec.update(check_irreducible(rep))
                        break
                    rec["resamples"] += 1
                else:
                    rec["failures"].append("no irreducible point found")
                records.append(rec)

            # one commuting tuple per (n, genus): exact and reducible
            seed = _trial_seed(master_seed, 2, n, genus)
            rec = _record("cohomology", n, genus, kind="commuting-diagonal", seed=seed)
            rec.update(check_diagonal(sample_diagonal_rep(n, genus, seed=seed)))
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
                    rec.update(check_transfer(moment_point(n, genus, seed)))
                except (ConvergenceError, ValueError) as exc:
                    rec["failures"].append(str(exc))
                records.append(rec)
    return records


def run_suite(
    suite: str,
    sizes: Sequence[int],
    genera: Sequence[int],
    trials: int,
    master_seed: int,
) -> list[dict]:
    """Records of one suite, or of all three in order for ``"all"``, each
    ``ok`` when it has no failures; n and genus may not exceed
    ``MAX_VERIFY_N`` and ``MAX_VERIFY_GENUS``."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    _check_limit("n", max(sizes, default=0), MAX_VERIFY_N, "the verify suites")
    _check_limit("genus", max(genera, default=0), MAX_VERIFY_GENUS, "the verify suites")
    records = []
    if suite in ("cohomology", "all"):
        records += cohomology_records(sizes, genera, trials, master_seed)
    if suite in ("moment-map", "all"):
        records += moment_records(sizes, genera, trials, master_seed)
    if suite in ("fixed-loci", "all"):
        records += fixed_loci_records(sizes, genera)
    for rec in records:
        rec["ok"] = not rec["failures"]
    return records


def suite_verdict(records: Sequence[dict], strict: bool) -> tuple[int, int, Optional[str]]:
    """Failed records, unreliable rank cuts, and why the run fails (None when
    it passes): any failed record, and under ``strict`` any unreliable cut."""
    failed = sum(not r["ok"] for r in records)
    unreliable = sum(r.get("reliable") is False for r in records)
    if failed:
        return failed, unreliable, f"{failed} record(s) disagreed with the oracle"
    if strict and unreliable:
        return failed, unreliable, f"{unreliable} unreliable rank cut(s) in strict mode"
    return failed, unreliable, None
