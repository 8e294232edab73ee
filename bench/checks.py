"""Output checks and answer digests.

Every check is a property a correct answer must have, recomputed here from
the query itself without calling charvar: the closed-form dimension, |Z0|
by brute-force closure, and consistency between fields that come from
different layers.  A query passes when it exits 0, prints JSON, and its
command's checks find nothing.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from queries import Query, subgroup_order

# outputs of the first this-many queries of a run go into its digest, so two
# runs of one seed compare equal however many queries each had time for
DIGEST_QUERIES = 100


def closed_form_dim(torus_rank: int, factors: list[int], genus: int) -> int:
    if genus == 1:
        return 2 * torus_rank + sum(2 * (n - 1) for n in factors)
    return 2 * genus * torus_rank + sum(2 * (genus - 1) * (n * n - 1) for n in factors)


def _terminal_matches(flags: dict, codim: Optional[int]) -> bool:
    return flags["terminal"] == (codim is None or codim >= 4)


def _check_analyze(query: Query, p: dict) -> list[str]:
    spec, problems = query.spec, []
    expected = closed_form_dim(spec["torus_rank"], spec["factors"], query.genus)
    if p["dimension"] != expected:
        problems.append(f"dimension {p['dimension']}, closed form gives {expected}")
    d = p["decomposition"]
    if d["center_order"] != d["ss_kernel_order"] * d["etale_order"]:
        problems.append("center_order != ss_kernel_order * etale_order")
    if d["center_order"] != subgroup_order(spec):
        problems.append(f"center_order {d['center_order']}, closure gives {subgroup_order(spec)}")
    if p["terminalization"]["smooth"] != (p["verdict"]["kind"] == "resolution"):
        problems.append("terminalization.smooth disagrees with the verdict")
    if not _terminal_matches(p["properties"], p["singular_codim"]):
        problems.append("properties.terminal disagrees with singular_codim")
    return problems


def _check_classify(query: Query, p: dict) -> list[str]:
    problems = []
    if p["has_resolution"] != (p["kind"] in ("resolution", "smooth")):
        problems.append("has_resolution disagrees with kind")
    if not _terminal_matches(p["properties"], p["properties"]["singular_codim"]):
        problems.append("properties.terminal disagrees with singular_codim")
    return problems


def _check_terminalize(query: Query, p: dict) -> list[str]:
    if len(p["leaves"]) != len(query.spec["factors"]):
        return ["one leaf per SL factor expected"]
    return []


def _check_strata(query: Query, p: dict) -> list[str]:
    spec, problems = query.spec, []
    expected = closed_form_dim(spec["torus_rank"], spec["factors"], query.genus)
    if p["total_dim"] != expected:
        problems.append(f"total_dim {p['total_dim']}, closed form gives {expected}")
    for factor in p["factors"]:
        if sum(row["open"] for row in factor["strata"]) != 1:
            problems.append(f"factor SL({factor['n']}) lacks exactly one open stratum")
    return problems


def _check_fixed_loci(query: Query, p: dict) -> list[str]:
    problems = []
    rows, order = len(p["twists"]), subgroup_order(query.spec)
    if rows != order - 1:
        problems.append(f"{rows} twist rows, expected |Z0| - 1 = {order - 1}")
    if "--oracle" in query.argv and p.get("oracle_mismatches") != []:
        problems.append("oracle cross-check missing or failed")
    return problems


def _check_verify(query: Query, p: dict) -> list[str]:
    problems = []
    if p["ok"] is not True:
        problems.append("verify reported ok = false")
    if not p["records"]:
        problems.append("no records")
    problems += [
        f"record failed: {'; '.join(r['failures'])}" for r in p["records"] if not r["ok"]
    ]
    return problems


CHECKS = {
    "analyze": _check_analyze,
    "classify": _check_classify,
    "terminalize": _check_terminalize,
    "strata": _check_strata,
    "fixed-loci": _check_fixed_loci,
    "verify": _check_verify,
}


def check_output(query: Query, code: Optional[int], text: str) -> list[str]:
    """Problems with one query's answer; empty means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(text)
        return CHECKS[query.command](query, payload)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def digest_bytes(query: Query, text: str) -> bytes:
    """What of one answer enters the digest.

    verify answers contribute only their integer fields (cohomology ranks and
    pass flags): a numerics change may move roundoff without changing an
    answer.  Every other command contributes its full JSON output.
    """
    if query.command == "verify":
        try:
            records = json.loads(text)["records"]
            text = json.dumps([[r.get("h"), r["ok"]] for r in records])
        except (ValueError, KeyError, TypeError):
            pass  # a failed answer enters as printed; its check already failed
    return "\0".join(query.argv).encode() + b"\0" + text.encode() + b"\0"


class Digest:
    """sha256 over the first DIGEST_QUERIES answers of a run."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.queries = 0

    def add(self, query: Query, text: str) -> None:
        if self.queries < DIGEST_QUERIES:
            self._hash.update(digest_bytes(query, text))
            self.queries += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
