"""Command line front end.

Subcommands: analyze, strata, classify, fixed-loci, terminalize, verify,
presets.  Every subcommand takes --json for machine-readable output and
--config pointing at a JSON file whose keys mirror the flag names and whose
values take what the flags take, uncoerced (explicit flags win).  Exit
codes: 0 success, 1 input error, 2 verification failure, so CI can tell a
typo from mathematics disagreeing with an oracle; 141 when the reader closed
standard output early (``charvar ... | head``), as a shell reports a process
that SIGPIPE ended.

This module only parses and validates flags and formats results; the
library computes them, and ``charvar.verify`` runs the verify suites and
the --oracle cross-checks and judges each verify run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Callable, Optional, Sequence

from .classify import classify_resolution
from .fixed_loci import TwistRows, twist_rows
from .groups import (
    PRESET_CATALOG,
    ElementRows,
    GroupSpecError,
    _is_int,
    canonical_decomposition,
    char_variety_dim,
    parse_group_spec,
)
from .strata import StratumRows, strata_table
from .terminalize import plan_terminalization, render_plan
from .verify import SUITES, SizeLimitError, oracle_mismatches, run_suite, suite_verdict

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_VERIFY_FAILURE = 2
EXIT_BROKEN_PIPE = 141

# strata and analyze list every stratum of each SL(n) factor, one row per
# weighted partition of n at genus >= 2; larger factors are refused with
# exit 1 before anything is enumerated.  As a fresh process on a 2-core VM,
# `strata --json` at genus 2 takes 0.7 s on SL(21) (21,077 rows, 13.8 MB) and
# 1.1 s on SL(22) (30,479 rows, 20.4 MB, timed with the limit raised).
MAX_LISTED_N = 21

# which rule justifies each analyze field, stated by content
CITATIONS = {
    "dimension": (
        "dimension count: 2gh for the torus plus 2(g-1)(n_i^2-1) summed "
        "over SL factors at genus >= 2, and 2h plus 2(n_i-1) at genus one"
    ),
    "strata": (
        "stratification by weighted partitions: multiplicities and block "
        "dimensions of the underlying semisimple representation type"
    ),
    "singular_codim": (
        "minimum over non-generic stratum codimensions and non-free central "
        "twist codimensions"
    ),
    "properties": (
        "symplectic singularities and Q-factoriality hold for every quotient "
        "here; terminality is the codimension >= 4 cut"
    ),
    "verdict": (
        "case analysis on genus and the torus-invisible kernel: genus one "
        "needs a product of SL factors and PGL(2) slots, genus two a pure "
        "SL(2) product, genus >= 3 nothing survives"
    ),
    "terminalization": (
        "factor-wise modification (Hilbert-Chow at genus one, singular-locus "
        "blowup for SL(2) at genus two) followed by central and etale "
        "quotients"
    ),
}

class CliInputError(Exception):
    """Bad flags, config, or group description; maps to exit code 1."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; 2 is reserved for oracle
    # failures here, so reroute through the input-error path
    def error(self, message):
        raise CliInputError("usage", message)


def _fail(err: CliInputError) -> int:
    print(f"error[{err.code}]: {err}", file=sys.stderr)
    return EXIT_INPUT_ERROR


# --------------------------------------------------------------------------
# flag plumbing


@functools.cache
def _parser() -> _Parser:
    # parse_args leaves the parser as it was and returns a fresh namespace,
    # so one parser serves every main() call in a process
    return _build_parser()


def _build_parser() -> _Parser:
    parser = _Parser(prog="charvar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p, group=True, genus=True):
        if group:
            p.add_argument(
                "--group",
                default=None,
                help="preset like SL(2), GL(3)xPGL(2), or a JSON object",
            )
        if genus:
            p.add_argument("--genus", type=int, default=None)
        p.add_argument("--json", action="store_true", default=None)
        p.add_argument("--config", default=None, help="JSON file of defaults")

    p = sub.add_parser("analyze", help="full report: dimensions to terminalization")
    common(p)

    p = sub.add_parser("strata", help="stratum table per SL factor")
    common(p)

    p = sub.add_parser("classify", help="does a symplectic resolution exist")
    common(p)

    p = sub.add_parser("fixed-loci", help="codimensions of central-twist fixed loci")
    common(p)
    p.add_argument(
        "--oracle",
        action="store_true",
        default=None,
        help="cross-check each codimension against combinatorial and numeric counts",
    )

    p = sub.add_parser("terminalize", help="Q-factorial terminalization plan")
    common(p)

    p = sub.add_parser("verify", help="numerical suites against exact predictions")
    common(p, group=False, genus=False)
    p.add_argument("--suite", choices=SUITES, default=None)
    p.add_argument("--n", dest="sizes", default=None, help="comma-separated sizes")
    p.add_argument(
        "--genus", dest="genera", default=None, help="comma-separated genera"
    )
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--strict",
        action="store_true",
        default=None,
        help="treat unreliable rank cuts as failures",
    )

    p = sub.add_parser("presets", help="list --group preset patterns")
    p.add_argument("--json", action="store_true", default=None)
    p.add_argument("--config", default=None)
    return parser


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            config = json.load(handle)
    except OSError as exc:
        raise CliInputError("config", f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise CliInputError("config", f"config is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise CliInputError("config", "config must be a JSON object")
    return config


def _int_value(value) -> Optional[int]:
    """A JSON int that is not a bool, or the integer of a string as an
    integer flag reads it; None for anything else."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return None
    return value if _is_int(value) else None


def _int_list(value) -> Optional[list[int]]:
    """A JSON list of such ints, or the integers of comma-separated text as
    a list flag reads it; None for anything else."""
    if isinstance(value, str):
        try:
            return [int(x) for x in value.split(",")]
        except ValueError:
            return None
    if isinstance(value, list) and all(map(_is_int, value)):
        return value
    return None


def _of_type(*types) -> Callable:
    return lambda value: value if isinstance(value, types) else None


# what each --config key takes, as its flag does, and the reader that gives
# its value or None: a switch takes a JSON bool, an integer flag an integer,
# a list flag a list of integers.  Nothing is coerced.
_CONFIG_KEYS = {
    "group": ("a preset string or a group object", _of_type(str, dict)),
    "suite": ("a string", _of_type(str)),
    "genus": ("an integer", _int_value),
    "trials": ("an integer", _int_value),
    "seed": ("an integer", _int_value),
    "sizes": ("a list of integers", _int_list),
    "genera": ("a list of integers", _int_list),
    "json": ("true or false", _of_type(bool)),
    "oracle": ("true or false", _of_type(bool)),
    "strict": ("true or false", _of_type(bool)),
}


def _config_value(key: str, value):
    """The --config ``value`` of ``key``, held to what its flag takes."""
    kind, read = _CONFIG_KEYS[key]
    typed = read(value)
    if typed is None:
        shown = type(value).__name__ if isinstance(value, (dict, list)) else repr(value)
        raise CliInputError("config", f"config key {key!r} takes {kind}, got {shown}")
    return typed


def _merged(args, config: dict, key: str, default=None, required: bool = False):
    value = getattr(args, key, None)
    if value is None and key in config:
        value = _config_value(key, config[key])
    if value is None:
        value = default
    if value is None and required:
        raise CliInputError("usage", f"--{key.replace('_', '-')} is required")
    return value


def _resolve_spec(args, config):
    source = _merged(args, config, "group", required=True)
    try:
        return parse_group_spec(source)
    except GroupSpecError as exc:
        raise CliInputError("group-spec", str(exc))


def _resolve_genus(args, config) -> int:
    genus = _merged(args, config, "genus", required=True)
    if genus < 1:
        raise CliInputError("genus", f"genus must be >= 1, got {genus}")
    return genus


def _parse_int_list(value, flag: str) -> list[int]:
    """The integers of a flag's comma-separated text, or of a config list."""
    out = _int_list(value)
    if out is None:
        raise CliInputError("usage", f"--{flag} wants comma-separated integers")
    if not out:
        raise CliInputError("usage", f"--{flag} must not be empty")
    return out


def _check_listable(spec) -> None:
    n = max(spec.factors, default=0)
    if n > MAX_LISTED_N:
        raise CliInputError(
            "size",
            f"SL({n}) has too many strata to list: n = {n} is above the "
            f"limit {MAX_LISTED_N}",
        )


def _emit(args, config, payload: dict, render: Callable[[], str]) -> None:
    """Print ``payload`` under --json, else the text report ``render()``
    builds; the report is built only when it is printed."""
    if _merged(args, config, "json", False):
        print(_json_text(payload))
    else:
        print(render())


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, written in one pass.

    With an indent the stdlib encoder falls back to pure Python, which costs
    more than many whole queries; this writer gives the same bytes for dicts
    with string keys, lists, tuples, strings, ints, floats, bools and None,
    and raises TypeError on anything else.  A non-empty row list of one of
    the types in ``_ROW_WRITERS`` is written one format per row, instead of
    one recursive call per line: ``StratumRows`` (the stratum rows of one
    factor table) by ``_stratum_rows_text``, ``TwistRows`` (the fixed-locus
    rows) by ``_twist_rows_text`` and ``ElementRows`` (the torus-invisible
    kernel) by ``_element_rows_text``.
    """
    out: list[str] = []
    _write_json(value, "\n", out, {})
    return "".join(out)


def _write_json(value, pad: str, out: list[str], memo: dict) -> None:
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            head = sep + _encode_str(key) + ": "
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is None:
                out.append(head)
                _write_json(item, inner, out, memo)
            else:
                out.append(head + scalar(item))
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        rows = _ROW_WRITERS.get(type(value))
        if rows is not None:
            out.append(rows(value, pad, memo))
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is None:
                out.append(sep)
                _write_json(item, inner, out, memo)
            else:
                out.append(sep + scalar(item))
            sep = "," + inner
        out.append(pad + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_LITERALS = {True: "true", False: "false", None: "null"}
# children of exactly these types are written inline, without recursing;
# subclasses (an IntEnum, say) take the isinstance path above
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    bool: _LITERALS.__getitem__,
    type(None): _LITERALS.__getitem__,
}


def _rows_text(texts: list[str], pad: str) -> str:
    """The list at ``pad`` of items already written one level deeper."""
    if not texts:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(texts) + pad + "]"


def _stratum_rows_text(rows: StratumRows, pad: str, memo: dict) -> str:
    """The indented JSON of non-empty stratum rows, the list at ``pad``.

    Each row is one ``%`` format over its sorted keys, built once per pad;
    the text of a ``nu`` pair (m, d) is memoized under (pad, m, d) for one
    ``_json_text`` call.  ``fiber_bounds`` is absent (None) at genus one.
    """
    row_pad = pad + "  "
    key_pad = row_pad + "  "
    pair_pad = key_pad + "  "
    int_pad = pair_pad + "  "
    row_format = (
        "{" + key_pad + '"codim": %d,'
        + key_pad + '"dim_gl": %d,'
        + key_pad + '"dim_sl": %d,'
        + key_pad + '"fiber_bounds": %s,'
        + key_pad + '"nu": [' + pair_pad + "%s" + key_pad + "],"
        + key_pad + '"open": %s'
        + row_pad + "}"
    )
    fiber_format = "[" + pair_pad + "%d," + pair_pad + "%d" + key_pad + "]"
    pair_sep = "," + pair_pad
    texts = []
    for row in rows:
        pairs = []
        for m, d in row["nu"]:
            key = (pad, m, d)
            text = memo.get(key)
            if text is None:
                text = memo[key] = f"[{int_pad}{m},{int_pad}{d}{pair_pad}]"
            pairs.append(text)
        fiber = row["fiber_bounds"]
        texts.append(row_format % (
            row["codim"],
            row["dim_gl"],
            row["dim_sl"],
            "null" if fiber is None else fiber_format % (fiber[0], fiber[1]),
            pair_sep.join(pairs),
            "true" if row["open"] else "false",
        ))
    return _rows_text(texts, pad)


def _list_format(pad: str, slot: str, count: int) -> str:
    """The ``%`` format of a list at ``pad`` of ``count`` items, each ``slot``."""
    if not count:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join([slot] * count) + pad + "]"


def _element_format(pad: str, residues: int, angles: int) -> str:
    """The ``%`` format of one ``CentralElement.to_json()`` dict at ``pad``:
    a ``%d`` per residue, then a ``%s`` per encoded angle."""
    inner = pad + "  "
    return (
        "{" + inner + '"factors": ' + _list_format(inner, "%d", residues) + ","
        + inner + '"torus": ' + _list_format(inner, "%s", angles)
        + pad + "}"
    )


def _element_rows_text(rows: ElementRows, pad: str, memo: dict) -> str:
    """The indented JSON of non-empty element rows, the list at ``pad``.

    Each element is one ``%`` format, built once per pad and shape (the
    number of residues and of angles).
    """
    row_pad = pad + "  "
    formats = {}
    texts = []
    for element in rows:
        residues, angles = element["factors"], element["torus"]
        shape = len(residues), len(angles)
        form = formats.get(shape)
        if form is None:
            form = formats[shape] = _element_format(row_pad, *shape)
        texts.append(form % (*residues, *map(_encode_str, angles)))
    return _rows_text(texts, pad)


def _twist_rows_text(rows: TwistRows, pad: str, memo: dict) -> str:
    """The indented JSON of non-empty fixed-locus rows, the list at ``pad``.

    Each row is one ``%`` format over its sorted keys, its element's and
    its orders' entries, built once per pad and shape (the number of
    residues, angles and orders); ``codim`` is None on the rows whose locus
    is empty.
    """
    row_pad = pad + "  "
    key_pad = row_pad + "  "

    def row_format(residues: int, angles: int, orders: int) -> str:
        return (
            "{" + key_pad + '"codim": %s,'
            + key_pad + '"element": ' + _element_format(key_pad, residues, angles) + ","
            + key_pad + '"empty": %s,'
            + key_pad + '"factor_orders": ' + _list_format(key_pad, "%d", orders) + ","
            + key_pad + '"note": %s'
            + row_pad + "}"
        )

    formats = {}
    texts = []
    for row in rows:
        codim, element, orders = row["codim"], row["element"], row["factor_orders"]
        residues, angles = element["factors"], element["torus"]
        shape = len(residues), len(angles), len(orders)
        form = formats.get(shape)
        if form is None:
            form = formats[shape] = row_format(*shape)
        texts.append(form % (
            "null" if codim is None else int.__repr__(codim),
            *residues,
            *map(_encode_str, angles),
            "true" if row["empty"] else "false",
            *orders,
            _encode_str(row["note"]),
        ))
    return _rows_text(texts, pad)


# the row writer of each row-list type, by exact type
_ROW_WRITERS = {
    StratumRows: _stratum_rows_text,
    TwistRows: _twist_rows_text,
    ElementRows: _element_rows_text,
}


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# --------------------------------------------------------------------------
# report-building subcommands


def _verdict_text(verdict) -> str:
    case = f" ({verdict.case})" if verdict.case else ""
    return f"verdict: {verdict.kind}{case}\n  {verdict.witness}"


def _cmd_analyze(args, config) -> int:
    spec = _resolve_spec(args, config)
    genus = _resolve_genus(args, config)
    _check_listable(spec)
    verdict = classify_resolution(spec, genus)
    flags = verdict.flags
    plan = plan_terminalization(spec, genus)
    report = {
        "group": spec.to_json(),
        "genus": genus,
        "decomposition": canonical_decomposition(spec).summary(),
        "dimension": char_variety_dim(spec, genus),
        "strata": strata_table(spec, genus).to_json(),
        "singular_codim": flags.singular_codim,
        "properties": flags.to_json(),
        "verdict": verdict.to_json(),
        "terminalization": plan.to_json(),
        "verification": None,
        "citations": dict(CITATIONS),
    }
    _emit(args, config, report, lambda: "\n".join([
        f"group: {_merged(args, config, 'group')}",
        f"genus: {genus}",
        f"dimension: {report['dimension']}",
        f"singular locus codimension: {flags.singular_codim}",
        _verdict_text(verdict),
        render_plan(plan),
    ]))
    return EXIT_OK


def _strata_text(spec, genus: int, table) -> str:
    lines = [f"total dimension: {char_variety_dim(spec, genus)}"]
    for n, rows in table.factor_tables:
        lines.append(f"factor SL({n}):")
        for row in rows:
            fiber = (
                f"fiber=[{row.fiber_bounds[0]},{row.fiber_bounds[1]}]"
                if row.fiber_bounds
                else "fiber=-"
            )
            lines.append(
                f"  {str(row.nu):<18} dim_gl={row.dim_gl:<4} dim_sl={row.dim_sl:<4} "
                f"codim={row.codim:<4} {fiber:<15} open={row.is_open}"
            )
    return "\n".join(lines)


def _cmd_strata(args, config) -> int:
    spec = _resolve_spec(args, config)
    genus = _resolve_genus(args, config)
    _check_listable(spec)
    table = strata_table(spec, genus)
    _emit(args, config, table.to_json(), lambda: _strata_text(spec, genus, table))
    return EXIT_OK


def _cmd_classify(args, config) -> int:
    spec = _resolve_spec(args, config)
    genus = _resolve_genus(args, config)
    verdict = classify_resolution(spec, genus)
    payload = verdict.to_json()
    payload["citation"] = CITATIONS["verdict"]
    payload["properties"] = verdict.flags.to_json()
    _emit(args, config, payload, lambda: _verdict_text(verdict))
    return EXIT_OK


def _cmd_terminalize(args, config) -> int:
    spec = _resolve_spec(args, config)
    genus = _resolve_genus(args, config)
    plan = plan_terminalization(spec, genus)
    _emit(args, config, plan.to_json(), lambda: render_plan(plan))
    return EXIT_OK


def _fixed_loci_text(payload: dict, best, checked: bool) -> str:
    lines = []
    for row in payload["twists"]:
        codim = "empty" if row["empty"] else f"codim {row['codim']}"
        lines.append(f"twist {row['element']['factors']}: {codim} ({row['note']})")
    if best is None:
        lines.append("no nontrivial torus-invisible twist: center acts freely")
    else:
        lines.append(f"minimum codimension: {best[0]} at {best[1].ss_part}")
    if checked and not payload["oracle_mismatches"]:
        lines.append("oracle cross-checks passed")
    return "\n".join(lines)


def _cmd_fixed_loci(args, config) -> int:
    spec = _resolve_spec(args, config)
    genus = _resolve_genus(args, config)
    checked = _merged(args, config, "oracle", False)
    # the oracles run first, so that an oversized factor is refused before
    # any row is built
    problems = oracle_mismatches(spec, genus) if checked else []
    rows, best = twist_rows(canonical_decomposition(spec), genus)
    payload = {
        "genus": genus,
        "group": spec.to_json(),
        "twists": rows,
        "min_codim": None if best is None else best[0],
        "min_witness": None if best is None else best[1].to_json(),
    }
    if checked:
        payload["oracle_mismatches"] = problems
    _emit(args, config, payload, lambda: _fixed_loci_text(payload, best, checked))
    for p in problems:
        print(f"error[oracle]: {p}", file=sys.stderr)
    return EXIT_VERIFY_FAILURE if problems else EXIT_OK


def _cmd_presets(args, config) -> int:
    payload = [{"pattern": name, "description": desc} for name, desc in PRESET_CATALOG]
    _emit(args, config, {"presets": payload}, lambda: "\n".join(
        f"{name:<10} {desc}" for name, desc in PRESET_CATALOG
    ))
    return EXIT_OK


def _verify_text(records: list[dict], failed: int, unreliable: int) -> str:
    lines = []
    for rec in records:
        tag = f"{rec['suite']}"
        for key in ("n", "genus", "trial", "kind"):
            if key in rec:
                tag += f" {key}={rec[key]}"
        status = "ok" if rec["ok"] else "FAIL: " + "; ".join(rec["failures"])
        lines.append(f"{tag}: {status}")
    lines.append(
        f"{len(records) - failed}/{len(records)} record(s) passed"
        + (f", {unreliable} unreliable rank cut(s)" if unreliable else "")
    )
    return "\n".join(lines)


def _cmd_verify(args, config) -> int:
    suite = _merged(args, config, "suite", required=True)
    if suite not in SUITES:
        raise CliInputError("usage", f"unknown suite {suite!r}")
    sizes = _parse_int_list(_merged(args, config, "sizes", "2"), "n")
    genera = _parse_int_list(_merged(args, config, "genera", "2"), "genus")
    if min(sizes) < 2:
        raise CliInputError("usage", f"--n values must be >= 2, got {min(sizes)}")
    if min(genera) < 1:
        raise CliInputError("genus", f"--genus values must be >= 1, got {min(genera)}")
    if suite in ("cohomology", "all") and min(genera) < 2:
        raise CliInputError(
            "genus",
            "cohomology suite needs genus >= 2 "
            "(no irreducible points exist at genus one)",
        )
    trials = _merged(args, config, "trials", 3)
    if trials < 1:
        raise CliInputError("usage", "--trials must be >= 1")
    master_seed = _merged(args, config, "seed", 0)
    strict = _merged(args, config, "strict", False)

    records = run_suite(suite, sizes, genera, trials, master_seed)
    failed, unreliable, problem = suite_verdict(records, strict)
    payload = {
        "suite": suite,
        "seed": master_seed,
        "trials": trials,
        "sizes": sizes,
        "genera": genera,
        "strict": strict,
        "records": records,
        "ok": problem is None,
    }
    _emit(args, config, payload, lambda: _verify_text(records, failed, unreliable))
    if problem:
        print(f"error[verify]: {problem}", file=sys.stderr)
    return EXIT_VERIFY_FAILURE if problem else EXIT_OK


# --------------------------------------------------------------------------


_HANDLERS = {
    "analyze": _cmd_analyze,
    "strata": _cmd_strata,
    "classify": _cmd_classify,
    "fixed-loci": _cmd_fixed_loci,
    "terminalize": _cmd_terminalize,
    "verify": _cmd_verify,
    "presets": _cmd_presets,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command is None:
            raise CliInputError("usage", "a subcommand is required (see --help)")
        config = _load_config(getattr(args, "config", None))
        code = _HANDLERS[args.command](args, config)
        # a closed pipe shows at the latest here, not in the exit-time flush
        sys.stdout.flush()
        return code
    except CliInputError as exc:
        return _fail(exc)
    except SizeLimitError as exc:
        return _fail(CliInputError("size", str(exc)))
    except ValueError as exc:
        return _fail(CliInputError("input", str(exc)))
    except BrokenPipeError:
        # the stdlib recipe: send what is still buffered to devnull, so that
        # the interpreter's own flush at exit cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
