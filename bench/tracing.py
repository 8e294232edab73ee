"""Per-layer spans for the traced run, recorded from outside the program.

The tracer swaps each listed public function for a wrapper in every
``charvar`` module namespace that holds it (``cli.py`` binds layer functions
by name), records one span per call, and puts the originals back on
``restore``.  Spans stay in memory until the run writes them out.

A span's self time is its duration minus the part of its interval that its
child spans cover, so the self times of one query's spans add up to the
query's root span.  The layer of a span is the module that defines the
function.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

# module -> functions to wrap; "Class.method" names a method.  Center.add is
# left alone: it runs hundreds of thousands of times per query and its
# wrapper would cost more than the work it measures.
LAYER_FUNCTIONS = {
    "charvar.groups": (
        "parse_group_spec",
        "canonical_decomposition",
        "char_variety_dim",
        "is_sl2_center_product",
        "Center.closure",
    ),
    "charvar.strata": (
        "strata_table",
        "singular_codim_factor",
        "enumerate_weighted_partitions",
    ),
    "charvar.fixed_loci": (
        "min_nonfree_codim",
        "fixed_codim_genus1",
        "fixed_codim_highgenus",
        "genus1_orbit_oracle",
        "fixed_tangent_oracle",
    ),
    "charvar.classify": (
        "classify_resolution",
        "properties_report",
        "singular_locus_codim",
    ),
    "charvar.terminalize": ("plan_terminalization", "render_plan"),
    "charvar.numerics": (
        "newton_refine_rep",
        "refine_moment_map_point",
        "mpa_to_surface",
        "moment_residual",
        "cohomology_dims",
        "centralizer_dim",
        "fixed_point_tangent_check",
        "sample_random_rep",
        "sample_diagonal_rep",
        "sample_moment_start",
    ),
    "charvar.cli": ("main",),
}

LAYERS = ("groups", "strata", "fixed_loci", "classify", "terminalize", "numerics", "cli")


def _result_size(name: str, result: Any) -> Optional[float]:
    """The count a span contributes to its layer's work metrics."""
    if name == "Center.closure":
        return result.order
    if name == "enumerate_weighted_partitions":
        return len(result)
    if name == "centralizer_dim":
        return result
    if name == "cohomology_dims":
        return 0 if result.reliable else 1
    return None


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    query: Optional[int]
    value: Optional[float] = None
    error: Optional[str] = None

    def to_json(self) -> dict:
        return dict(vars(self))


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.query: Optional[int] = None
        self._stack: list[int] = []
        self._swapped: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, layer, perf_counter(), 0.0, stack[-1] if stack else None, self.query)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                stack.pop()
                span.end = perf_counter()
            span.value = _result_size(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._swapped:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "charvar"]
        for module_name, names in LAYER_FUNCTIONS.items():
            home = sys.modules[module_name]
            layer = module_name.rsplit(".", 1)[1]
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._swap(cls, attr, original, self._wrap(name, layer, original))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(name, layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._swap(module, attr, original, wrapper)

    def _swap(self, owner: Any, attr: str, original: Any, wrapper: Callable) -> None:
        setattr(owner, attr, wrapper)
        self._swapped.append((owner, attr, original))

    def restore(self) -> None:
        while self._swapped:
            owner, attr, original = self._swapped.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span], queries: int) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, except the trace.* ones
    the runner measures itself."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    name_self: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    values: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    accepted = 0
    for span, seconds in zip(spans, own):
        calls[span.name] += 1
        name_self[span.name] += seconds
        layer_self[span.layer] += seconds
        if span.value is not None:
            values[span.name] += span.value
        if span.error is not None:
            errors[span.name] += 1
        if span.name == "centralizer_dim" and span.value == 1:
            accepted += 1
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update(
        {
            "groups.parse_calls": calls["parse_group_spec"],
            "groups.closure_calls": calls["Center.closure"],
            "groups.closure_elements": values["Center.closure"],
            "groups.decomposition_calls": calls["canonical_decomposition"],
            "groups.decompositions_per_query": _ratio(calls["canonical_decomposition"], queries),
            "groups.decomposition_s": name_self["canonical_decomposition"],
            "strata.table_calls": calls["strata_table"],
            "strata.partitions_enumerated": values["enumerate_weighted_partitions"],
            "strata.singular_codim_s": name_self["singular_codim_factor"],
            "fixed_loci.min_nonfree_calls": calls["min_nonfree_codim"],
            "fixed_loci.orbit_oracle_calls": calls["genus1_orbit_oracle"],
            "fixed_loci.tangent_oracle_calls": calls["fixed_tangent_oracle"],
            "fixed_loci.tangent_oracle_s": name_self["fixed_tangent_oracle"],
            "classify.calls": calls["classify_resolution"],
            "classify.properties_calls": calls["properties_report"],
            "terminalize.plan_calls": calls["plan_terminalization"],
            "numerics.newton_calls": calls["newton_refine_rep"],
            "numerics.newton_s": name_self["newton_refine_rep"],
            "numerics.newton_failures": errors["newton_refine_rep"],
            "numerics.moment_calls": calls["refine_moment_map_point"],
            "numerics.moment_s": name_self["refine_moment_map_point"],
            "numerics.moment_failures": errors["refine_moment_map_point"],
            "numerics.cohomology_calls": calls["cohomology_dims"],
            "numerics.cohomology_s": name_self["cohomology_dims"],
            "numerics.centralizer_s": name_self["centralizer_dim"],
            "numerics.tangent_check_s": name_self["fixed_point_tangent_check"],
            "numerics.irreducible_yield": _ratio(accepted, calls["newton_refine_rep"]),
            "numerics.unreliable_cut_ratio": _ratio(
                values["cohomology_dims"], calls["cohomology_dims"]
            ),
        }
    )
    return out
