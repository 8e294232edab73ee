"""Q-factorial terminalization recipes.

Every character variety here has a canonical Q-factorial terminalization
built factor by factor and then pushed through the central quotients:

  genus 1:  resolve each SL(n) leaf by the Hilbert-Chow morphism from the
            Hilbert scheme of n points of (C*)^2 (product-one fibers), and
            each PGL(2) leaf by blowing up the four isolated quotient points
            of its double cover model; then quotient by the surviving part
            of the kernel acting on the pair of generator copies.
  genus 2:  blow up the reduced singular locus of each SL(2) leaf; leaves
            with n >= 3 are already Q-factorial terminal and stay put; then
            quotient by the kernel acting on the 2g generator copies.
  genus 3+: every leaf is already Q-factorial terminal.

Finally the torus moduli multiply in and the free part of the center is
quotiented out; that last step is etale and changes no singularities.  The
plan is smooth exactly when a projective symplectic resolution exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .groups import GroupSpec, canonical_decomposition

HILBERT_CHOW = "hilbert_chow"
HILB2_BLOWUP = "hilb2_blowup"
SINGULAR_LOCUS_BLOWUP = "singular_locus_blowup"
IDENTITY = "identity"

CENTRAL_QUOTIENT = "central_quotient"
TORUS_PRODUCT = "torus_product"
ETALE_QUOTIENT = "etale_quotient"


@dataclass(frozen=True)
class Leaf:
    """Per-factor modification at the bottom of the plan."""

    factor_index: int
    group: str
    kind: str
    resolves: bool
    note: str

    def to_json(self) -> dict:
        return {
            "factor_index": self.factor_index,
            "group": self.group,
            "kind": self.kind,
            "resolves": self.resolves,
            "note": self.note,
        }


@dataclass(frozen=True)
class QuotientStep:
    """A finite group action applied after the per-factor modifications."""

    kind: str
    group_order: Optional[int]
    copies: Optional[int]
    note: str

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "group_order": self.group_order,
            "copies": self.copies,
            "note": self.note,
        }


@dataclass(frozen=True)
class TerminalizationPlan:
    spec: GroupSpec
    genus: int
    leaves: tuple[Leaf, ...]
    steps: tuple[QuotientStep, ...]
    smooth: bool

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "group": self.spec.to_json(),
            "leaves": [leaf.to_json() for leaf in self.leaves],
            "steps": [step.to_json() for step in self.steps],
            "smooth": self.smooth,
        }


def _genus1_leaf(index: int, label: tuple[str, int]) -> Leaf:
    kind_name, n = label
    if kind_name == "PGL":
        return Leaf(
            factor_index=index,
            group="PGL(2)",
            kind=HILB2_BLOWUP,
            resolves=True,
            note=(
                "blow up the image of the diagonal 2-torsion in the "
                "sign-quotiented Hilbert scheme of two points of (C*)^2"
            ),
        )
    return Leaf(
        factor_index=index,
        group=f"SL({n})",
        kind=HILBERT_CHOW,
        resolves=True,
        note=(
            f"Hilbert-Chow morphism from the product-one Hilbert scheme of "
            f"{n} points of (C*)^2"
        ),
    )


def _highgenus_leaf(index: int, n: int, genus: int) -> Leaf:
    if n == 2 and genus == 2:
        return Leaf(
            factor_index=index,
            group="SL(2)",
            kind=SINGULAR_LOCUS_BLOWUP,
            resolves=True,
            note="blow up the reduced singular locus; crepant and symplectic",
        )
    return Leaf(
        factor_index=index,
        group=f"SL({n})",
        kind=IDENTITY,
        resolves=False,
        note="already Q-factorial terminal; no crepant modification exists",
    )


def plan_terminalization(spec: GroupSpec, genus: int) -> TerminalizationPlan:
    """Build the canonical Q-factorial terminalization plan.

    >>> from .groups import parse_group_spec
    >>> plan = plan_terminalization(parse_group_spec("SL(2)"), 2)
    >>> [leaf.kind for leaf in plan.leaves], plan.smooth
    (['singular_locus_blowup'], True)
    """
    if genus < 1:
        raise ValueError(f"genus must be >= 1, got {genus}")
    decomp = canonical_decomposition(spec)
    copies = 2 * genus

    leaves: list[Leaf] = []
    if genus == 1:
        for i, label in enumerate(decomp.quotient_factor_labels()):
            leaves.append(_genus1_leaf(i, label))
        residual_order = decomp.reduced_kernel_order
        residual_note = (
            "quotient by the kernel remaining after the PGL(2) slots, "
            "acting diagonally on the generator copies"
        )
    else:
        for i, n in enumerate(spec.factors):
            leaves.append(_highgenus_leaf(i, n, genus))
        residual_order = decomp.ss_kernel.order
        residual_note = (
            "quotient by the torus-invisible kernel acting diagonally on "
            "the generator copies"
        )

    steps: list[QuotientStep] = []
    if residual_order > 1:
        steps.append(
            QuotientStep(CENTRAL_QUOTIENT, residual_order, copies, residual_note)
        )
    if spec.torus_rank > 0:
        steps.append(
            QuotientStep(
                TORUS_PRODUCT,
                None,
                None,
                f"multiply by the torus moduli (C*)^{2 * genus * spec.torus_rank}",
            )
        )
    if decomp.etale_order > 1:
        steps.append(
            QuotientStep(
                ETALE_QUOTIENT,
                decomp.etale_order,
                copies,
                "quotient by the freely acting center remainder; etale, "
                "singularities unchanged",
            )
        )

    smooth = all(leaf.resolves for leaf in leaves) and residual_order == 1
    return TerminalizationPlan(
        spec=spec,
        genus=genus,
        leaves=tuple(leaves),
        steps=tuple(steps),
        smooth=smooth,
    )


def render_plan(plan: TerminalizationPlan) -> str:
    """Deterministic human-readable form of a plan."""
    lines = [f"terminalization plan at genus {plan.genus}:"]
    if not plan.leaves:
        lines.append("  no SL factors: the variety is a smooth torus")
    for leaf in plan.leaves:
        lines.append(
            f"  factor {leaf.factor_index} [{leaf.group}]: {leaf.kind} -- {leaf.note}"
        )
    for step in plan.steps:
        if step.group_order is not None:
            lines.append(
                f"  {step.kind} (order {step.group_order}, "
                f"{step.copies} copies): {step.note}"
            )
        else:
            lines.append(f"  {step.kind}: {step.note}")
    lines.append(f"result: {'smooth' if plan.smooth else 'Q-factorial terminal'}")
    return "\n".join(lines)
