"""Deciding existence of projective symplectic resolutions.

The decision depends only on the genus and on the quotient K of the product
of SL factors by the torus-invisible part of the center; torus factors and
the freely acting remainder of the center never change the answer.  A
resolution exists exactly in two families:

  genus 1: K is a product of SL(n)'s and PGL(2)'s (the sign flips of some
           SL(2) slots exhaust the kernel); Hilbert-Chow morphisms and a
           known small resolution for PGL(2) glue to a resolution.
  genus 2: K is a product of SL(2)'s (trivial kernel); blowing up the
           reduced singular locus resolves each factor.

In every other nonabelian case the variety is a Q-factorial terminal (or
terminalizable) symplectic singularity and admits no projective symplectic
resolution; abelian groups give smooth tori.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .groups import Decomposition, GroupSpec, canonical_decomposition
from .strata import singular_codim_factor

SMOOTH_KIND = "smooth"
RESOLUTION_KIND = "resolution"
NO_RESOLUTION_KIND = "no_resolution"

GENUS1_CASE = "genus1-sl-pgl2-product"
GENUS2_CASE = "genus2-sl2-product"


@dataclass(frozen=True)
class PropertyFlags:
    """Singularity bookkeeping for one character variety.

    ``locally_factorial`` is three-valued: True, False, or None for "not
    determined by the implemented results".  ``singular_codim`` is None on
    smooth varieties.
    """

    singular: bool
    singular_codim: Optional[int]
    symplectic_singularities: bool
    q_factorial: bool
    locally_factorial: Optional[bool]
    terminal: bool

    def to_json(self) -> dict:
        lf = "unknown" if self.locally_factorial is None else self.locally_factorial
        return {
            "singular": self.singular,
            "singular_codim": self.singular_codim,
            "symplectic_singularities": self.symplectic_singularities,
            "q_factorial": self.q_factorial,
            "locally_factorial": lf,
            "terminal": self.terminal,
        }


@dataclass(frozen=True)
class Verdict:
    """Outcome of the resolution decision, with a human-readable witness.

    ``flags`` are the singularity flags the decision read; ``to_json``
    leaves them out (the command line prints them as ``properties``).
    """

    kind: str
    case: Optional[str]
    witness: str
    certificate: Optional[dict]
    flags: PropertyFlags

    @property
    def has_resolution(self) -> bool:
        return self.kind in (SMOOTH_KIND, RESOLUTION_KIND)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "case": self.case,
            "has_resolution": self.has_resolution,
            "witness": self.witness,
            "certificate": self.certificate,
        }


def singular_locus_codim(spec: GroupSpec, genus: int) -> Optional[int]:
    """Codimension of the singular locus, or None when smooth (abelian).

    Two sources of singularities compete: degenerate strata inside each SL
    factor, and non-free central twists gluing points together.  No twist
    goes below the factors, so the answer is min_j singular_codim_factor(n_j,
    g) and no kernel element is looked at.  A nontrivial kernel twist has
    order l_j >= 2 in some factor j.  At genus g >= 2 its fixed locus has
    codimension at least 2(g-1) n_j^2 (1 - 1/l_j) >= (g-1) n_j^2
    >= 4(g-1)(n_j - 1) > 4(g-1)(n_j - 1) - 2, the codimension of the
    singular strata of SL(n_j); at genus one it is at least
    2 n_j (1 - 1/l_j) >= n_j >= 2, the genus-one factor value.  Factor
    singularities land in the quotient because central twists preserve
    representation types.
    """
    if genus < 1:
        raise ValueError(f"genus must be >= 1, got {genus}")
    if not spec.nonabelian:
        return None
    return min(singular_codim_factor(n, genus) for n in spec.factors)


def _factor_label(decomp: Decomposition) -> str:
    names = [f"{kind}({n})" for kind, n in decomp.quotient_factor_labels()]
    return " x ".join(names) if names else "trivial"


def properties_report(spec: GroupSpec, genus: int) -> PropertyFlags:
    """Singularity flags; scope of each flag is described in the docstring.

    Symplectic singularities and Q-factoriality hold for every group here.
    Local factoriality is only settled for single GL(n)/SL(n) factors at
    genus >= 2 (true away from (n, g) = (2, 2), false there) and for smooth
    abelian cases; elsewhere it is reported as unknown.
    """
    codim = singular_locus_codim(spec, genus)
    singular = codim is not None
    terminal = (codim is None) or codim >= 4

    locally_factorial: Optional[bool] = None
    if not spec.nonabelian:
        locally_factorial = True  # smooth
    elif genus >= 2 and _is_plain_gl_or_sl(spec):
        n = spec.factors[0]
        locally_factorial = not (n == 2 and genus == 2)

    return PropertyFlags(
        singular=singular,
        singular_codim=codim,
        symplectic_singularities=True,
        q_factorial=True,
        locally_factorial=locally_factorial,
        terminal=terminal,
    )


def _is_plain_gl_or_sl(spec: GroupSpec) -> bool:
    """Does ``spec`` present a bare SL(n) or the standard GL(n)?"""
    if len(spec.factors) != 1:
        return False
    n = spec.factors[0]
    full = spec.full_center_subgroup()
    if spec.torus_rank == 0:
        return full.order == 1
    if spec.torus_rank == 1:
        # the GL(n) center is cyclic of order n, generated by (1/n, n-1)
        gl_generator = spec.center().element([Fraction(1, n)], [n - 1])
        return full.order == n and gl_generator in full
    return False


def classify_resolution(spec: GroupSpec, genus: int) -> Verdict:
    """Decide whether the genus-g character variety of ``spec`` admits a
    projective symplectic resolution.

    >>> from .groups import parse_group_spec
    >>> classify_resolution(parse_group_spec("SL(2)"), 2).kind
    'resolution'
    >>> classify_resolution(parse_group_spec("SL(3)"), 2).kind
    'no_resolution'
    """
    flags = properties_report(spec, genus)
    if not spec.nonabelian:
        return Verdict(
            kind=SMOOTH_KIND,
            case=None,
            witness="abelian group: the moduli space is a torus, already smooth",
            certificate=None,
            flags=flags,
        )
    decomp = canonical_decomposition(spec)
    if genus == 1 and decomp.reduced_kernel_order == 1:
        # the sign flips of decomp.pgl2_indices exhaust the kernel
        return Verdict(
            kind=RESOLUTION_KIND,
            case=GENUS1_CASE,
            witness=(
                "genus one with semisimple quotient "
                f"{_factor_label(decomp)}: Hilbert-Chow morphisms per SL "
                "factor and the small resolution of each PGL(2) factor "
                "assemble to a projective symplectic resolution"
            ),
            certificate=None,
            flags=flags,
        )
    if genus == 2 and all(n == 2 for n in spec.factors) and not decomp.ss_kernel.nontrivial:
        return Verdict(
            kind=RESOLUTION_KIND,
            case=GENUS2_CASE,
            witness=(
                "genus two with semisimple quotient a product of SL(2)'s: "
                "blowing up the reduced singular locus of each factor is a "
                "projective symplectic resolution"
            ),
            certificate=None,
            flags=flags,
        )
    if flags.terminal:
        argument = "terminal-by-codimension"
        detail = (
            f"singular locus has codimension {flags.singular_codim} >= 4, so the "
            "variety is terminal; a Q-factorial terminal singular symplectic "
            "variety admits no projective symplectic resolution"
        )
    else:
        argument = "terminal-local-cones"
        detail = (
            f"singular locus has codimension {flags.singular_codim} < 4; the "
            "Q-factorial terminalization is still singular, with Q-factorial "
            "terminal local cones, so no projective symplectic resolution exists"
        )
    return Verdict(
        kind=NO_RESOLUTION_KIND,
        case=None,
        witness=f"quotient {_factor_label(decomp)} at genus {genus}: {detail}",
        certificate={
            "singular": True,
            "q_factorial": True,
            "terminal": flags.terminal,
            "singular_codim": flags.singular_codim,
            "argument": argument,
        },
        flags=flags,
    )
