"""Fixed loci of central twists on character varieties.

Tensoring a representation by a central character multiplies each generator
image by a central element; the fixed locus of such a twist controls where
the quotient by the center fails to be free.  A twist with a nontrivial
torus coordinate translates the torus factor and fixes nothing.  Twists
sitting inside the SL factors have fixed loci of computable codimension:

  genus one:   sum_i 2 n_i (1 - 1/l_i)          (orbit counting on (C*)^2)
  genus >= 2:  2(g-1) sum_i n_i^2 (1 - 1/l_i)   (tangent space counting)

where l_i is the order of the twist's residue in factor i.

The two oracles below, ``genus1_orbit_oracle`` and ``fixed_tangent_oracle``,
re-derive these numbers rather than check them independently: the orbit
oracle takes the same lcm of orders as the genus-one closed form, and the
tangent count admits only the constant multiplicity vector, so it checks
l | n and the value n^2/l.  The tangent count searches shift subgroups
first: for each d | l it decides by a gcd search whether dZ/l carries a
2g-tuple of gcd 1 with l, and walks only the multiplicity vectors of period
d, so its cost is polynomial where the walk over all C(n+l-1, l-1)
compositions was exponential; it returns the same maximum, because the
shifts fixing a vector are exactly the subgroup of its least period.
The remaining cross-check is ``numerics.fixed_point_tangent_check``, a
floating-point eigenspace count at an explicit fixed tuple.  An exact count
over F_p at a genuine fixed representation, which would check the closed
form independently, is still open.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterator, Optional, Sequence

from .groups import CentralElement, Decomposition

# the note of a twist with a nontrivial torus coordinate, whose locus is empty
_FREE_TWIST_NOTE = "nontrivial torus coordinate: free twist"


@dataclass(frozen=True)
class FixedLocusResult:
    """Outcome of a fixed-locus codimension computation.

    ``codim is None`` means the fixed locus is empty (the twist moves every
    point); the distinction from codim 0 (trivial twist fixes everything)
    matters and is never encoded numerically.
    """

    codim: Optional[int]
    factor_orders: tuple[int, ...]
    note: str

    @property
    def is_empty(self) -> bool:
        return self.codim is None

    def to_json(self) -> dict:
        return {
            "codim": self.codim,
            "empty": self.is_empty,
            "factor_orders": list(self.factor_orders),
            "note": self.note,
        }


def per_factor_orders(tau: CentralElement, factors: Sequence[int]) -> tuple[int, ...]:
    """Order of the twist's residue in each factor."""
    return tuple(n // gcd(a, n) for a, n in zip(tau.ss_part, factors))


def codim_highgenus_from_orders(
    factors: Sequence[int], orders: Sequence[int], genus: int
) -> int:
    """2(g-1) sum_i n_i^2 (1 - 1/l_i), an even integer since l_i | n_i."""
    return 2 * (genus - 1) * sum(
        n * n - (n * n) // l for n, l in zip(factors, orders)
    )


def codim_genus1_from_orders(factors: Sequence[int], orders: Sequence[int]) -> int:
    """sum_i 2 n_i (1 - 1/l_i) at genus one."""
    return sum(2 * (n - n // l) for n, l in zip(factors, orders))


def _codim_from_orders(factors: Sequence[int], orders: Sequence[int], genus: int) -> int:
    if genus == 1:
        return codim_genus1_from_orders(factors, orders)
    return codim_highgenus_from_orders(factors, orders, genus)


def _count_note(genus: int) -> str:
    return "orbit count per factor" if genus == 1 else "tangent count per factor"


def _fixed_codim(tau: CentralElement, factors: Sequence[int], genus: int) -> FixedLocusResult:
    if not tau.torus_trivial:
        return FixedLocusResult(None, (), _FREE_TWIST_NOTE)
    orders = per_factor_orders(tau, factors)
    return FixedLocusResult(_codim_from_orders(factors, orders, genus), orders, _count_note(genus))


def fixed_codim_highgenus(
    tau: CentralElement, factors: Sequence[int], genus: int
) -> FixedLocusResult:
    """Codimension of the fixed locus of a central twist, genus >= 2."""
    if genus < 2:
        raise ValueError("use fixed_codim_genus1 for genus one")
    return _fixed_codim(tau, factors, genus)


def fixed_codim_genus1(tau: CentralElement, factors: Sequence[int]) -> FixedLocusResult:
    """Codimension of the fixed locus of a central twist at genus one."""
    return _fixed_codim(tau, factors, 1)


def min_nonfree_codim(
    decomp: Decomposition, genus: int
) -> Optional[tuple[int, CentralElement]]:
    """Smallest fixed-locus codimension over nontrivial kernel twists.

    Twist tuples reduce to single elements: each component of a tuple has
    componentwise orders no larger than the tuple's lcm orders, so the
    minimum over tuples is attained at some single element.  Returns None
    when the kernel is trivial (the whole central action is free).  The
    witness is the lexicographically least minimizer: the kernel is sorted
    and ``min`` keeps the first of equal keys.
    """
    if genus < 1:
        raise ValueError(f"genus must be >= 1, got {genus}")
    candidates = decomp.ss_kernel.elements[1:]  # the sorted kernel starts at 0
    if not candidates:
        return None
    factors = decomp.factors

    def codim(tau: CentralElement) -> int:
        return _codim_from_orders(factors, per_factor_orders(tau, factors), genus)

    tau = min(candidates, key=codim)
    return codim(tau), tau


class TwistRows(list):
    """The JSON rows of ``twist_rows``, ``FixedLocusResult.to_json()`` each
    with the twist's ``element``.

    A plain list to ``json``, ``==`` and every other reader; the CLI's JSON
    writer recognises the exact type and writes each row from one format.
    """


def twist_rows(
    decomp: Decomposition, genus: int
) -> tuple[TwistRows, Optional[tuple[int, CentralElement]]]:
    """The fixed-locus row of every nontrivial twist in Z0, and
    ``min_nonfree_codim(decomp, genus)``, from one pass over sorted Z0.

    A zero angle sorts first, so sorted Z0 opens with the torus-invisible
    kernel, identity first and in the kernel's own order, and its first
    ``ss_kernel.order`` elements are exactly the kernel: the first minimum
    over their rows is the lexicographic witness.  Their orders are read
    off the residues; every later twist moves the torus and fixes nothing.
    """
    if genus < 1:
        raise ValueError(f"genus must be >= 1, got {genus}")
    factors = decomp.factors
    elements = decomp.full_center.elements
    kernel_order = decomp.ss_kernel.order
    note = _count_note(genus)
    rows = TwistRows()
    best = None
    for tau in elements[1:kernel_order]:
        orders = [n // gcd(a, n) for a, n in zip(tau.ss_part, factors)]
        codim = _codim_from_orders(factors, orders, genus)
        if best is None or codim < best[0]:
            best = codim, tau
        rows.append({
            "codim": codim,
            "element": tau.to_json(),
            "empty": False,
            "factor_orders": orders,
            "note": note,
        })
    for tau in elements[kernel_order:]:
        rows.append({
            "codim": None,
            "element": tau.to_json(),
            "empty": True,
            "factor_orders": [],
            "note": _FREE_TWIST_NOTE,
        })
    return rows, best


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def genus1_orbit_oracle(n: int, pair: tuple[int, int]) -> Optional[int]:
    """Fixed-locus dimension at genus one for one SL(n) factor, by counting.

    The twist multiplies the two coordinates of each of the n points of
    (C*)^2 by fixed roots of unity (zeta^a, zeta^b).  A fixed multiset
    splits into free orbits of size l = ord(a, b); the locus has one free
    2-dimensional choice per orbit minus the two determinant constraints.
    Returns None when no partition into orbits exists.

    >>> genus1_orbit_oracle(2, (1, 0))
    0
    >>> genus1_orbit_oracle(2, (0, 0))
    2
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a, b = pair[0] % n, pair[1] % n
    ell = lcm(n // gcd(a, n), n // gcd(b, n))
    blocks, leftover = divmod(n, ell)
    if leftover:
        return None
    return 2 * blocks - 2


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to ``total``.

    Stars and bars: cut points 0 <= c_1 <= ... <= c_{parts-1} <= total,
    and the parts are the gaps between consecutive cuts.
    """
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(operator.sub, (*cuts, total), (0, *cuts)))


def _reaches_unit_gcd(shifts: Sequence[int], modulus: int, length: int) -> bool:
    """Is there a length-``length`` tuple over ``shifts`` with gcd 1 mod modulus?

    A search over reachable gcds rather than over tuples: the gcds of the
    length-j tuples are gcd(r, k) for r a gcd of length j - 1 and k a shift.
    The shifts must hold 0, as every subgroup does: gcd(r, 0) = r keeps each
    reached gcd reachable one step later, so the reached set only grows and
    the search stops once it is unchanged.
    """
    reached = {modulus}  # the gcd of the empty tuple
    for _ in range(length):
        grown = {gcd(r, k) for r in reached for k in shifts}
        if grown == reached:
            break
        reached = grown
    return 1 in reached


def fixed_tangent_oracle(n: int, ell: int, genus: int) -> Optional[int]:
    """Fixed-locus codimension for genus >= 2, by a combinatorial tangent count.

    A representation fixed by an order-l central twist is normalized by a
    matrix A with eigenvalue multiplicities (m_0 .. m_{l-1}) over the l-th
    roots of unity; each generator image shifts the eigenspaces by some
    exponent k_j, invertibility forces m_i = m_{i+k_j}, and irreducibility
    of the normalizing data forces gcd(k_1, ..., k_{2g}, l) = 1.  The locus
    of maximal dimension minimizes n^2 - sum_i m_i^2.  Returns None when no
    multiplicity vector survives the constraints (l does not divide n).

    The shifts that fix m are the subgroup dZ/l of its least period d, so
    the search goes subgroup first: for each d | l, decide by
    ``_reaches_unit_gcd`` whether dZ/l carries a 2g-tuple of gcd 1 with l,
    and only for such a d walk the vectors dZ/l fixes, a head of d parts
    repeated l/d times.  That is the maximum over all C(n+l-1, l-1)
    compositions: each admissible m is reached at its own least period,
    and a vector walked at d has a shift set containing dZ/l, so it is
    admissible too.
    """
    if genus < 2:
        raise ValueError("tangent oracle requires genus >= 2")
    if ell < 1:
        raise ValueError(f"order must be >= 1, got {ell}")
    best: Optional[int] = None
    for d in range(1, ell + 1):
        if ell % d or not _reaches_unit_gcd(range(0, ell, d), ell, 2 * genus):
            continue
        repeats = ell // d
        if n % repeats:
            continue
        for head in _compositions(n // repeats, d):
            value = repeats * sum(x * x for x in head)
            if best is None or value > best:
                best = value
    if best is None:
        return None
    return 2 * (genus - 1) * (n * n - best)
