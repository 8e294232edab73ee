"""Representation-type stratification of GL(n)/SL(n) character varieties.

Points of the genus-g character variety are semisimple representations
x_1^{+l_1} + ... + x_k^{+l_k} with x_t irreducible of dimension v_t and
pairwise distinct; the type is the weighted partition (l_1,v_1;...;l_k,v_k)
of n = sum l_t v_t.  Strata are indexed by these types.  For g >= 2 the
stratum of type nu has GL dimension 2(k + (g-1) sum_t v_t^2); each distinct
summand contributes one v_t^2 term regardless of its multiplicity.  At genus
one only types with all v_t = 1 are populated (commuting pairs have no
higher-dimensional irreducible summands) and the same dimension formula
degenerates to 2k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .groups import GroupSpec, char_variety_dim


@dataclass(frozen=True, order=True)
class WeightedPartition:
    """Multiset of (multiplicity, summand dimension) pairs with sum l*v = n.

    Parts are kept in canonical order: dimension descending, then
    multiplicity descending.

    >>> WeightedPartition.of((1, 1), (1, 2)).parts
    ((1, 2), (1, 1))
    >>> WeightedPartition.of((2, 1), (1, 1)).total
    3
    """

    parts: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for mult, dim in self.parts:
            if mult < 1 or dim < 1:
                raise ValueError(f"parts must be positive pairs, got {(mult, dim)}")
        canon = tuple(sorted(self.parts, key=lambda p: (-p[1], -p[0])))
        if canon != self.parts:
            object.__setattr__(self, "parts", canon)

    @classmethod
    def of(cls, *parts: tuple[int, int]) -> "WeightedPartition":
        return cls(tuple(parts))

    @classmethod
    def _canonical(cls, parts: tuple[tuple[int, int], ...]) -> "WeightedPartition":
        """Wrap parts already positive and in canonical order, unchecked."""
        nu = object.__new__(cls)
        nu.__dict__["parts"] = parts
        return nu

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def total(self) -> int:
        return sum(mult * dim for mult, dim in self.parts)

    @property
    def is_generic(self) -> bool:
        """True for the one-part multiplicity-one type (1, n)."""
        return self.k == 1 and self.parts[0][0] == 1

    @property
    def all_dims_one(self) -> bool:
        return all(dim == 1 for _, dim in self.parts)

    def __str__(self) -> str:
        return "(" + "; ".join(f"{m},{d}" for m, d in self.parts) + ")"

    def to_json(self) -> list[list[int]]:
        return [list(p) for p in self.parts]


def enumerate_weighted_partitions(n: int) -> list[WeightedPartition]:
    """All weighted partitions of n, canonically ordered, without duplicates.

    >>> [str(p) for p in enumerate_weighted_partitions(2)]
    ['(1,2)', '(2,1)', '(1,1; 1,1)']
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [WeightedPartition._canonical(parts) for parts in _weighted_parts(n, n, n)]


def _weighted_parts(n: int, vmax: int, lmax: int) -> list[tuple]:
    """Canonical part tuples summing to ``n``, with dimensions at most
    ``vmax`` and, at dimension ``vmax``, multiplicities at most ``lmax``.

    A tuple starts with its largest part: for each first part (l, v),
    dimension descending and then multiplicity descending, the tails are the
    tuples of the rest with parts no larger than (l, v).  The tails of one
    (remaining, vmax, lmax) are built once, as a list, and shared by every
    head that leaves that remainder; the memo lives for this call only.
    """
    return _walk(n, vmax, lmax, {})


def _walk(remaining: int, vmax: int, lmax: int, memo: dict) -> list[tuple]:
    key = (remaining, vmax, lmax)
    found = memo.get(key)
    if found is None:
        found = memo[key] = []
        for v in range(min(vmax, remaining), 0, -1):
            ltop = remaining // v
            if v == vmax and lmax < ltop:
                ltop = lmax
            for l in range(ltop, 0, -1):
                head = ((l, v),)
                rest = remaining - l * v
                if rest:
                    found += [head + tail for tail in _walk(rest, v, l, memo)]
                else:
                    found.append(head)
    return found


def stratum_dim_gl(nu: WeightedPartition, genus: int) -> int:
    """GL stratum dimension 2(k + (g-1) sum_t v_t^2); 2k at genus one."""
    if genus < 1:
        raise ValueError(f"genus must be >= 1, got {genus}")
    return 2 * (nu.k + (genus - 1) * sum(d * d for _, d in nu.parts))


def stratum_dim_sl(nu: WeightedPartition, genus: int) -> int:
    """SL stratum dimension: the GL stratum fibers over the 2g-torus."""
    return stratum_dim_gl(nu, genus) - 2 * genus


def stratum_codim(nu: WeightedPartition, genus: int, n: Optional[int] = None) -> int:
    """Codimension 2(g-1) sum_{i,j} (l_i l_j - delta_ij) v_i v_j - 2(k-1).

    For g >= 2 this equals char_variety_dim(GL(n), g) - stratum_dim_gl(nu, g);
    the double sum collapses to n^2 - sum_t v_t^2 since n = sum_t l_t v_t,
    and the collapsed form is what is computed.
    """
    total = nu.total
    if n is not None and n != total:
        raise ValueError(f"partition {nu} does not sum to {n}")
    if genus < 1:
        raise ValueError(f"genus must be >= 1, got {genus}")
    square_sum = sum(d * d for _, d in nu.parts)
    return 2 * (genus - 1) * (total * total - square_sum) - 2 * (nu.k - 1)


def genus1_stratum_dim_gl(nu: WeightedPartition) -> Optional[int]:
    """Dimension at genus one from the multiset model, or None if empty.

    A genus-one GL(n) point is a multiset of n points of (C*)^2; the type-nu
    stratum needs k distinct points with multiplicities l_t and all v_t = 1.
    Types with some v_t > 1 are not populated.
    """
    if not nu.all_dims_one:
        return None
    return 2 * nu.k


def singular_codim_factor(n: int, genus: int) -> Optional[int]:
    """Codimension of the singular locus of one SL(n)/GL(n) factor.

    None means the factor is smooth (only n = 1).  At genus one the closest
    degenerate stratum merges two of the n points, dropping the dimension by
    exactly 2 for every n >= 2.

    For g >= 2 it is 4(g-1)(n-1) - 2, the codimension of (1,n-1; 1,1).  That
    is the minimum of stratum_codim = 2(g-1)(n^2 - sum_t v_t^2) - 2(k-1) over
    the non-generic types: since n >= sum_t v_t, k >= 2 summands give
    n^2 - sum_t v_t^2 >= 2(n-1) + (k-2), and one summand of multiplicity
    l >= 2 gives n^2 - v^2 >= 3n^2/4 > 2(n-1).
    """
    if n < 1 or genus < 1:
        raise ValueError("need n >= 1 and genus >= 1")
    if n == 1:
        return None
    if genus == 1:
        return 2
    return 4 * (genus - 1) * (n - 1) - 2


def fiber_dim_bound(nu: WeightedPartition, genus: int) -> tuple[int, int]:
    """Bounds (dim of one fiber, dim of the stratum preimage) upstairs.

    For the quotient map from the genus-g GL(n) representation space to the
    character variety: the fiber over a point of type nu has dimension at
    most n^2 g - sum_t (v_t^2 (g-1) + 1), and the preimage of the whole
    stratum at most n^2 g + sum_t (v_t^2 (g-1) + 1).  Both sums run over the
    k distinct summands.  Only meaningful for genus >= 2.
    """
    if genus < 2:
        raise ValueError("fiber bounds require genus >= 2")
    n = nu.total
    s = sum(d * d * (genus - 1) + 1 for _, d in nu.parts)
    return n * n * genus - s, n * n * genus + s


@dataclass(frozen=True)
class StratumInfo:
    """One stratum row of a factor table."""

    nu: WeightedPartition
    dim_gl: int
    dim_sl: int
    codim: int
    fiber_bounds: Optional[tuple[int, int]]
    is_open: bool

    def to_json(self) -> dict:
        return {
            "nu": self.nu.to_json(),
            "dim_gl": self.dim_gl,
            "dim_sl": self.dim_sl,
            "codim": self.codim,
            "fiber_bounds": list(self.fiber_bounds) if self.fiber_bounds else None,
            "open": self.is_open,
        }

    @classmethod
    def _unchecked(cls, nu, dim_gl, dim_sl, codim, fiber_bounds, is_open) -> "StratumInfo":
        """The row ``StratumInfo(...)`` builds, with its fields set in one
        ``__dict__`` update instead of one frozen ``__setattr__`` each."""
        row = object.__new__(cls)
        row.__dict__.update({
            "nu": nu,
            "dim_gl": dim_gl,
            "dim_sl": dim_sl,
            "codim": codim,
            "fiber_bounds": fiber_bounds,
            "is_open": is_open,
        })
        return row


class StratumRows(list):
    """The JSON rows of one factor table, ``StratumInfo.to_json()`` each.

    A plain list to ``json``, ``==`` and every other reader; the CLI's JSON
    writer recognises the exact type and writes each row from one format.
    """


def factor_strata_table(n: int, genus: int) -> tuple[StratumInfo, ...]:
    """Strata of one SL(n)/GL(n) factor.  Genus one lists populated types only.

    Every row number comes from k and sum_t v_t^2 alone: the dimensions of
    stratum_dim_gl and stratum_dim_sl, the codimension of stratum_codim and
    the bounds of fiber_dim_bound.  Both are read straight off the part
    tuples.  At genus one the walk takes only the all-v_t = 1 branch of the
    enumeration, in the same order.
    """
    if n < 1 or genus < 1:
        raise ValueError("need n >= 1 and genus >= 1")
    rows = []
    if genus == 1:
        ambient = 2 * n  # GL(n) at genus one: n unordered points of (C*)^2
        for parts in _weighted_parts(n, 1, n):
            dim = 2 * len(parts)
            codim = ambient - dim
            rows.append(
                StratumInfo._unchecked(
                    WeightedPartition._canonical(parts), dim, dim - 2, codim, None, codim == 0
                )
            )
        return tuple(rows)
    square = n * n
    for nu in enumerate_weighted_partitions(n):
        parts = nu.parts
        k = len(parts)
        square_sum = sum([d * d for _, d in parts])
        dim = 2 * (k + (genus - 1) * square_sum)
        codim = 2 * (genus - 1) * (square - square_sum) - 2 * (k - 1)
        fiber = (genus - 1) * square_sum + k
        rows.append(
            StratumInfo._unchecked(
                nu,
                dim,
                dim - 2 * genus,
                codim,
                (square * genus - fiber, square * genus + fiber),
                codim == 0,
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class StrataTable:
    """Per-factor stratum tables plus the smooth torus summary."""

    spec: GroupSpec
    genus: int
    torus_dim: int
    factor_tables: tuple[tuple[int, tuple[StratumInfo, ...]], ...]

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "torus_rank": self.spec.torus_rank,
            "torus_dim": self.torus_dim,
            "total_dim": char_variety_dim(self.spec, self.genus),
            "factors": [
                {"n": n, "strata": StratumRows([row.to_json() for row in rows])}
                for n, rows in self.factor_tables
            ],
        }


def strata_table(spec: GroupSpec, genus: int) -> StrataTable:
    """Stratum tables for every SL factor of ``spec``.

    Product strata are indexed by one type per factor; they are not
    materialized here.
    """
    torus_dim = 2 * genus * spec.torus_rank
    tables = tuple((n, factor_strata_table(n, genus)) for n in spec.factors)
    return StrataTable(spec, genus, torus_dim, tables)
