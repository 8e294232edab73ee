"""Center bookkeeping for connected reductive groups of type A.

A group is presented as G = ((C*)^h x SL(n_1) x ... x SL(n_m)) / Z0 for a
finite subgroup Z0 of the center.  The center of the covering group is
(C*)^h x prod_i Z_{n_i}; we store its elements exactly: torus coordinates as
rationals in [0, 1) (the angle a/b stands for exp(2*pi*i*a/b)) and one
residue mod n_i per special linear factor.

Z0 is kept as a lattice, not as an element list.  The generators' torus
angles go over their common denominator D, so Z0 is the span of integer
vectors in Z_D^h x prod_i Z_{n_i}, and ``Center.closure`` echelonizes that
span with extended-gcd row operations (torus columns first, then one column
per SL factor).  The pivots d_j divide the column moduli m_j, and every
answer that needs only orders is read off them: |Z0| = prod_j m_j / d_j
(checked against the size cap before any element exists), the
torus-invisible kernel is spanned by the rows whose pivots lie in the SL
columns, and an SL(2) slot is a PGL(2) slot exactly when its sign flip is a
member of the lattice.  A ``CentralSubgroup`` holds nothing but this
basis; its elements are listed, once, only when an answer prints them.  A
GroupSpec is immutable, so Z0 and its canonical decomposition are computed
once per spec instance and kept on it; every later query on the same spec
reuses them.

Everything here is exact integer/rational arithmetic; no floats enter the
combinatorial layer.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Optional, Sequence, Union

DEFAULT_SUBGROUP_CAP = 10**6

# the largest torus rank, and the most direct factors a preset expression may
# expand to; both are refused before any tuple of that length exists.  In
# process on a 2-core VM, every command answers a generator-free torus of
# rank 10^4 in 15 ms or less (analyze writes 157 kB, the zero angles of its
# kernel), and SL(2)^10^4 in 23 ms or less except analyze (0.93 s, 13 MB of
# strata); at rank 10^5 analyze takes 0.14 s, at 10^6 2.0 s, and rank 10^30
# overflowed while the lattice was built.
MAX_TORUS_RANK = 10**4
MAX_PRESET_FACTORS = 10**4

RationalLike = Union[int, str, Fraction]


class GroupSpecError(ValueError):
    """Malformed group description: bad rational, residue, schema, or preset."""


class SubgroupCapExceeded(GroupSpecError):
    """A generated central subgroup exceeded the configured size cap."""


@dataclass(frozen=True, order=True)
class CentralElement:
    """One element of the center: torus angles plus one residue per SL factor."""

    torus_part: tuple[Fraction, ...]
    ss_part: tuple[int, ...]

    @property
    def torus_trivial(self) -> bool:
        return all(c == 0 for c in self.torus_part)

    @property
    def is_identity(self) -> bool:
        return self.torus_trivial and all(a == 0 for a in self.ss_part)

    def to_json(self) -> dict:
        return {
            "torus": [str(c) for c in self.torus_part],
            "factors": list(self.ss_part),
        }


class ElementRows(list):
    """A JSON list of elements, ``CentralElement.to_json()`` each.

    A plain list to ``json``, ``==`` and every other reader; the CLI's JSON
    writer recognises the exact type and writes each element from one format.
    """


class Center:
    """Arithmetic in the center of (C*)^h x prod SL(n_i).

    >>> c = Center(0, (2, 3))
    >>> e = c.element([], [1, 0])
    >>> c.order(e)
    2
    >>> c.closure([e]).order
    2
    """

    def __init__(self, torus_rank: int, factors: Sequence[int]):
        self.torus_rank = int(torus_rank)
        self.factors = tuple(int(n) for n in factors)

    def element(
        self, torus: Sequence[RationalLike] = (), ss: Sequence[int] = ()
    ) -> CentralElement:
        if not (isinstance(torus, (list, tuple)) and isinstance(ss, (list, tuple))):
            raise GroupSpecError("torus coordinates and residues must be lists")
        if not all(map(_is_int, ss)):
            raise GroupSpecError(f"residues must be integers, got {list(ss)!r}")
        torus, ss = tuple(_parse_rational(c) for c in torus), tuple(ss)
        if len(torus) != self.torus_rank:
            raise GroupSpecError(
                f"expected {self.torus_rank} torus coordinates, got {len(torus)}"
            )
        if len(ss) != len(self.factors):
            raise GroupSpecError(
                f"expected {len(self.factors)} residues, got {len(ss)}"
            )
        for a, n in zip(ss, self.factors):
            if not 0 <= a < n:
                raise GroupSpecError(f"residue {a} out of range for modulus {n}")
        return CentralElement(torus, ss)

    def identity(self) -> CentralElement:
        return CentralElement((Fraction(0),) * self.torus_rank, (0,) * len(self.factors))

    def order(self, x: CentralElement) -> int:
        return element_order(x, self.factors)

    def sl_center_generator(self, i: int) -> CentralElement:
        # residue 1 mod n_i in slot i; for n_i = 2 this is -I in that factor
        ss = [0] * len(self.factors)
        ss[i] = 1 % self.factors[i]
        return CentralElement((Fraction(0),) * self.torus_rank, tuple(ss))

    def closure(
        self,
        generators: Iterable[CentralElement],
        cap: int = DEFAULT_SUBGROUP_CAP,
    ) -> "CentralSubgroup":
        """Subgroup generated by ``generators``, as an echelon basis.

        The torus angles go over their common denominator D (the lcm of the
        generators' torus denominators, 1 when there are none), so every
        generator is an integer vector in Z_D^h x prod Z_{n_i}; the
        subgroup is the span of those vectors, kept as the echelon basis of
        ``_echelon``.  Its order is read off the pivots, so
        SubgroupCapExceeded is raised before any element exists; the
        elements are listed only when ``elements`` is first read.
        """
        gens = list(generators)
        denom = lcm(*(c.denominator for g in gens for c in g.torus_part))
        moduli = (denom,) * self.torus_rank + self.factors
        vectors = [_integer_vector(g, denom) for g in gens]
        sub = CentralSubgroup(_echelon(vectors, moduli), moduli, self.torus_rank)
        if sub.order > cap:
            raise SubgroupCapExceeded(f"central subgroup exceeds cap of {cap} elements")
        return sub


def _integer_vector(x: CentralElement, denom: int) -> tuple[int, ...]:
    """The torus angles of ``x`` as numerators over ``denom`` (a multiple
    of their denominators), then its residues."""
    torus = tuple(c.numerator * (denom // c.denominator) for c in x.torus_part)
    return torus + x.ss_part


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g = gcd(a, b), for a, b >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


Rows = dict[int, tuple[int, ...]]


def _reduce(
    v: tuple[int, ...], rows: Rows, moduli: tuple[int, ...]
) -> tuple[Optional[int], tuple[int, ...]]:
    """Clear the entries of v column by column with multiples of the rows,
    up to the first column whose entry the pivot there does not divide.

    Returns that column (None when v reduces to zero) and what is left of v.
    """
    for j in range(len(v)):
        a = v[j]
        if a:
            b = rows.get(j)
            if b is None or a % b[j]:
                return j, v
            q = a // b[j]
            v = tuple((p - q * r) % n for p, r, n in zip(v, b, moduli))
    return None, v


def _echelon(vectors: Iterable[tuple[int, ...]], moduli: tuple[int, ...]) -> Rows:
    """Echelon (Hermite-style) basis of the span of ``vectors`` in prod Z_{m_j}.

    Returns {j: b_j} in column order: b_j is zero before column j and its
    pivot d_j = b_j[j] is a proper divisor of m_j; a column without a row
    has d_j = m_j.  Every element is then sum_j c_j b_j for exactly one
    choice of 0 <= c_j < m_j / d_j (Cohen, GTM 138, section 2.4).

    Each vector v is reduced against the rows (``_reduce``).  If it stops
    at column j, with a = v[j] not divisible by the pivot d there, the row
    b becomes x v + y b, whose pivot is g = gcd(a, d) = x a + y d, and two
    vectors that vanish at column j go back on the work list: (d/g) v -
    (a/g) b, so the rows still span what v and b spanned, and (m_j/g) times
    the new row, so the row's multiples stay inside the span of the rows
    below it.  A column without a row is the case b = 0, d = m_j, where the
    two vectors are multiples of (m_j/g) v and one of them suffices.  A
    pivot only ever shrinks to a proper divisor, so the work is polynomial
    in the number of generators and columns.
    """
    rows: Rows = {}
    pending = [tuple(a % m for a, m in zip(v, moduli)) for v in vectors]
    while pending:
        j, v = _reduce(pending.pop(), rows, moduli)
        if j is None:
            continue
        m, a = moduli[j], v[j]
        b = rows.get(j)
        if b is None:
            g, x, _ = _xgcd(a, m)
            rows[j] = tuple(x * p % n for p, n in zip(v, moduli))
            fresh = [tuple((m // g) * p % n for p, n in zip(v, moduli))]
        else:
            d = b[j]
            g, x, y = _xgcd(a, d)
            row = rows[j] = tuple((x * p + y * r) % n for p, r, n in zip(v, b, moduli))
            u, w = d // g, a // g
            fresh = [
                tuple((u * p - w * r) % n for p, r, n in zip(v, b, moduli)),
                tuple((m // g) * p % n for p, n in zip(row, moduli)),
            ]
        pending += [f for f in fresh if any(f)]
    return dict(sorted(rows.items()))


class CentralSubgroup:
    """A finite subgroup of the center, kept as the echelon basis of its
    lattice in Z_D^h x prod Z_{n_i} (see ``_echelon``).

    ``Center.closure`` builds it: the order, membership and the
    torus-invisible kernel are read off the basis, and the sorted element
    tuple is listed only when ``elements`` is first read.
    """

    def __init__(self, rows: Rows, moduli: tuple[int, ...], torus_rank: int):
        self._rows, self._moduli, self.torus_rank = rows, moduli, torus_rank

    @cached_property
    def elements(self) -> tuple[CentralElement, ...]:
        return self._list_elements()

    def _list_elements(self) -> tuple[CentralElement, ...]:
        """Every sum_j c_j b_j with 0 <= c_j < m_j / d_j, once each, sorted
        (the order of their Fraction angles: the angles share the
        denominator D)."""
        moduli, h = self._moduli, self.torus_rank
        # one list per column, grown a row at a time: the multiples k b_j,
        # 0 <= k < m_j / d_j, are added to every vector listed so far
        columns = [[0] for _ in moduli]
        for j, row in self._rows.items():
            count = moduli[j] // row[j]
            columns = [
                [(x + k * r) % m for k in range(count) for x in column]
                if r
                else column * count
                for column, r, m in zip(columns, row, moduli)
            ]
        vectors = list(zip(*columns)) or [()]  # no columns: the trivial group
        vectors.sort()
        if not h:
            return tuple(CentralElement((), x) for x in vectors)
        denom = moduli[0]
        angles = {k: Fraction(k, denom) for k in {k for x in vectors for k in x[:h]}}
        return tuple(
            CentralElement(tuple(map(angles.__getitem__, x[:h])), x[h:]) for x in vectors
        )

    def _torus_kernel(self) -> "CentralSubgroup":
        """The elements with trivial torus part: the span of the rows whose
        pivots lie in the SL columns (the basis is triangular and the torus
        columns come first)."""
        h = self.torus_rank
        rows = {j: row for j, row in self._rows.items() if j >= h}
        if len(rows) == len(self._rows):
            return self
        return CentralSubgroup(rows, self._moduli, h)

    @cached_property
    def order(self) -> int:
        return prod(self._moduli[j] // row[j] for j, row in self._rows.items())

    @property
    def nontrivial(self) -> bool:
        return self.order > 1

    @property
    def torus_trivial(self) -> bool:
        """Do all elements have trivial torus part?"""
        return all(j >= self.torus_rank for j in self._rows)

    def __contains__(self, x: CentralElement) -> bool:
        moduli, h = self._moduli, self.torus_rank
        denom = moduli[0] if h else 1
        if (
            len(x.torus_part) != h
            or len(x.ss_part) != len(moduli) - h
            or any(denom % c.denominator for c in x.torus_part)
        ):
            return False
        v = tuple(a % m for a, m in zip(_integer_vector(x, denom), moduli))
        return _reduce(v, self._rows, moduli)[0] is None

    def __iter__(self) -> Iterator[CentralElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other) -> bool:
        return isinstance(other, CentralSubgroup) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"CentralSubgroup(order={self.order})"


def element_order(x: CentralElement, factors: Sequence[int]) -> int:
    """Multiplicative order: lcm of coordinate orders."""
    orders = [c.denominator for c in x.torus_part]
    orders += [n // gcd(a, n) for a, n in zip(x.ss_part, factors)]
    return lcm(*orders) if orders else 1


@dataclass(frozen=True)
class GroupSpec:
    """Presentation datum ((C*)^h x prod SL(n_i)) / Z0.

    ``central_generators`` generate Z0 inside the center of the covering
    group.  Factors are the SL sizes n_i >= 2 (abelian groups have none).
    """

    torus_rank: int
    factors: tuple[int, ...]
    central_generators: tuple[CentralElement, ...] = ()

    def __post_init__(self):
        if self.torus_rank < 0:
            raise GroupSpecError("torus rank must be nonnegative")
        if self.torus_rank > MAX_TORUS_RANK:
            raise GroupSpecError(
                f"torus rank {self.torus_rank} is above the limit {MAX_TORUS_RANK}"
            )
        for n in self.factors:
            if n < 2:
                raise GroupSpecError(f"SL factor size must be >= 2, got {n}")
        center = self.center()
        for g in self.central_generators:
            # revalidate shapes and ranges through the ambient center
            center.element(g.torus_part, g.ss_part)

    def center(self) -> Center:
        return Center(self.torus_rank, self.factors)

    @property
    def nonabelian(self) -> bool:
        return bool(self.factors)

    def full_center_subgroup(self, cap: int = DEFAULT_SUBGROUP_CAP) -> CentralSubgroup:
        """Z0, the subgroup generated by the listed central generators.

        Echelonized once per spec and kept on it; every call still raises
        SubgroupCapExceeded when |Z0| exceeds its ``cap``.
        """
        full = self.__dict__.get("_full_center")
        if full is None:
            full = self.center().closure(self.central_generators, cap)
            object.__setattr__(self, "_full_center", full)
        elif full.order > cap:
            raise SubgroupCapExceeded(f"central subgroup exceeds cap of {cap} elements")
        return full

    def to_json(self) -> dict:
        return {
            "torus_rank": self.torus_rank,
            "factors": list(self.factors),
            "central_generators": ElementRows(g.to_json() for g in self.central_generators),
        }


@dataclass(frozen=True)
class Decomposition:
    """Canonical split of the central data of a GroupSpec.

    ss_kernel is the part of Z0 invisible to the torus (trivial torus
    coordinates); the quotient Z0/ss_kernel embeds into the torus and acts
    freely, so only its order (``etale_order``) enters the answers.
    ``pgl2_indices`` are the SL(2) slots whose center sits inside ss_kernel;
    quotienting out those sign flips leaves a group of order
    ``reduced_kernel_order``.
    """

    spec: GroupSpec
    full_center: CentralSubgroup
    ss_kernel: CentralSubgroup
    pgl2_indices: frozenset[int]

    @property
    def etale_order(self) -> int:
        return self.full_center.order // self.ss_kernel.order

    @property
    def reduced_kernel_order(self) -> int:
        # the sign flips of distinct slots are independent elements of order 2
        return self.ss_kernel.order >> len(self.pgl2_indices)

    @property
    def factors(self) -> tuple[int, ...]:
        return self.spec.factors

    def quotient_factor_labels(self) -> tuple[tuple[str, int], ...]:
        """Factors of the intermediate quotient group: SL(n) or PGL(2) per slot."""
        return tuple(
            ("PGL", 2) if i in self.pgl2_indices else ("SL", n)
            for i, n in enumerate(self.spec.factors)
        )

    def summary(self) -> dict:
        return {
            "torus_rank": self.spec.torus_rank,
            "factors": list(self.spec.factors),
            "center_order": self.full_center.order,
            "ss_kernel_order": self.ss_kernel.order,
            "etale_order": self.etale_order,
            "pgl2_indices": sorted(self.pgl2_indices),
            "reduced_kernel_order": self.reduced_kernel_order,
            "ss_kernel": ElementRows(e.to_json() for e in self.ss_kernel),
        }


def canonical_decomposition(
    spec: GroupSpec, cap: int = DEFAULT_SUBGROUP_CAP
) -> Decomposition:
    """Split Z0 into its torus-invisible kernel and the free torus part.

    Both are read off the echelon basis of Z0, with no element listed, and
    kept on the spec like Z0 itself.
    """
    full = spec.full_center_subgroup(cap)
    decomp = spec.__dict__.get("_decomposition")
    if decomp is None:
        ss_kernel = full._torus_kernel()
        decomp = Decomposition(
            spec=spec,
            full_center=full,
            ss_kernel=ss_kernel,
            pgl2_indices=_sign_flip_slots(ss_kernel, spec.factors),
        )
        object.__setattr__(spec, "_decomposition", decomp)
    return decomp


def _sign_flip_slots(kernel: CentralSubgroup, factors: Sequence[int]) -> frozenset[int]:
    """SL(2) slots whose sign flip -I (residue 1 there, 0 elsewhere) is a
    member of ``kernel``."""
    if kernel.order == 1:
        return frozenset()
    center = Center(kernel.torus_rank, factors)
    return frozenset(
        i
        for i, n in enumerate(factors)
        if n == 2 and center.sl_center_generator(i) in kernel
    )


def is_sl2_center_product(
    ss_kernel: CentralSubgroup, factors: Sequence[int]
) -> Optional[frozenset[int]]:
    """SL(2) slots S with sign flip in the kernel, if those flips exhaust it.

    Returns S when the kernel order equals 2^|S| (so the kernel is exactly the
    product of the -I's of the slots in S, and the quotient of prod SL(n_i) by
    it is a product of SL factors and PGL(2) copies); otherwise None.
    """
    if not ss_kernel.torus_trivial:
        raise GroupSpecError("kernel subgroup must have trivial torus parts")
    slots = _sign_flip_slots(ss_kernel, factors)
    return slots if ss_kernel.order == 2 ** len(slots) else None


def char_variety_dim(spec: GroupSpec, genus: int) -> int:
    """Dimension of the genus-g character variety of ``spec``.

    For g >= 2 each SL(n) factor contributes 2(g-1)(n^2-1) and the torus
    2g per rank; at g = 1 an SL(n) factor contributes 2(n-1) (commuting
    pairs of diagonalizable matrices up to conjugation) and the torus 2.
    """
    if genus < 1:
        raise GroupSpecError(f"genus must be >= 1, got {genus}")
    h = spec.torus_rank
    if genus == 1:
        return 2 * h + sum(2 * (n - 1) for n in spec.factors)
    return 2 * genus * h + sum(2 * (genus - 1) * (n * n - 1) for n in spec.factors)


# ---------------------------------------------------------------------------
# parsing: presets and the JSON schema
# ---------------------------------------------------------------------------

_PRESET_TOKEN = re.compile(r"(SL|GL|PGL)\((\d+)\)(?:\^(\d+))?", re.IGNORECASE)


def _is_int(x) -> bool:
    """A JSON integer: ``int`` but not ``bool`` (``true`` is not 1 here)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_rational(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        f = x
    elif _is_int(x):
        f = Fraction(x)
    elif isinstance(x, str):
        try:
            f = Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise GroupSpecError(f"malformed rational {x!r}") from exc
    else:
        raise GroupSpecError(
            f"torus coordinate must be an exact rational string, got {type(x).__name__}"
        )
    if not 0 <= f < 1:
        raise GroupSpecError(f"torus coordinate {f} outside [0, 1)")
    return f


def preset_group_spec(name: str, cap: int = DEFAULT_SUBGROUP_CAP) -> GroupSpec:
    """Expand a preset expression: SL(n), GL(n), PGL(n), joined by 'x', '^k'.

    The expansion is refused before it is built when it has more than
    ``MAX_PRESET_FACTORS`` direct factors, or when |Z0|, the product of the
    sizes of its GL and PGL factors, exceeds ``cap``.

    >>> preset_group_spec("GL(2)").torus_rank
    1
    >>> preset_group_spec("SL(2)^2").factors
    (2, 2)
    """
    text = name.replace(" ", "")
    if not text:
        raise GroupSpecError("empty group expression")
    tokens: list[tuple[str, int, int]] = []  # (kind, n, repeats)
    for token in text.split("x"):
        m = _PRESET_TOKEN.fullmatch(token)
        if not m:
            raise GroupSpecError(f"unknown preset {token!r}")
        n = int(m.group(2))
        if n < 1:
            raise GroupSpecError(f"preset size must be >= 1, got {n}")
        tokens.append((m.group(1).upper(), n, int(m.group(3) or 1)))
    count = sum(repeats for _, _, repeats in tokens)
    if count > MAX_PRESET_FACTORS:
        raise GroupSpecError(
            f"preset has {count} direct factors, above the limit {MAX_PRESET_FACTORS}"
        )
    order = 1
    for kind, n, repeats in tokens:
        if kind == "SL" or n < 2:
            continue
        for _ in range(repeats):
            order *= n  # at least doubles, so this stops soon after the cap
            if order > cap:
                raise SubgroupCapExceeded(f"central subgroup exceeds cap of {cap} elements")
    # (kind, n), one per direct factor
    presets = [(kind, n) for kind, n, repeats in tokens for _ in range(repeats)]
    torus_rank = sum(kind == "GL" for kind, _ in presets)
    factors = tuple(n for _, n in presets if n >= 2)
    generators = []
    t = i = 0  # the preset's torus coordinate and SL slot
    for kind, n in presets:
        if n >= 2 and kind != "SL":
            torus, ss = [Fraction(0)] * torus_rank, [0] * len(factors)
            if kind == "PGL":
                ss[i] = 1
            else:  # GL(n) = (C* x SL(n)) / mu_n embedded as (angle 1/n, residue n-1)
                torus[t], ss[i] = Fraction(1, n), n - 1
            generators.append(CentralElement(tuple(torus), tuple(ss)))
        t += kind == "GL"
        i += n >= 2
    return GroupSpec(torus_rank, factors, tuple(generators))


def spec_from_json(data: dict, cap: int = DEFAULT_SUBGROUP_CAP) -> GroupSpec:
    """Build a GroupSpec from the documented JSON schema."""
    if not isinstance(data, dict):
        raise GroupSpecError("group JSON must be an object")
    unknown = set(data) - {"torus_rank", "factors", "central_generators"}
    if unknown:
        raise GroupSpecError(f"unknown keys in group JSON: {sorted(unknown)}")
    torus_rank = data.get("torus_rank", 0)
    factors = data.get("factors", [])
    items = data.get("central_generators", [])
    if not _is_int(torus_rank):
        raise GroupSpecError("torus_rank must be an integer")
    if not isinstance(factors, list) or not all(map(_is_int, factors)):
        raise GroupSpecError("factors must be a list of integers")
    if not isinstance(items, list):
        raise GroupSpecError("central_generators must be a list")
    center = Center(torus_rank, factors)
    generators = []
    for item in items:
        if not isinstance(item, dict):
            raise GroupSpecError("each central generator must be an object")
        unknown = set(item) - {"torus", "factors"}
        if unknown:
            raise GroupSpecError(f"unknown keys in central generator: {sorted(unknown)}")
        generators.append(center.element(item.get("torus", []), item.get("factors", [])))
    spec = GroupSpec(torus_rank, tuple(int(n) for n in factors), tuple(generators))
    spec.full_center_subgroup(cap)  # enforce the size cap up front
    return spec


def parse_group_spec(
    source: Union[str, dict], cap: int = DEFAULT_SUBGROUP_CAP
) -> GroupSpec:
    """Parse a preset expression, JSON text, or already-decoded JSON object."""
    if isinstance(source, dict):
        return spec_from_json(source, cap)
    text = source.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GroupSpecError(f"invalid group JSON: {exc}") from exc
        return spec_from_json(data, cap)
    spec = preset_group_spec(text, cap)
    spec.full_center_subgroup(cap)
    return spec


PRESET_CATALOG = (
    ("SL(n)", "special linear factor, trivial central quotient"),
    ("GL(n)", "general linear group as (C* x SL(n)) / mu_n"),
    ("PGL(n)", "projective linear group SL(n) / mu_n"),
    ("A x B", "direct product of presets, e.g. SL(2)xPGL(3)"),
    ("A^k", "repeated direct product, e.g. SL(2)^3"),
)


# ---------------------------------------------------------------------------
# subgroup lattice enumeration (used by catalogs and consistency sweeps)
# ---------------------------------------------------------------------------

def enumerate_central_subgroups(
    factors: Sequence[int], cap: int = DEFAULT_SUBGROUP_CAP
) -> list[CentralSubgroup]:
    """All subgroups of prod_i Z_{n_i}, sorted by (order, elements).

    Lattice walk: one generator per cyclic subgroup, and each subgroup
    found is joined with each generator outside it, as the closure of its
    echelon rows plus that generator.  Every subgroup is such a join of
    cyclic ones, so the walk from the trivial group reaches them all.
    """
    total = prod(factors)
    if total > cap:
        raise SubgroupCapExceeded(
            f"full center has order {total}, above the cap {cap}"
        )
    center = Center(0, factors)
    cyclics: dict[tuple[CentralElement, ...], CentralElement] = {}
    for ss in itertools.product(*[range(n) for n in factors]):
        x = CentralElement((), ss)
        cyclics.setdefault(center.closure([x]).elements, x)
    trivial = center.closure([])
    known = {trivial.elements: trivial}
    frontier = [trivial]
    while frontier:
        sub = frontier.pop()
        rows = [CentralElement((), row) for row in sub._rows.values()]
        for x in cyclics.values():
            if x in sub:
                continue
            bigger = center.closure(rows + [x])
            if bigger.elements not in known:
                known[bigger.elements] = bigger
                frontier.append(bigger)
    return sorted(known.values(), key=lambda s: (s.order, s.elements))
