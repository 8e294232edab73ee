"""Element-by-element center arithmetic over Fractions, kept as a test oracle.

This is the original implementation of ``Center.closure`` (breadth-first
search over tuples of ``Fraction`` angles), of ``canonical_decomposition``
(one ``frozenset`` coset of the sign flips per kernel element) and of
``enumerate_central_subgroups`` (a walk over frozensets of elements).  It
is slow but straightforward; the library's lattice versions must agree
with it element for element.
"""

import itertools
from fractions import Fraction

from charvar.groups import (
    DEFAULT_SUBGROUP_CAP,
    CentralElement,
    SubgroupCapExceeded,
)


class ElementSet:
    """A finite set of central elements, listed in sorted order."""

    def __init__(self, elements):
        self.elements = tuple(sorted(elements))
        self._set = frozenset(self.elements)

    @property
    def order(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self._set


def add(factors, x, y):
    """x + y in the center of (C*)^h x prod SL(n_i), n_i = ``factors``."""
    torus = tuple((a + b) % 1 for a, b in zip(x.torus_part, y.torus_part))
    ss = tuple((a + b) % n for a, b, n in zip(x.ss_part, y.ss_part, factors))
    return CentralElement(torus, ss)


def fraction_closure(center, generators, cap=DEFAULT_SUBGROUP_CAP):
    """Subgroup generated by ``generators``, enumerated breadth-first."""
    identity = CentralElement((Fraction(0),) * center.torus_rank, (0,) * len(center.factors))
    seen = {identity}
    frontier = [identity]
    gens = list(generators)
    while frontier:
        base = frontier.pop()
        for g in gens:
            s = add(center.factors, base, g)
            if s not in seen:
                seen.add(s)
                if len(seen) > cap:
                    raise SubgroupCapExceeded(
                        f"central subgroup exceeds cap of {cap} elements"
                    )
                frontier.append(s)
    return ElementSet(seen)


def coset_decomposition(spec, cap=DEFAULT_SUBGROUP_CAP):
    """(full, ss_kernel, etale_reps, pgl2_indices, reduced_kernel_reps)."""
    center = spec.center()
    full = fraction_closure(center, spec.central_generators, cap)
    ss_kernel = ElementSet(e for e in full if e.torus_trivial)

    by_torus = {}
    for e in full:
        prev = by_torus.get(e.torus_part)
        if prev is None or e < prev:
            by_torus[e.torus_part] = e
    etale_reps = tuple(sorted(by_torus.values()))

    pgl2 = frozenset(
        i
        for i, n in enumerate(spec.factors)
        if n == 2 and center.sl_center_generator(i) in ss_kernel
    )
    flips = fraction_closure(
        center, [center.sl_center_generator(i) for i in sorted(pgl2)], cap
    )
    coset_reps = {}
    for e in ss_kernel:
        coset = frozenset(add(spec.factors, e, f) for f in flips)
        prev = coset_reps.get(coset)
        if prev is None or e < prev:
            coset_reps[coset] = e
    reduced = tuple(sorted(coset_reps.values()))
    return full, ss_kernel, etale_reps, pgl2, reduced


def subgroup_walk(factors):
    """All subgroups of prod_i Z_{n_i}, sorted by (order, elements).

    Repeatedly joins known subgroups, as frozensets of element indices, with
    cyclic subgroups; the join S + <x> of abelian groups is literally the
    set of sums, read off an addition table.
    """
    full = list(itertools.product(*[range(n) for n in factors]))
    index = {x: i for i, x in enumerate(full)}
    plus = [
        [index[tuple((a + b) % n for a, b, n in zip(x, y, factors))] for y in full]
        for x in full
    ]
    cyclics = set()
    for x in range(len(full)):
        powers = [x]
        while powers[-1] != 0:  # full[0] is the identity
            powers.append(plus[powers[-1]][x])
        cyclics.add(frozenset(powers))
    trivial = frozenset([0])
    known = {trivial}
    frontier = [trivial]
    while frontier:
        sub = frontier.pop()
        for cyc in cyclics:
            if cyc <= sub:
                continue
            bigger = frozenset(plus[s][c] for s in sub for c in cyc)
            if bigger not in known:
                known.add(bigger)
                frontier.append(bigger)
    subgroups = [ElementSet(CentralElement((), full[i]) for i in sub) for sub in known]
    return sorted(subgroups, key=lambda s: (s.order, s.elements))
