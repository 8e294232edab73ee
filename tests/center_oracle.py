"""Element-by-element center arithmetic over Fractions, kept as a test oracle.

This is the original implementation of ``Center.closure`` (breadth-first
search over tuples of ``Fraction`` angles) and of ``canonical_decomposition``
(one ``frozenset`` coset of the sign flips per kernel element).  It is slow
but straightforward; the library's integer-coordinate versions must agree
with it element for element.
"""

from fractions import Fraction

from charvar.groups import (
    DEFAULT_SUBGROUP_CAP,
    CentralElement,
    CentralSubgroup,
    SubgroupCapExceeded,
)


def _add(factors, x, y):
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
            s = _add(center.factors, base, g)
            if s not in seen:
                seen.add(s)
                if len(seen) > cap:
                    raise SubgroupCapExceeded(
                        f"central subgroup exceeds cap of {cap} elements"
                    )
                frontier.append(s)
    return CentralSubgroup(seen)


def coset_decomposition(spec, cap=DEFAULT_SUBGROUP_CAP):
    """(full, ss_kernel, etale_reps, pgl2_indices, reduced_kernel_reps)."""
    center = spec.center()
    full = fraction_closure(center, spec.central_generators, cap)
    ss_kernel = CentralSubgroup(e for e in full if e.torus_trivial)

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
        coset = frozenset(_add(spec.factors, e, f) for f in flips)
        prev = coset_reps.get(coset)
        if prev is None or e < prev:
            coset_reps[coset] = e
    reduced = tuple(sorted(coset_reps.values()))
    return full, ss_kernel, etale_reps, pgl2, reduced
