"""Shared test data."""

import functools
import itertools
import random
from fractions import Fraction

from charvar.groups import Center, GroupSpec, enumerate_central_subgroups


@functools.lru_cache(maxsize=None)
def small_group_catalog(values=(2, 3, 4, 5), max_size=3):
    """Every quotient of a small SL product by a central subgroup."""
    specs = []
    for size in range(1, max_size + 1):
        for factors in itertools.combinations_with_replacement(values, size):
            for subgroup in enumerate_central_subgroups(factors):
                gens = tuple(x for x in subgroup if not x.is_identity)
                specs.append(
                    GroupSpec(torus_rank=0, factors=factors, central_generators=gens)
                )
    return specs


def mixed_denominator_specs(count=150, seed=7):
    """Torus presentations with angle denominators 1 to 6, some torus-free."""
    rnd = random.Random(seed)
    specs = []
    for _ in range(count):
        h = rnd.randint(0, 2)
        factors = tuple(rnd.choice((2, 2, 3, 4)) for _ in range(rnd.randint(0, 2)))
        center = Center(h, factors)
        gens = []
        for _ in range(rnd.randint(1, 4)):
            torus = [Fraction(rnd.randrange(d), d) for d in (rnd.randint(1, 6) for _ in range(h))]
            gens.append(center.element(torus, [rnd.randrange(n) for n in factors]))
        specs.append(GroupSpec(h, factors, tuple(gens)))
    return specs
