"""Shared test data."""

import functools
import itertools

from charvar.groups import GroupSpec, enumerate_central_subgroups


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
