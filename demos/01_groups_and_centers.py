"""
Group descriptions and central subgroup arithmetic
==================================================

Every group handled by charvar is a quotient ((C*)^h x prod SL(n_i)) / Z0
for a finite central Z0.  This script builds a few, inspects their centers,
and walks the canonical decomposition that the classification relies on.
"""

from charvar import (
    Center,
    GroupSpec,
    canonical_decomposition,
    char_variety_dim,
    enumerate_central_subgroups,
    parse_group_spec,
)

# presets cover the common cases
for name in ("SL(3)", "GL(2)", "PGL(4)", "SL(2)xPGL(2)", "SL(2)^3"):
    spec = parse_group_spec(name)
    print(f"{name:14} torus rank {spec.torus_rank}, SL factors {spec.factors}, "
          f"|Z0| = {len(spec.full_center_subgroup())}")

# the center of prod SL(n_i) is prod mu_{n_i}; elements add coordinatewise
center = Center(0, (2, 4))
tau = center.element([], (1, 2))
print("\norder of (1,2) in mu_2 x mu_4:", center.order(tau))
print("order of the subgroup it generates:", center.closure([tau]).order)

# a hand-built quotient: SL(2) x SL(4) mod the diagonal order-2 element
spec = GroupSpec(0, (2, 4), (tau,))
decomp = canonical_decomposition(spec)
print("\n(SL(2) x SL(4)) / <(-1, iI)>")
for key, value in decomp.summary().items():
    print(f"  {key}: {value}")

# the decomposition splits Z0 into the part acting with fixed points
# (the torus-invisible kernel) and a freely acting etale remainder
print("\ndimensions at genus 1, 2, 3:",
      [char_variety_dim(spec, g) for g in (1, 2, 3)])

# the full subgroup lattice of a small center, for catalog sweeps
subs = enumerate_central_subgroups((2, 4))
print(f"\nmu_2 x mu_4 has {len(subs)} subgroups, orders",
      sorted(s.order for s in subs))
