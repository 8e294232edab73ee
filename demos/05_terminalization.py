"""
Q-factorial terminalization plans
=================================

Even when no symplectic resolution exists there is a canonical best
partial resolution.  The planner assembles it factor by factor, then
records the finite quotients that glue the pieces back into the moduli
of the original group.  The plan ends smooth exactly when the
classification said a resolution exists, which is checked here live.
"""

from charvar import (
    Center,
    GroupSpec,
    classify_resolution,
    enumerate_central_subgroups,
    plan_terminalization,
    parse_group_spec,
    render_plan,
)

for name, genus in (("SL(2)", 2), ("SL(3)", 2), ("PGL(2)", 1), ("GL(2)", 2)):
    print(render_plan(plan_terminalization(parse_group_spec(name), genus)))
    print()

# genus one plans use Hilbert-Chow morphisms; a residual central quotient
# appears when the kernel is not a clean product of factor centers
center = Center(0, (2, 2))
diag = GroupSpec(0, (2, 2), (center.element([], (1, 1)),))
print(render_plan(plan_terminalization(diag, 1)))

# consistency sweep: plans end smooth iff the verdict grants a resolution,
# over every central quotient of SL(2) x SL(4) at genus 1, 2, 3
agreements = 0
for sub in enumerate_central_subgroups((2, 4)):
    gens = tuple(e for e in sub.elements if not e.is_identity)
    spec = GroupSpec(0, (2, 4), gens)
    for genus in (1, 2, 3):
        plan = plan_terminalization(spec, genus)
        assert plan.smooth == classify_resolution(spec, genus).has_resolution
        agreements += 1
print(f"\nplanner agrees with the classification in {agreements} quotient cases")
