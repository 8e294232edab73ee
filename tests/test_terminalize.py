"""Terminalization plans and their agreement with the classification."""

from charvar.classify import classify_resolution
from charvar.groups import Center, GroupSpec, parse_group_spec
from charvar.terminalize import (
    CENTRAL_QUOTIENT,
    ETALE_QUOTIENT,
    HILB2_BLOWUP,
    HILBERT_CHOW,
    IDENTITY,
    SINGULAR_LOCUS_BLOWUP,
    TORUS_PRODUCT,
    plan_terminalization,
    render_plan,
)
from conftest import small_group_catalog

import pytest


def quotient_spec(factors, generators):
    center = Center(0, tuple(factors))
    gens = tuple(center.element((), g) for g in generators)
    return GroupSpec(torus_rank=0, factors=tuple(factors), central_generators=gens)


def test_sl2_genus2_single_blowup():
    plan = plan_terminalization(parse_group_spec("SL(2)"), 2)
    assert [leaf.kind for leaf in plan.leaves] == [SINGULAR_LOCUS_BLOWUP]
    assert plan.leaves[0].resolves
    assert plan.steps == ()
    assert plan.smooth


def test_sl3_genus2_stays_put():
    plan = plan_terminalization(parse_group_spec("SL(3)"), 2)
    assert [leaf.kind for leaf in plan.leaves] == [IDENTITY]
    assert not plan.leaves[0].resolves
    assert not plan.smooth


def test_pgl2_genus1_small_resolution():
    plan = plan_terminalization(parse_group_spec("PGL(2)"), 1)
    assert [leaf.kind for leaf in plan.leaves] == [HILB2_BLOWUP]
    # the sign twist is absorbed into the PGL(2) slot, nothing left to quotient
    assert plan.steps == ()
    assert plan.smooth


def test_pgl2_genus2_residual_quotient():
    plan = plan_terminalization(parse_group_spec("PGL(2)"), 2)
    assert [leaf.kind for leaf in plan.leaves] == [SINGULAR_LOCUS_BLOWUP]
    assert [step.kind for step in plan.steps] == [CENTRAL_QUOTIENT]
    assert plan.steps[0].group_order == 2
    assert plan.steps[0].copies == 4
    assert not plan.smooth


def test_gl2_genus2_torus_and_etale_steps():
    plan = plan_terminalization(parse_group_spec("GL(2)"), 2)
    assert [leaf.kind for leaf in plan.leaves] == [SINGULAR_LOCUS_BLOWUP]
    assert [step.kind for step in plan.steps] == [TORUS_PRODUCT, ETALE_QUOTIENT]
    etale = plan.steps[1]
    assert etale.group_order == 2 and etale.copies == 4
    assert plan.smooth


def test_sl_product_genus1_hilbert_chow():
    plan = plan_terminalization(parse_group_spec("SL(2)xSL(3)"), 1)
    assert [leaf.kind for leaf in plan.leaves] == [HILBERT_CHOW, HILBERT_CHOW]
    assert plan.steps == ()
    assert plan.smooth


def test_diagonal_quotient_genus1():
    plan = plan_terminalization(quotient_spec((2, 2), [(1, 1)]), 1)
    # diagonal kernel is not generated by single-slot signs: both leaves stay
    # plain SL(2) and the order-2 residue acts on the generator pairs
    assert [leaf.kind for leaf in plan.leaves] == [HILBERT_CHOW, HILBERT_CHOW]
    assert [step.kind for step in plan.steps] == [CENTRAL_QUOTIENT]
    assert plan.steps[0].group_order == 2
    assert plan.steps[0].copies == 2
    assert not plan.smooth


def test_diagonal_quotient_genus2():
    plan = plan_terminalization(quotient_spec((2, 2), [(1, 1)]), 2)
    assert [leaf.kind for leaf in plan.leaves] == [
        SINGULAR_LOCUS_BLOWUP,
        SINGULAR_LOCUS_BLOWUP,
    ]
    assert [step.kind for step in plan.steps] == [CENTRAL_QUOTIENT]
    assert plan.steps[0].copies == 4
    assert not plan.smooth


def test_abelian_plan_is_torus():
    plan = plan_terminalization(parse_group_spec("GL(1)"), 2)
    assert plan.leaves == ()
    assert [step.kind for step in plan.steps] == [TORUS_PRODUCT]
    assert plan.smooth


def test_genus3_never_blows_up():
    for name in ("SL(2)", "SL(3)", "SL(2)^2", "PGL(2)"):
        for genus in (3, 4):
            plan = plan_terminalization(parse_group_spec(name), genus)
            assert all(leaf.kind == IDENTITY for leaf in plan.leaves), (name, genus)
            assert not plan.smooth


def test_genus_validation():
    with pytest.raises(ValueError):
        plan_terminalization(parse_group_spec("SL(2)"), 0)


def test_render_plan_mentions_everything():
    text = render_plan(plan_terminalization(parse_group_spec("GL(2)"), 2))
    assert "factor 0 [SL(2)]: singular_locus_blowup" in text
    assert "torus_product" in text
    assert "etale_quotient" in text
    assert text.endswith("result: smooth")
    text = render_plan(plan_terminalization(parse_group_spec("SL(3)"), 2))
    assert text.endswith("result: Q-factorial terminal")


def test_plan_json_shape():
    blob = plan_terminalization(parse_group_spec("PGL(2)"), 2).to_json()
    assert set(blob) == {"genus", "group", "leaves", "steps", "smooth"}
    assert blob["smooth"] is False
    assert blob["leaves"][0]["kind"] == SINGULAR_LOCUS_BLOWUP


def test_smooth_iff_resolution_everywhere():
    """The planner and the classifier must agree on every small quotient."""
    for spec in small_group_catalog():
        for genus in (1, 2, 3):
            plan = plan_terminalization(spec, genus)
            verdict = classify_resolution(spec, genus)
            assert plan.smooth == verdict.has_resolution, (
                spec.factors,
                spec.central_generators,
                genus,
            )
