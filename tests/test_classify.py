"""Resolution classification: frozen verdicts plus an independent recheck."""

import pytest

from charvar.classify import (
    GENUS1_CASE,
    NO_RESOLUTION_KIND,
    RESOLUTION_KIND,
    SMOOTH_KIND,
    classify_resolution,
    properties_report,
    singular_locus_codim,
)
from charvar.fixed_loci import min_nonfree_codim
from charvar.groups import (
    Center,
    GroupSpec,
    canonical_decomposition,
    is_sl2_center_product,
    parse_group_spec,
)
from charvar.strata import singular_codim_factor
from conftest import mixed_denominator_specs, small_group_catalog


def quotient_spec(factors, generators):
    center = Center(0, tuple(factors))
    gens = tuple(center.element((), g) for g in generators)
    return GroupSpec(torus_rank=0, factors=tuple(factors), central_generators=gens)


# ---------------------------------------------------------------- verdicts


def test_frozen_verdicts():
    expected = [
        ("SL(2)", 1, RESOLUTION_KIND),
        ("SL(2)", 2, RESOLUTION_KIND),
        ("SL(2)", 3, NO_RESOLUTION_KIND),
        ("SL(3)", 1, RESOLUTION_KIND),
        ("SL(3)", 2, NO_RESOLUTION_KIND),
        ("SL(5)", 1, RESOLUTION_KIND),
        ("SL(5)", 2, NO_RESOLUTION_KIND),
        ("PGL(2)", 1, RESOLUTION_KIND),
        ("PGL(2)", 2, NO_RESOLUTION_KIND),
        ("PGL(3)", 1, NO_RESOLUTION_KIND),
        ("SL(2)xSL(3)", 1, RESOLUTION_KIND),
        ("SL(2)xSL(3)", 2, NO_RESOLUTION_KIND),
        ("SL(2)^2", 2, RESOLUTION_KIND),
        ("SL(2)^3", 2, RESOLUTION_KIND),
        ("SL(2)^2", 3, NO_RESOLUTION_KIND),
        ("GL(1)", 2, SMOOTH_KIND),
        ("GL(1)^3", 1, SMOOTH_KIND),
    ]
    for name, genus, kind in expected:
        verdict = classify_resolution(parse_group_spec(name), genus)
        assert verdict.kind == kind, (name, genus, verdict.kind)


def test_gl_mirrors_sl():
    # the extra torus and the etale center part never change the answer
    for n in range(2, 5):
        for genus in range(1, 4):
            sl = classify_resolution(parse_group_spec(f"SL({n})"), genus)
            gl = classify_resolution(parse_group_spec(f"GL({n})"), genus)
            assert gl.kind == sl.kind, (n, genus)
            assert gl.case == sl.case, (n, genus)


def test_diagonal_quotient_never_resolves():
    spec = quotient_spec((2, 2), [(1, 1)])
    for genus in (1, 2, 3):
        assert classify_resolution(spec, genus).kind == NO_RESOLUTION_KIND


def test_high_genus_nonabelian_never_resolves():
    for name in ("SL(2)", "SL(3)", "PGL(2)", "GL(4)", "SL(2)^2"):
        spec = parse_group_spec(name)
        for genus in (3, 4, 5):
            assert not classify_resolution(spec, genus).has_resolution


def test_certificate_arguments():
    # codim 2 cases argue through the local cones of the terminalization,
    # codim >= 4 cases are terminal outright
    v = classify_resolution(parse_group_spec("PGL(2)"), 2)
    assert v.certificate["argument"] == "terminal-local-cones"
    assert v.certificate["singular_codim"] == 2
    v = classify_resolution(parse_group_spec("SL(3)"), 2)
    assert v.certificate["argument"] == "terminal-by-codimension"
    assert v.certificate["singular_codim"] == 6
    v = classify_resolution(parse_group_spec("SL(2)"), 3)
    assert v.certificate["argument"] == "terminal-by-codimension"
    assert v.certificate["singular_codim"] == 6


# ------------------------------------------------------- singular locus


def test_singular_codim_values():
    cases = [
        ("SL(2)", 2, 2),
        ("SL(2)", 3, 6),
        ("SL(2)", 4, 10),
        ("SL(3)", 2, 6),
        ("SL(4)", 2, 10),
        ("PGL(2)", 1, 2),
        ("PGL(2)", 2, 2),
        ("PGL(2)", 3, 6),
        ("SL(3)", 1, 2),
        ("GL(1)", 2, None),
    ]
    for name, genus, codim in cases:
        assert singular_locus_codim(parse_group_spec(name), genus) == codim, name


def test_singular_codim_min_over_factors():
    spec = parse_group_spec("SL(2)xSL(3)")
    assert singular_locus_codim(spec, 2) == 2
    spec = parse_group_spec("SL(3)xSL(4)")
    assert singular_locus_codim(spec, 2) == 6


def test_terminal_iff_no_small_sl2_stratum():
    # strata singularities always beat central-twist singularities, so
    # terminality only depends on the factor sizes and the genus
    for spec in small_group_catalog(values=(2, 3, 4), max_size=2):
        for genus in (1, 2, 3):
            codim = singular_locus_codim(spec, genus)
            expect = genus >= 3 or (genus == 2 and 2 not in spec.factors)
            assert (codim >= 4) == expect, (spec.factors, genus, codim)


# ------------------------------------------------------------ properties


def test_property_flags_sl2_genus2():
    flags = properties_report(parse_group_spec("SL(2)"), 2)
    assert flags.singular and flags.singular_codim == 2
    assert flags.symplectic_singularities and flags.q_factorial
    assert flags.locally_factorial is False
    assert flags.terminal is False


def test_property_flags_sl3_genus2():
    flags = properties_report(parse_group_spec("SL(3)"), 2)
    assert flags.singular and flags.singular_codim == 6
    assert flags.locally_factorial is True
    assert flags.terminal is True


def test_property_flags_gl():
    assert properties_report(parse_group_spec("GL(2)"), 2).locally_factorial is False
    assert properties_report(parse_group_spec("GL(3)"), 2).locally_factorial is True


def test_property_flags_unknown_and_smooth():
    assert properties_report(parse_group_spec("PGL(2)"), 2).locally_factorial is None
    assert properties_report(parse_group_spec("SL(2)"), 1).locally_factorial is None
    flags = properties_report(parse_group_spec("GL(1)"), 2)
    assert not flags.singular
    assert flags.singular_codim is None
    assert flags.locally_factorial is True
    assert flags.terminal is True


def test_flags_json_marks_unknown():
    report = properties_report(parse_group_spec("PGL(2)"), 2).to_json()
    assert report["locally_factorial"] == "unknown"


# ------------------------------------------------- structural invariance


def _with_extra_torus(spec: GroupSpec) -> GroupSpec:
    """Same semisimple data, two more torus coordinates, one torus 2-torsion
    generator.  The verdict must not notice."""
    from fractions import Fraction

    rank = spec.torus_rank + 2
    center = Center(rank, spec.factors)
    pad = (Fraction(0), Fraction(0))
    gens = [
        center.element(tuple(g.torus_part) + pad, g.ss_part)
        for g in spec.central_generators
    ]
    gens.append(
        center.element(
            (Fraction(0),) * spec.torus_rank + (Fraction(1, 2), Fraction(0)),
            (0,) * len(spec.factors),
        )
    )
    return GroupSpec(
        torus_rank=rank, factors=spec.factors, central_generators=tuple(gens)
    )


def test_torus_mutation_keeps_verdict():
    bases = [
        parse_group_spec("SL(2)"),
        parse_group_spec("SL(3)"),
        parse_group_spec("PGL(2)"),
        parse_group_spec("GL(2)"),
        quotient_spec((2, 2), [(1, 1)]),
        quotient_spec((2, 4), [(1, 2)]),
    ]
    for spec in bases:
        mutated = _with_extra_torus(spec)
        for genus in (1, 2, 3):
            a = classify_resolution(spec, genus)
            b = classify_resolution(mutated, genus)
            assert a.kind == b.kind, (spec.factors, genus)
            assert a.case == b.case, (spec.factors, genus)


def test_verdict_carries_the_property_flags():
    abelian = [
        parse_group_spec("GL(1)"),
        parse_group_spec("GL(1)^3"),
        parse_group_spec('{"torus_rank": 2, "central_generators": [{"torus": ["1/2", "1/3"]}]}'),
    ]
    for spec in list(small_group_catalog()) + abelian:
        for genus in (1, 2, 3):
            verdict = classify_resolution(spec, genus)
            assert verdict.flags == properties_report(spec, genus), (spec, genus)
            assert "flags" not in verdict.to_json()
    for spec in (parse_group_spec("SL(2)"), abelian[0]):
        with pytest.raises(ValueError, match="genus must be >= 1"):
            classify_resolution(spec, 0)


# ------------------------------------------- independent reimplementation


def independent_has_resolution(spec: GroupSpec, genus: int) -> bool:
    """Direct restatement of the two positive cases, no shared code paths."""
    if not spec.factors:
        return True
    decomp = canonical_decomposition(spec)
    kernel = decomp.ss_kernel
    if genus == 1:
        center = spec.center()
        sl2_signs = [
            i
            for i, n in enumerate(spec.factors)
            if n == 2 and center.sl_center_generator(i) in kernel
        ]
        return kernel.order == 2 ** len(sl2_signs)
    if genus == 2:
        return all(n == 2 for n in spec.factors) and kernel.order == 1
    return False


def test_against_independent_reimplementation():
    catalog = small_group_catalog()
    for spec in catalog:
        for genus in (1, 2, 3):
            got = classify_resolution(spec, genus).has_resolution
            want = independent_has_resolution(spec, genus)
            assert got == want, (spec.factors, spec.central_generators, genus)


def test_genus1_verdict_agrees_with_kernel_scan():
    # classify reads the decomposition; is_sl2_center_product tests each sign flip
    specs = list(small_group_catalog()) + mixed_denominator_specs()
    assert len(specs) == 623 + 150
    for spec in specs:
        if not spec.factors:
            continue
        slots = is_sl2_center_product(canonical_decomposition(spec).ss_kernel, spec.factors)
        verdict = classify_resolution(spec, 1)
        assert (verdict.case == GENUS1_CASE) == (slots is not None), (
            spec.factors,
            spec.central_generators,
        )
        if slots is not None:
            assert slots == canonical_decomposition(spec).pgl2_indices


def test_catalog_is_substantial():
    # guard against the enumeration silently collapsing
    assert len(small_group_catalog()) > 300


# ------------------------------------- closed-form singular codimension


def kernel_scan_singular_codim(spec, genus):
    """The former definition: the factor minimum against a scan of every
    nontrivial kernel twist."""
    if not spec.nonabelian:
        return None
    best = min(singular_codim_factor(n, genus) for n in spec.factors)
    nonfree = min_nonfree_codim(canonical_decomposition(spec), genus)
    return best if nonfree is None else min(best, nonfree[0])


def test_singular_codim_matches_kernel_scan():
    specs = list(small_group_catalog()) + mixed_denominator_specs()
    assert len(specs) == 623 + 150
    twisted = 0
    for spec in specs:
        for genus in (1, 2, 3):
            got = singular_locus_codim(spec, genus)
            assert got == kernel_scan_singular_codim(spec, genus), (spec, genus)
            nonfree = spec.nonabelian and min_nonfree_codim(canonical_decomposition(spec), genus)
            if nonfree:
                twisted += 1
                # the inequality of the docstring: strict above genus one
                assert nonfree[0] > got if genus >= 2 else nonfree[0] >= got
    assert twisted > 1000
