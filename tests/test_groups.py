"""Center arithmetic, parsing, and canonical decomposition."""

import itertools
from fractions import Fraction

import pytest

from charvar.groups import (
    Center,
    GroupSpec,
    GroupSpecError,
    SubgroupCapExceeded,
    canonical_decomposition,
    char_variety_dim,
    element_order,
    enumerate_central_subgroups,
    is_sl2_center_product,
    parse_group_spec,
    preset_group_spec,
)
from center_oracle import add
from conftest import mixed_denominator_specs, small_group_catalog


def quotient_spec(factors, generators):
    """(prod SL(n_i)) / <generators>, generators given as residue tuples."""
    center = Center(0, factors)
    gens = tuple(center.element([], ss) for ss in generators)
    return GroupSpec(0, tuple(factors), gens)


def test_parse_presets():
    sl2 = parse_group_spec("SL(2)")
    assert sl2.torus_rank == 0
    assert sl2.factors == (2,)
    assert sl2.central_generators == ()

    gl3 = parse_group_spec("GL(3)")
    assert gl3.torus_rank == 1
    assert gl3.factors == (3,)
    (g,) = gl3.central_generators
    assert g.torus_part == (Fraction(1, 3),)
    assert g.ss_part == (2,)
    assert gl3.full_center_subgroup().order == 3

    pgl2 = parse_group_spec("PGL(2)")
    (g,) = pgl2.central_generators
    assert g.torus_part == ()
    assert g.ss_part == (1,)
    assert pgl2.full_center_subgroup().order == 2

    prod = parse_group_spec("SL(2)xSL(3)")
    assert prod.factors == (2, 3)
    assert prod.central_generators == ()

    cube = parse_group_spec("SL(2)^3")
    assert cube.factors == (2, 2, 2)

    mixed = parse_group_spec("GL(2)xPGL(3)")
    assert mixed.torus_rank == 1
    assert mixed.factors == (2, 3)
    assert len(mixed.central_generators) == 2
    # generators live in disjoint slots
    assert mixed.central_generators[0].ss_part == (1, 0)
    assert mixed.central_generators[1].ss_part == (0, 1)


def test_parse_trivial_presets():
    # size-1 presets degenerate to abelian data with no SL factors
    assert parse_group_spec("SL(1)").factors == ()
    assert parse_group_spec("PGL(1)").factors == ()
    gl1 = parse_group_spec("GL(1)")
    assert gl1.torus_rank == 1 and gl1.factors == ()


def test_parse_json_roundtrip():
    spec = parse_group_spec(
        '{"torus_rank": 1, "factors": [2, 3],'
        ' "central_generators": [{"torus": ["1/2"], "factors": [1, 0]}]}'
    )
    assert spec.torus_rank == 1
    assert spec.factors == (2, 3)
    assert spec.central_generators[0].torus_part == (Fraction(1, 2),)
    again = parse_group_spec(spec.to_json())
    assert again == spec


def test_parse_errors():
    with pytest.raises(GroupSpecError):
        parse_group_spec("SO(3)")
    with pytest.raises(GroupSpecError):
        parse_group_spec('{"torus_rank": 1, "factors": [2], '
                         '"central_generators": [{"torus": ["1/0"], "factors": [0]}]}')
    with pytest.raises(GroupSpecError):
        parse_group_spec('{"torus_rank": 0, "factors": [2], '
                         '"central_generators": [{"torus": [], "factors": [2]}]}')
    with pytest.raises(GroupSpecError):
        parse_group_spec('{"torus_rank": 0, "factors": [1]}')
    with pytest.raises(GroupSpecError):
        Center(1, ()).element([0.5], [])
    with pytest.raises(GroupSpecError):
        # torus coordinates must lie in [0, 1)
        Center(1, ()).element(["3/2"], [])


def test_subgroup_cap():
    center = Center(1, ())
    gen = center.element([Fraction(1, 101)], [])
    with pytest.raises(SubgroupCapExceeded):
        center.closure([gen], cap=100)
    assert center.closure([gen], cap=101).order == 101


def test_closure_order_independent():
    center = Center(0, (4, 2))
    a = center.element([], [1, 0])
    b = center.element([], [0, 1])
    c = center.element([], [2, 1])
    subs = [center.closure(list(p)) for p in itertools.permutations([a, b, c])]
    assert all(s == subs[0] for s in subs)
    assert subs[0].order == 8


def test_closure_and_kernel_are_sorted():
    for spec in list(small_group_catalog()) + mixed_denominator_specs():
        decomp = canonical_decomposition(spec)
        for sub in (decomp.full_center, decomp.ss_kernel):
            assert sub.elements == tuple(sorted(sub.elements))


def test_element_order():
    center = Center(1, (2, 3))
    assert element_order(center.identity(), (2, 3)) == 1
    assert element_order(center.element([0], [1, 0]), (2, 3)) == 2
    assert element_order(center.element([Fraction(1, 3)], [0, 2]), (2, 3)) == 3
    assert element_order(center.element([Fraction(1, 2)], [1, 1]), (2, 3)) == 6
    # GL(3) central generator has order 3
    gl3 = parse_group_spec("GL(3)")
    assert element_order(gl3.central_generators[0], gl3.factors) == 3


def test_decomposition_gl_is_free():
    # the GL(n) center meets no SL factor kernel: ss_kernel trivial for all n
    for n in range(2, 7):
        dec = canonical_decomposition(parse_group_spec(f"GL({n})"))
        assert dec.full_center.order == n
        assert dec.ss_kernel.order == 1
        assert dec.etale_order == n
        assert dec.pgl2_indices == frozenset()
        assert dec.reduced_kernel_order == 1


def test_decomposition_pgl2():
    dec = canonical_decomposition(parse_group_spec("PGL(2)"))
    assert dec.ss_kernel.order == 2
    assert dec.etale_order == 1
    assert dec.pgl2_indices == frozenset({0})
    assert dec.reduced_kernel_order == 1
    assert dec.quotient_factor_labels() == (("PGL", 2),)


def test_decomposition_diagonal_quotient():
    # (SL(2) x SL(2)) / diagonal sign: kernel has order 2 but is not a
    # product of per-slot sign flips
    spec = quotient_spec([2, 2], [(1, 1)])
    dec = canonical_decomposition(spec)
    assert dec.ss_kernel.order == 2
    assert dec.pgl2_indices == frozenset()
    assert dec.reduced_kernel_order == 2
    assert is_sl2_center_product(dec.ss_kernel, spec.factors) is None


def test_decomposition_pgl2_square():
    spec = quotient_spec([2, 2], [(1, 0), (0, 1)])
    dec = canonical_decomposition(spec)
    assert dec.ss_kernel.order == 4
    assert dec.pgl2_indices == frozenset({0, 1})
    assert dec.reduced_kernel_order == 1
    assert is_sl2_center_product(dec.ss_kernel, spec.factors) == frozenset({0, 1})


def test_is_sl2_center_product_cases():
    # trivial kernel: success with empty slot set
    spec = quotient_spec([2, 3], [])
    dec = canonical_decomposition(spec)
    assert is_sl2_center_product(dec.ss_kernel, spec.factors) == frozenset()
    # kernel Z_3 in SL(3): no SL(2) slot available
    spec = quotient_spec([3], [(1,)])
    dec = canonical_decomposition(spec)
    assert is_sl2_center_product(dec.ss_kernel, spec.factors) is None
    # kernel Z_2 inside SL(4) (residue 2 mod 4): order 2 but no n=2 slot
    spec = quotient_spec([4], [(2,)])
    dec = canonical_decomposition(spec)
    assert is_sl2_center_product(dec.ss_kernel, spec.factors) is None


def test_decomposition_counting_invariants():
    # |ss_kernel| * |etale part| = |Z0| and |reduced| * 2^{#pgl2} = |ss_kernel|
    cases = [
        quotient_spec([2, 2], [(1, 1)]),
        quotient_spec([2, 2], [(1, 0), (0, 1)]),
        quotient_spec([2, 4], [(1, 2)]),
        quotient_spec([2, 4], [(1, 1)]),
        parse_group_spec("GL(4)"),
        parse_group_spec("GL(2)xPGL(2)"),
        parse_group_spec('{"torus_rank": 2, "factors": [2, 2], '
                         '"central_generators": [{"torus": ["1/2", "0"], "factors": [1, 0]},'
                         ' {"torus": ["0", "0"], "factors": [0, 1]}]}'),
    ]
    for spec in cases:
        dec = canonical_decomposition(spec)
        assert dec.ss_kernel.order * dec.etale_order == dec.full_center.order
        assert dec.reduced_kernel_order * 2 ** len(dec.pgl2_indices) == dec.ss_kernel.order
        for e in dec.ss_kernel:
            assert e.torus_trivial


def test_char_variety_dim_values():
    assert char_variety_dim(parse_group_spec("SL(2)"), 2) == 6
    assert char_variety_dim(parse_group_spec("SL(3)"), 2) == 16
    assert char_variety_dim(parse_group_spec("GL(2)"), 2) == 10
    assert char_variety_dim(parse_group_spec("SL(2)"), 1) == 2
    assert char_variety_dim(parse_group_spec("SL(2)xSL(3)"), 2) == 6 + 16
    with pytest.raises(GroupSpecError):
        char_variety_dim(parse_group_spec("SL(2)"), 0)


def test_gl_minus_sl_is_2g():
    for n in range(2, 6):
        for g in range(1, 5):
            gl = char_variety_dim(parse_group_spec(f"GL({n})"), g)
            sl = char_variety_dim(parse_group_spec(f"SL({n})"), g)
            assert gl - sl == 2 * g


def test_dim_independent_of_central_quotient():
    # the dimension formula only sees torus rank and factor sizes
    for g in (1, 2, 3):
        a = char_variety_dim(parse_group_spec("SL(2)^2"), g)
        b = char_variety_dim(quotient_spec([2, 2], [(1, 1)]), g)
        c = char_variety_dim(quotient_spec([2, 2], [(1, 0), (0, 1)]), g)
        assert a == b == c


def test_enumerate_central_subgroups():
    # Z_2 x Z_2 has five subgroups; Z_4 has three; Z_2 x Z_4 has eight
    assert len(enumerate_central_subgroups([2, 2])) == 5
    assert len(enumerate_central_subgroups([4])) == 3
    assert len(enumerate_central_subgroups([2, 4])) == 8
    # every returned object is closed under addition
    for sub in enumerate_central_subgroups([2, 4]):
        for a in sub:
            for b in sub:
                assert add((2, 4), a, b) in sub
