"""The integer-coordinate center against the Fraction oracle, and closure counts."""

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import pytest

from center_oracle import coset_decomposition, fraction_closure, subgroup_walk
from charvar import cli
from charvar.groups import (
    Center,
    GroupSpec,
    SubgroupCapExceeded,
    canonical_decomposition,
    enumerate_central_subgroups,
    parse_group_spec,
)
from conftest import mixed_denominator_specs, small_group_catalog


def assert_matches_oracle(spec):
    full, kernel, etale, pgl2, reduced = coset_decomposition(spec)
    # a fresh instance, so nothing memoized by another test is reused
    decomp = canonical_decomposition(
        GroupSpec(spec.torus_rank, spec.factors, spec.central_generators)
    )
    assert decomp.full_center.elements == full.elements
    assert decomp.ss_kernel.elements == kernel.elements
    # the library keeps only the orders of the two quotients the oracle lists
    assert decomp.etale_order == len(etale)
    assert decomp.pgl2_indices == pgl2
    assert decomp.reduced_kernel_order == len(reduced)


def test_decomposition_matches_oracle_on_catalog():
    for spec in small_group_catalog():
        assert_matches_oracle(spec)


def test_decomposition_matches_oracle_on_mixed_denominators():
    specs = mixed_denominator_specs()
    assert {c.denominator for s in specs for g in s.central_generators for c in g.torus_part} >= {
        2, 3, 4, 5, 6,
    }
    for spec in specs:
        assert_matches_oracle(spec)


def test_lattice_matches_oracle_on_wider_moduli():
    # moduli up to 12 and angle denominators up to 12: pivots that need
    # several gcd steps; membership is checked on members and non-members
    rnd = random.Random(3)
    checked = 0
    while checked < 60:
        h = rnd.randint(0, 2)
        factors = tuple(rnd.randint(2, 12) for _ in range(rnd.randint(1, 3)))
        center = Center(h, factors)
        gens = [
            center.element(
                [Fraction(rnd.randrange(d), d) for d in (rnd.randint(1, 12) for _ in range(h))],
                [rnd.randrange(n) for n in factors],
            )
            for _ in range(rnd.randint(1, 4))
        ]
        denom = math.lcm(*(c.denominator for g in gens for c in g.torus_part))
        if denom**h * math.prod(factors) > 3000:
            continue  # keep the oracle's ambient group small
        want = fraction_closure(center, gens)
        got = center.closure(gens)
        assert got.order == want.order and got.elements == want.elements
        members = set(want)
        probes = list(want)[:20] + [
            center.element(
                [Fraction(rnd.randrange(d), d) for d in (rnd.randint(1, 24) for _ in range(h))],
                [rnd.randrange(n) for n in factors],
            )
            for _ in range(40)
        ]
        for x in probes:
            assert (x in got) == (x in members), (factors, gens, x)
        assert_matches_oracle(GroupSpec(h, factors, tuple(gens)))
        checked += 1


def test_closure_matches_oracle_in_every_generator_order():
    center = Center(2, (2, 4))
    gens = [
        center.element(["1/2", "1/3"], [1, 0]),
        center.element(["0", "3/4"], [0, 2]),
        center.element(["1/6", "0"], [1, 1]),
    ]
    want = fraction_closure(center, gens)
    for order in (gens, gens[::-1], gens[1:] + gens[:1]):
        got = center.closure(order)
        assert got.elements == want.elements
        assert [str(c) for e in got for c in e.torus_part] == [
            str(c) for e in want for c in e.torus_part
        ]


def test_enumerator_matches_the_frozenset_walk_on_catalog_factors():
    factor_tuples = sorted({spec.factors for spec in small_group_catalog()})
    assert len(factor_tuples) == 34
    for factors in factor_tuples:
        got = [sub.elements for sub in enumerate_central_subgroups(factors)]
        assert got == [sub.elements for sub in subgroup_walk(factors)], factors


@pytest.mark.parametrize("n", range(1, 31))
def test_cyclic_group_has_one_subgroup_per_divisor(n):
    divisors = sum(n % d == 0 for d in range(1, n + 1))
    assert len(enumerate_central_subgroups((n,))) == divisors


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_elementary_abelian_square_has_p_plus_3_subgroups(p):
    # the trivial group, the p + 1 lines, and the whole group
    assert len(enumerate_central_subgroups((p, p))) == p + 3


def test_closure_raises_at_cap_plus_one():
    center = Center(1, (2, 2))
    gens = [center.element(["1/3"], [1, 0]), center.element(["0"], [0, 1])]
    assert center.closure(gens).order == 12
    for closure in (center.closure, lambda g, cap: fraction_closure(center, g, cap)):
        with pytest.raises(SubgroupCapExceeded):
            closure(gens, cap=11)
        assert closure(gens, cap=12).order == 12


def test_cap_still_enforced_after_memoized_closure():
    spec = parse_group_spec("PGL(2)^4")  # parsing echelonizes Z0 once, default cap
    assert spec.full_center_subgroup().order == 16
    with pytest.raises(SubgroupCapExceeded):
        spec.full_center_subgroup(15)
    with pytest.raises(SubgroupCapExceeded):
        canonical_decomposition(spec, cap=15)
    assert spec.full_center_subgroup(16).order == 16
    with pytest.raises(SubgroupCapExceeded):
        parse_group_spec("PGL(2)^4", cap=15)


def test_failed_cap_check_memoizes_nothing():
    spec = GroupSpec(0, (2, 2), parse_group_spec("PGL(2)^2").central_generators)
    with pytest.raises(SubgroupCapExceeded):
        spec.full_center_subgroup(3)
    assert spec.full_center_subgroup(4).order == 4


TORUS_SPEC = json.dumps(
    {
        "torus_rank": 2,
        "factors": [2, 2],
        "central_generators": [
            {"torus": ["1/2", "0"], "factors": [1, 0]},
            {"torus": ["0", "1/2"], "factors": [0, 1]},
            {"torus": ["0", "0"], "factors": [1, 1]},
        ],
    }
)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--genus", "2"],
        ["analyze", "--genus", "1"],
        ["classify", "--genus", "1"],
        ["classify", "--genus", "2"],
        ["fixed-loci", "--genus", "1", "--oracle"],
        ["fixed-loci", "--genus", "2"],
        ["terminalize", "--genus", "1"],
    ],
)
@pytest.mark.parametrize("group", ["GL(3)", "PGL(2)^3", TORUS_SPEC])
def test_one_closure_per_query(monkeypatch, argv, group):
    calls = []
    original = Center.closure

    def counted(self, *args, **kwargs):
        calls.append(self.factors)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Center, "closure", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--group", group, "--json"]) == 0
    assert len(calls) == 1
