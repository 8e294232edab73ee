"""Fixed-locus codimensions: closed forms against brute-force oracles."""

import itertools
import random
from math import gcd, lcm

import pytest

from charvar import fixed_loci
from charvar.fixed_loci import (
    TwistRows,
    _compositions,
    _fixed_codim,
    _reaches_unit_gcd,
    codim_genus1_from_orders,
    codim_highgenus_from_orders,
    fixed_codim_genus1,
    fixed_codim_highgenus,
    fixed_tangent_oracle,
    genus1_orbit_oracle,
    min_nonfree_codim,
    per_factor_orders,
    twist_rows,
)
from charvar.groups import Center, GroupSpec, canonical_decomposition, parse_group_spec
from conftest import mixed_denominator_specs, small_group_catalog


def quotient_spec(factors, generators):
    center = Center(0, factors)
    gens = tuple(center.element([], ss) for ss in generators)
    return GroupSpec(0, tuple(factors), gens)


def tuple_orders(sigma, factors):
    """Per-factor orders of a tuple of twists: the lcm over its components."""
    orders = [per_factor_orders(e, factors) for e in sigma]
    return tuple(lcm(*(o[i] for o in orders)) for i in range(len(factors)))


def test_per_factor_orders():
    center = Center(0, (2, 4))
    tau = center.element([], [1, 2])
    assert per_factor_orders(tau, (2, 4)) == (2, 2)
    sigma = (center.element([], [1, 0]), center.element([], [0, 1]))
    assert tuple_orders(sigma, (2, 4)) == (2, 4)
    assert tuple_orders((), (2, 4)) == (1, 1)


def test_highgenus_closed_form_values():
    # -I in SL(2) at genus two costs 4; an order-3 twist in SL(3) costs 12
    center2 = Center(0, (2,))
    r = fixed_codim_highgenus(center2.element([], [1]), (2,), 2)
    assert r.codim == 4
    center3 = Center(0, (3,))
    r = fixed_codim_highgenus(center3.element([], [1]), (3,), 2)
    assert r.codim == 12
    # trivial twist fixes everything
    r = fixed_codim_highgenus(center2.identity(), (2,), 2)
    assert r.codim == 0 and not r.is_empty
    # nontrivial torus coordinate: empty locus, not codim 0
    torus_center = Center(1, (2,))
    r = fixed_codim_highgenus(torus_center.element(["1/2"], [0]), (2,), 2)
    assert r.is_empty


def test_genus1_closed_form_values():
    center = Center(0, (2,))
    assert fixed_codim_genus1(center.element([], [1]), (2,)).codim == 2
    assert fixed_codim_genus1(center.identity(), (2,)).codim == 0
    center34 = Center(0, (3, 4))
    tau = center34.element([], [1, 2])
    # orders (3, 2): 2*3*(2/3) + 2*4*(1/2) = 4 + 4
    assert fixed_codim_genus1(tau, (3, 4)).codim == 8


def test_genus1_orbit_oracle_examples():
    assert genus1_orbit_oracle(2, (1, 0)) == 0
    assert genus1_orbit_oracle(2, (0, 0)) == 2
    assert genus1_orbit_oracle(4, (2, 0)) == 2
    assert genus1_orbit_oracle(6, (2, 3)) == 0  # order lcm(3, 2) = 6


def test_genus1_closed_form_equals_oracle():
    # acceptance runs n <= 8; keep a quick version here
    for n in range(1, 7):
        ambient = 2 * (n - 1)
        for a in range(n):
            for b in range(n):
                ell = lcm(n // gcd(a, n), n // gcd(b, n))
                dim = genus1_orbit_oracle(n, (a, b))
                assert dim is not None
                assert ambient - dim == codim_genus1_from_orders((n,), (ell,))


def test_tangent_oracle_values():
    assert fixed_tangent_oracle(2, 2, 2) == 4
    assert fixed_tangent_oracle(4, 2, 2) == 16
    assert fixed_tangent_oracle(2, 1, 2) == 0
    assert fixed_tangent_oracle(3, 2, 2) is None  # 2 does not divide 3
    with pytest.raises(ValueError):
        fixed_tangent_oracle(2, 2, 1)


def test_tangent_oracle_equals_closed_form():
    # acceptance runs n <= 6 and g in {2,3}; spot-check a subgrid here
    for n in range(1, 5):
        for ell in range(1, n + 1):
            if n % ell:
                continue
            for g in (2, 3):
                oracle = fixed_tangent_oracle(n, ell, g)
                closed = codim_highgenus_from_orders((n,), (ell,), g)
                assert oracle == closed


def recursive_compositions(total, parts):
    """The head-first recursive walk the stars-and-bars walk replaced."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in recursive_compositions(total - head, parts - 1):
            yield (head,) + tail


def recursive_tangent_oracle(n, ell, genus):
    """fixed_tangent_oracle as first written: the recursive walk and one gcd
    search per composition."""
    best = None
    for m in recursive_compositions(n, ell):
        shifts = [k for k in range(ell) if m[k:] + m[:k] == m]
        if not any(
            gcd(*combo, ell) == 1 for combo in itertools.product(shifts, repeat=2 * genus)
        ):
            continue
        value = sum(x * x for x in m)
        if best is None or value > best:
            best = value
    return None if best is None else 2 * (genus - 1) * (n * n - best)


def test_stars_and_bars_walk_matches_recursive_walk():
    for total in range(0, 7):
        for parts in range(1, 6):
            got = list(_compositions(total, parts))
            assert len(got) == len(set(got)), (total, parts)
            assert sorted(got) == sorted(recursive_compositions(total, parts)), (total, parts)


def test_tangent_oracle_matches_recursive_walk():
    cases = [(n, ell, g) for n in range(1, 9) for ell in range(1, 9) for g in (2, 3)]
    cases += [(n, ell, 4) for n in range(1, 7) for ell in range(1, 7)]
    for n, ell, g in cases:
        want = recursive_tangent_oracle(n, ell, g)
        assert fixed_tangent_oracle(n, ell, g) == want, (n, ell, g)


def test_gcd_search_matches_tuple_walk():
    # subgroups, and random shift sets holding 0 that need several steps
    # (30 over {0, 6, 10, 15} reaches gcd 1 only with three shifts)
    rnd = random.Random(5)
    sets = [(30, (0, 6, 10, 15))]
    for m in range(1, 13):
        sets += [(m, tuple(range(0, m, d))) for d in range(1, m + 1) if m % d == 0]
    for m in rnd.choices(range(4, 31), k=40):
        sets.append((m, (0, *rnd.sample(range(1, m), rnd.randint(1, 3)))))
    for modulus, shifts in sets:
        for length in range(1, 5):
            want = any(
                gcd(*combo, modulus) == 1 for combo in itertools.product(shifts, repeat=length)
            )
            assert _reaches_unit_gcd(shifts, modulus, length) == want, (modulus, shifts, length)


def test_tangent_oracle_walks_few_compositions(monkeypatch):
    # a walk over every composition of 12 into 12 parts visits C(23, 11) = 1352078
    visited = []
    real = fixed_loci._compositions

    def counted(total, parts):
        for m in real(total, parts):
            visited.append(m)
            yield m

    monkeypatch.setattr(fixed_loci, "_compositions", counted)
    assert fixed_tangent_oracle(12, 12, 2) == codim_highgenus_from_orders((12,), (12,), 2)
    assert 0 < len(visited) < 100


def test_tangent_oracle_searches_every_subgroup(monkeypatch):
    # each d | l is decided by the gcd search, none by a shortcut
    searched = []
    real = fixed_loci._reaches_unit_gcd

    def recorded(shifts, modulus, length):
        searched.append((tuple(shifts), modulus, length))
        return real(shifts, modulus, length)

    monkeypatch.setattr(fixed_loci, "_reaches_unit_gcd", recorded)
    fixed_tangent_oracle(12, 12, 3)
    assert searched == [(tuple(range(0, 12, d)), 12, 6) for d in (1, 2, 3, 4, 6, 12)]


def test_min_nonfree_examples():
    # PGL(2): the only twist is -I
    dec = canonical_decomposition(parse_group_spec("PGL(2)"))
    codim, tau = min_nonfree_codim(dec, 3)
    assert codim == 8  # 4(g-1) at g = 3
    assert tau.ss_part == (1,)
    assert min_nonfree_codim(dec, 1)[0] == 2
    assert min_nonfree_codim(dec, 2)[0] == 4

    # trivial kernel: nothing to check
    dec = canonical_decomposition(parse_group_spec("SL(2)"))
    assert min_nonfree_codim(dec, 2) is None
    dec = canonical_decomposition(parse_group_spec("GL(3)"))
    assert min_nonfree_codim(dec, 2) is None

    # diagonal sign in SL(2)^2: twist hits both factors, codim 4 + 4
    dec = canonical_decomposition(quotient_spec([2, 2], [(1, 1)]))
    assert min_nonfree_codim(dec, 2)[0] == 8


def brute_force_min_twist(decomp, genus):
    """Least (codim, twist) pair over nontrivial kernel twists, by tuple compare."""
    factors = decomp.factors
    best = None
    for tau in decomp.ss_kernel:
        if tau.is_identity:
            continue
        orders = per_factor_orders(tau, factors)
        if genus == 1:
            codim = codim_genus1_from_orders(factors, orders)
        else:
            codim = codim_highgenus_from_orders(factors, orders, genus)
        if best is None or (codim, tau) < best:
            best = (codim, tau)
    return best


def test_min_nonfree_matches_brute_force_witness():
    specs = list(small_group_catalog()) + mixed_denominator_specs()
    nonfree = 0
    for spec in specs:
        dec = canonical_decomposition(spec)
        for g in (1, 2, 3):
            want = brute_force_min_twist(dec, g)
            assert min_nonfree_codim(dec, g) == want, (spec, g)
            nonfree += want is not None
    assert nonfree > len(specs)  # more than a third of the kernels are nontrivial


def test_twist_rows_match_the_per_element_path():
    # the one-pass rows against a FixedLocusResult per element, and the
    # pass's minimum against the kernel scan of min_nonfree_codim
    specs = list(small_group_catalog()) + mixed_denominator_specs()
    free = 0
    for spec in specs:
        dec = canonical_decomposition(spec)
        for g in (1, 2, 3):
            rows, best = twist_rows(dec, g)
            assert type(rows) is TwistRows
            assert best == min_nonfree_codim(dec, g), (spec, g)
            want = [
                {"element": tau.to_json(), **_fixed_codim(tau, spec.factors, g).to_json()}
                for tau in dec.full_center
                if not tau.is_identity
            ]
            assert rows == want, (spec, g)
            free += sum(row["empty"] for row in rows)
    assert free > 0  # the torus specs give rows whose locus is empty


def test_min_nonfree_lower_bound_and_equality():
    # codim >= 4(g-1), equal iff exactly one factor carries an order-2 twist
    # of an SL(2) slot and the rest are untouched
    specs = [
        quotient_spec([2], [(1,)]),
        quotient_spec([2, 2], [(1, 0)]),
        quotient_spec([2, 2], [(1, 1)]),
        quotient_spec([2, 2], [(1, 0), (0, 1)]),
        quotient_spec([2, 3], [(1, 0)]),
        quotient_spec([3], [(1,)]),
        quotient_spec([4], [(1,)]),
        quotient_spec([4], [(2,)]),
        quotient_spec([2, 4], [(1, 2)]),
    ]
    for spec in specs:
        dec = canonical_decomposition(spec)
        for g in (2, 3):
            codim, _ = min_nonfree_codim(dec, g)
            assert codim >= 4 * (g - 1)
    for spec, expect_equal in [
        (quotient_spec([2], [(1,)]), True),
        (quotient_spec([2, 2], [(1, 0)]), True),
        (quotient_spec([2, 2], [(1, 1)]), False),
        (quotient_spec([2, 2], [(1, 0), (0, 1)]), True),
        (quotient_spec([3], [(1,)]), False),
        (quotient_spec([4], [(2,)]), False),
    ]:
        dec = canonical_decomposition(spec)
        for g in (2, 3):
            codim, tau = min_nonfree_codim(dec, g)
            if expect_equal:
                assert codim == 4 * (g - 1)
                orders = per_factor_orders(tau, spec.factors)
                hit = [(n, l) for n, l in zip(spec.factors, orders) if l > 1]
                assert hit == [(2, 2)]
            else:
                assert codim > 4 * (g - 1)


def test_genus1_codim_two_iff_single_sl2_sign():
    # at genus one the minimum is 2 exactly when some kernel element is the
    # sign flip of a single SL(2) slot
    cases = [
        (quotient_spec([2], [(1,)]), 2),
        (quotient_spec([2, 2], [(1, 0)]), 2),
        (quotient_spec([2, 2], [(1, 0), (0, 1)]), 2),
        (quotient_spec([2, 2], [(1, 1)]), 4),
        (quotient_spec([3], [(1,)]), 4),
        (quotient_spec([4], [(1,)]), 4),  # order-4 twist: 2*4*(3/4) = 6, order-2: 4
        # closure of (1,1) in Z2 x Z3 contains the bare sign flip (1,0)
        (quotient_spec([2, 3], [(1, 1)]), 2),
        # closure of (1,1) in Z2 x Z4 does not: cheapest twist is (0,2)
        (quotient_spec([2, 4], [(1, 1)]), 4),
    ]
    for spec, expected in cases:
        dec = canonical_decomposition(spec)
        codim, _ = min_nonfree_codim(dec, 1)
        assert codim == expected, str(spec.factors)


def test_tuple_twists_reduce_to_single_elements():
    # the minimum over tuples of kernel elements (one per surface generator)
    # coincides with the single-element minimum; exhaustive for small kernels
    specs = [
        quotient_spec([2, 2], [(1, 0), (0, 1)]),
        quotient_spec([2, 4], [(1, 0), (0, 1)]),
        quotient_spec([4], [(1,)]),
    ]
    for spec in specs:
        dec = canonical_decomposition(spec)
        kernel = list(dec.ss_kernel)
        assert len(kernel) <= 16
        for g, tuple_len in ((1, 2), (2, 4)):
            single, _ = min_nonfree_codim(dec, g)
            best_tuple = None
            for sigma in itertools.product(kernel, repeat=tuple_len):
                if all(e.is_identity for e in sigma):
                    continue
                orders = tuple_orders(sigma, spec.factors)
                if g == 1:
                    c = codim_genus1_from_orders(spec.factors, orders)
                else:
                    c = codim_highgenus_from_orders(spec.factors, orders, g)
                if best_tuple is None or c < best_tuple:
                    best_tuple = c
            assert best_tuple == single
