"""Stratification: enumeration, dimensions, codimensions, fiber bounds."""

from dataclasses import FrozenInstanceError

import pytest

from charvar.groups import char_variety_dim, parse_group_spec
from charvar.strata import (
    StratumInfo,
    WeightedPartition,
    _weighted_parts,
    enumerate_weighted_partitions,
    factor_strata_table,
    fiber_dim_bound,
    genus1_stratum_dim_gl,
    singular_codim_factor,
    strata_table,
    stratum_codim,
    stratum_dim_gl,
    stratum_dim_sl,
)

P = WeightedPartition.of


def count_by_generating_function(nmax):
    """Independent count of weighted partitions: prod_m (1-x^m)^{-d(m)}.

    A part (l, v) has weight lv = m, and there are d(m) = #divisors(m)
    part species of weight m; partitions are multisets of species.
    """
    coeffs = [1] + [0] * nmax
    for m in range(1, nmax + 1):
        species = sum(1 for t in range(1, m + 1) if m % t == 0)
        for _ in range(species):
            for i in range(m, nmax + 1):
                coeffs[i] += coeffs[i - m]
    return coeffs


def generator_weighted_parts(remaining, vmax, lmax):
    """The recursive generator walk that ``_weighted_parts`` replaced: one
    generator per call, each tail rebuilt for every head."""
    if remaining == 0:
        yield ()
        return
    for v in range(min(vmax, remaining), 0, -1):
        ltop = remaining // v
        if v == vmax:
            ltop = min(ltop, lmax)
        for l in range(ltop, 0, -1):
            for tail in generator_weighted_parts(remaining - l * v, v, l):
                yield ((l, v),) + tail


def test_memoized_walk_matches_generator_walk():
    for n in range(1, 15):
        for vmax in (1, n):  # the genus-one branch and the full walk
            want = list(generator_weighted_parts(n, vmax, n))
            assert _weighted_parts(n, vmax, n) == want, (n, vmax)


def test_enumeration_counts_against_oracle():
    oracle = count_by_generating_function(16)
    assert oracle[16] == 3186
    for n in range(1, 17):
        parts = enumerate_weighted_partitions(n)
        assert len(parts) == oracle[n]
        assert len(set(parts)) == len(parts)
        for nu in parts:
            assert nu.total == n


def test_enumeration_small_cases():
    assert [str(p) for p in enumerate_weighted_partitions(1)] == ["(1,1)"]
    assert [str(p) for p in enumerate_weighted_partitions(2)] == [
        "(1,2)",
        "(2,1)",
        "(1,1; 1,1)",
    ]
    assert len(enumerate_weighted_partitions(3)) == 5


def test_canonical_part_order():
    nu = P((1, 1), (2, 1), (1, 3))
    assert nu.parts == ((1, 3), (2, 1), (1, 1))
    # same multiset in any input order gives equal objects
    assert P((2, 1), (1, 3), (1, 1)) == nu
    with pytest.raises(ValueError):
        P((0, 1))


def test_enumerated_parts_are_already_canonical():
    # the enumeration wraps its part tuples without the constructor's sort,
    # so the public constructor must leave every one of them as it is
    for n in range(1, 13):
        for nu in enumerate_weighted_partitions(n):
            assert WeightedPartition(nu.parts).parts == nu.parts, nu
        for genus in (1, 2):
            for row in factor_strata_table(n, genus):
                assert WeightedPartition(row.nu.parts) == row.nu, row.nu


def test_stratum_dims():
    assert stratum_dim_gl(P((1, 2), (1, 1)), 2) == 14
    assert stratum_dim_gl(P((1, 1), (1, 1)), 2) == 8
    assert stratum_dim_gl(P((2, 1)), 1) == 2
    for n in range(1, 7):
        for g in range(2, 5):
            assert stratum_dim_gl(P((1, n)), g) == 2 * (1 + n * n * (g - 1))
    # SL dimension differs by 2g (torus fibration)
    for nu in enumerate_weighted_partitions(5):
        for g in (1, 2, 3):
            assert stratum_dim_gl(nu, g) - stratum_dim_sl(nu, g) == 2 * g


def test_stratum_codim_values():
    assert stratum_codim(P((1, 1), (1, 1)), 2) == 2
    assert stratum_codim(P((1, 2), (1, 1)), 2) == 6
    assert stratum_codim(P((2, 1)), 2) == 6
    for n in range(1, 8):
        for g in range(2, 5):
            assert stratum_codim(P((1, n)), g) == 0
    with pytest.raises(ValueError):
        stratum_codim(P((1, 2)), 2, n=3)


def double_sum_codim(nu, genus):
    """The codimension as the double sum
    2(g-1) sum_{i,j} (l_i l_j - delta_ij) v_i v_j - 2(k-1)."""
    mults = [m for m, _ in nu.parts]
    dims = [d for _, d in nu.parts]
    k = nu.k
    s = 0
    for i in range(k):
        for j in range(k):
            coeff = mults[i] * mults[j] - (1 if i == j else 0)
            s += coeff * dims[i] * dims[j]
    return 2 * (genus - 1) * s - 2 * (k - 1)


def test_collapsed_codim_matches_double_sum():
    for n in range(1, 13):
        for nu in enumerate_weighted_partitions(n):
            for g in range(1, 5):
                assert stratum_codim(nu, g) == double_sum_codim(nu, g), (nu, g)


def test_codim_identity_formula_vs_subtraction():
    # the codimension formula equals ambient dimension minus stratum dimension
    for n in range(1, 9):
        gl = parse_group_spec(f"GL({n})") if n >= 2 else parse_group_spec("GL(1)")
        for g in range(2, 5):
            ambient = char_variety_dim(gl, g)
            for nu in enumerate_weighted_partitions(n):
                assert stratum_codim(nu, g) == ambient - stratum_dim_gl(nu, g)


def test_exceptional_codim_lists():
    # scan: the only non-generic stratum of codim < 4 is (1,1;1,1) at (2,2);
    # excluding (n,g)=(2,2), codim < 8 happens exactly twice
    below4 = []
    below8 = []
    for n in range(2, 7):
        for g in range(2, 5):
            for nu in enumerate_weighted_partitions(n):
                if nu.is_generic:
                    continue
                c = stratum_codim(nu, g)
                if c < 4:
                    below4.append((n, g, str(nu)))
                if c < 8 and (n, g) != (2, 2):
                    below8.append((n, g, str(nu)))
    assert below4 == [(2, 2, "(1,1; 1,1)")]
    assert sorted(below8) == [(2, 3, "(1,1; 1,1)"), (3, 2, "(1,2; 1,1)")]


def test_codims_even_and_positive():
    for n in range(2, 7):
        for g in range(2, 5):
            for nu in enumerate_weighted_partitions(n):
                c = stratum_codim(nu, g)
                assert c % 2 == 0
                if nu.is_generic:
                    assert c == 0
                else:
                    assert c >= 2


def test_genus1_model():
    assert genus1_stratum_dim_gl(P((2, 1))) == 2
    assert genus1_stratum_dim_gl(P((1, 1), (1, 1))) == 4
    assert genus1_stratum_dim_gl(P((1, 2))) is None
    # populated genus-one strata carry the degenerate formula value 2k
    for n in range(1, 8):
        for nu in enumerate_weighted_partitions(n):
            model = genus1_stratum_dim_gl(nu)
            if nu.all_dims_one:
                assert model == stratum_dim_gl(nu, 1) == 2 * nu.k
            else:
                assert model is None


def test_singular_codim_factor():
    assert singular_codim_factor(1, 2) is None
    assert singular_codim_factor(2, 2) == 2
    assert singular_codim_factor(3, 2) == 6
    assert singular_codim_factor(2, 3) == 6
    assert singular_codim_factor(4, 2) == 10
    # genus one: merging two points always costs exactly 2
    for n in range(2, 9):
        assert singular_codim_factor(n, 1) == 2


def test_singular_codim_closed_form_is_the_minimum_stratum_codim():
    for n in range(2, 19):
        degenerate = [nu for nu in enumerate_weighted_partitions(n) if not nu.is_generic]
        for g in range(2, 6):
            expected = min(stratum_codim(nu, g) for nu in degenerate)
            assert singular_codim_factor(n, g) == expected == 4 * (g - 1) * (n - 1) - 2
            assert stratum_codim(P((1, n - 1), (1, 1)), g) == expected


def test_fiber_dim_bounds():
    # over the open stratum the fiber is a single closed orbit of PGL(n)
    for n in range(1, 7):
        for g in (2, 3):
            fiber, preimage = fiber_dim_bound(P((1, n)), g)
            assert fiber == n * n - 1
            assert preimage == n * n * g + n * n * (g - 1) + 1
    assert fiber_dim_bound(P((2, 1)), 2) == (6, 10)
    assert fiber_dim_bound(P((1, 1), (1, 1)), 3) == (6, 18)
    with pytest.raises(ValueError):
        fiber_dim_bound(P((1, 2)), 1)
    # preimage bound = fiber bound + stratum dimension, for every type
    for n in range(1, 9):
        for g in (2, 3):
            for nu in enumerate_weighted_partitions(n):
                fiber, preimage = fiber_dim_bound(nu, g)
                assert preimage == fiber + stratum_dim_gl(nu, g)


def test_factor_strata_table():
    rows = factor_strata_table(2, 2)
    assert len(rows) == 3
    open_rows = [r for r in rows if r.is_open]
    assert len(open_rows) == 1
    assert str(open_rows[0].nu) == "(1,2)"
    assert open_rows[0].codim == 0
    assert {r.codim for r in rows} == {0, 6, 2}

    # genus one keeps only populated types: partitions of n into multiplicities
    rows1 = factor_strata_table(3, 1)
    assert [str(r.nu) for r in rows1] == ["(3,1)", "(2,1; 1,1)", "(1,1; 1,1; 1,1)"]
    assert [r.dim_gl for r in rows1] == [2, 4, 6]
    assert [r.codim for r in rows1] == [4, 2, 0]
    assert [r.fiber_bounds for r in rows1] == [None, None, None]


def test_factor_table_rows_match_the_row_functions():
    for n in range(1, 11):
        for g in range(2, 5):
            rows = factor_strata_table(n, g)
            assert [row.nu for row in rows] == enumerate_weighted_partitions(n)
            for row in rows:
                assert row.dim_gl == stratum_dim_gl(row.nu, g)
                assert row.dim_sl == stratum_dim_sl(row.nu, g)
                assert row.codim == stratum_codim(row.nu, g)
                assert row.fiber_bounds == fiber_dim_bound(row.nu, g)
                assert row.is_open == (row.codim == 0)


def test_table_rows_equal_rows_of_the_public_constructor():
    for n in range(1, 9):
        for g in range(1, 4):
            for row in factor_strata_table(n, g):
                built = StratumInfo(
                    row.nu, row.dim_gl, row.dim_sl, row.codim, row.fiber_bounds, row.is_open
                )
                assert built == row and row == built
                assert hash(built) == hash(row) and repr(built) == repr(row)
                assert WeightedPartition(row.nu.parts) == row.nu
                assert hash(WeightedPartition(row.nu.parts)) == hash(row.nu)
    with pytest.raises(FrozenInstanceError):
        row.codim = 0
    with pytest.raises(FrozenInstanceError):
        row.nu.parts = ()


def test_genus1_walk_is_the_filtered_enumeration():
    for n in range(1, 21):
        rows = factor_strata_table(n, 1)
        populated = [nu for nu in enumerate_weighted_partitions(n) if nu.all_dims_one]
        assert [row.nu for row in rows] == populated
        for row in rows:
            assert row.dim_gl == genus1_stratum_dim_gl(row.nu) == 2 * row.nu.k
            assert row.codim == 2 * n - row.dim_gl


def test_strata_table_specs():
    table = strata_table(parse_group_spec("SL(2)"), 2)
    assert table.torus_dim == 0
    assert len(table.factor_tables) == 1
    assert table.to_json()["total_dim"] == 6

    # SL(1): a single smooth point, no factor tables
    point = strata_table(parse_group_spec("SL(1)"), 2)
    assert point.factor_tables == ()
    assert point.to_json()["total_dim"] == 0

    # GL and SL factors share codimensions
    gl = strata_table(parse_group_spec("GL(2)"), 2)
    sl = strata_table(parse_group_spec("SL(2)"), 2)
    assert [r.codim for r in gl.factor_tables[0][1]] == [
        r.codim for r in sl.factor_tables[0][1]
    ]
