"""Numerics: Jacobians against finite differences, frozen cohomology values."""

import numpy as np
import pytest

import charvar.numerics as numerics
from charvar.fixed_loci import codim_highgenus_from_orders, fixed_tangent_oracle
from charvar.numerics import (
    CohomologyReport,
    ConvergenceError,
    SurfaceRep,
    _KroneckerJacobian,
    _WidelyLinearJacobian,
    _gauss_newton_step,
    _kron,
    _moment_system,
    _relator_system,
    adjoint_matrix,
    centralizer_dim,
    clock_matrix,
    coboundary_matrix,
    cocycle_matrix,
    cohomology_dims,
    commutator,
    fixed_point_tangent_check,
    lie_basis,
    moment_map,
    moment_residual,
    mpa_to_surface,
    newton_refine_rep,
    perturb_rep,
    refine_moment_map_point,
    relator_eval,
    sample_diagonal_rep,
    sample_moment_start,
    sample_random_rep,
    shift_matrix,
    surface_relator_word,
)


def identity_rep(n: int, genus: int, mode: str = "sl") -> SurfaceRep:
    eye = np.eye(n, dtype=complex)
    mats = tuple(eye.copy() for _ in range(genus))
    return SurfaceRep(genus=genus, n=n, A=mats, B=mats, det_mode=mode)


# ------------------------------------------------------------------ basis


def test_lie_basis_orthonormal():
    for n in (2, 3, 4):
        for mode, d in (("sl", n * n - 1), ("gl", n * n)):
            basis = lie_basis(n, mode)
            assert basis.shape == (d, n, n)
            gram = np.einsum("jba,kab->jk", basis.conj().transpose(0, 2, 1), basis)
            assert np.allclose(gram, np.eye(d), atol=1e-12)


def test_sl_basis_traceless():
    for n in (2, 3, 5):
        traces = np.einsum("kaa->k", lie_basis(n, "sl"))
        assert np.allclose(traces, 0.0, atol=1e-12)


def test_adjoint_is_multiplicative():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        basis = lie_basis(n, "sl")
        g = np.eye(n) + 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        h = np.eye(n) + 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        lhs = adjoint_matrix(g @ h, basis)
        rhs = adjoint_matrix(g, basis) @ adjoint_matrix(h, basis)
        assert np.allclose(lhs, rhs, atol=1e-10)


def _einsum_adjoint(g, basis):
    """Ad(g) by a three-operand einsum: an independent oracle for the
    Kronecker form."""
    ginv = np.linalg.inv(g)
    conjugated = np.einsum("ab,kbc,cd->kad", g, basis, ginv)
    # entries <B_j, g B_k g^-1>
    return np.einsum("jba,kba->jk", basis.conj(), conjugated)


def test_kronecker_adjoint_matches_einsum_oracle():
    rng = np.random.default_rng(17)
    for n in range(2, 7):
        g = np.eye(n) + 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for mode in ("sl", "gl"):
            basis = lie_basis(n, mode)
            want = _einsum_adjoint(g, basis)
            got = adjoint_matrix(g, basis)
            assert got.shape == want.shape == (basis.shape[0],) * 2
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (n, mode)


def basis_fox_oracle(rep, basis):
    """d0 and d1 in the basis, by multiplying basis-form adjoints along the
    relator word: the construction the gl-coordinate builder replaced."""
    adjoints = [_einsum_adjoint(g, basis) for g in rep.generators()]
    adjoints_inv = [_einsum_adjoint(np.linalg.inv(g), basis) for g in rep.generators()]
    d = len(basis)
    d0 = np.vstack([np.eye(d) - ad for ad in adjoints])
    coeffs = [np.zeros((d, d), dtype=complex) for _ in adjoints]
    prefix = np.eye(d, dtype=complex)
    for j, exp in surface_relator_word(rep.genus):
        if exp == 1:
            coeffs[j] = coeffs[j] + prefix
            prefix = prefix @ adjoints[j]
        else:
            prefix = prefix @ adjoints_inv[j]
            coeffs[j] = coeffs[j] - prefix
    return d0, np.hstack(coeffs)


def _oracle_reps():
    """Generic tuples off the variety, n 2-6, genus 2-3, sl and gl."""
    rng = np.random.default_rng(20)
    for n in range(2, 7):
        for genus in (2, 3):
            yield sample_random_rep(n, genus, seed=10 * n + genus)
            mats = [
                np.eye(n) + 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                for _ in range(2 * genus)
            ]
            yield SurfaceRep(genus, n, tuple(mats[0::2]), tuple(mats[1::2]), det_mode="gl")


def test_fox_differentials_match_basis_oracle():
    for rep in _oracle_reps():
        basis = lie_basis(rep.n, rep.det_mode)
        d = len(basis)
        want0, want1 = basis_fox_oracle(rep, basis)
        d0, d1 = coboundary_matrix(rep), cocycle_matrix(rep)
        assert d0.shape == (2 * rep.genus * d, d) and d1.shape == (d, 2 * rep.genus * d)
        key = (rep.n, rep.genus, rep.det_mode)
        assert np.linalg.norm(d0 - want0) <= 1e-10 * np.linalg.norm(want0), key
        assert np.linalg.norm(d1 - want1) <= 1e-10 * np.linalg.norm(want1), key


def test_sl1_differentials_are_empty_and_match_cohomology_dims():
    # sl_1 = 0: the basis stack is empty and both differentials are 0 x 0
    assert lie_basis(1, "sl").shape == (0, 1, 1)
    one = np.eye(1, dtype=complex)
    for genus in (1, 2, 3):
        rep = SurfaceRep(genus, 1, (one,) * genus, (one,) * genus)
        assert coboundary_matrix(rep).shape == (0, 0)
        assert cocycle_matrix(rep).shape == (0, 0)
        report = cohomology_dims(rep)
        assert (report.h0, report.h1, report.h2, report.dim_g) == (0, 0, 0, 0)
    # gl_1 keeps its one basis vector: 2g x 1 and 1 x 2g zero blocks
    rep = SurfaceRep(2, 1, (one,) * 2, (one,) * 2, det_mode="gl")
    assert coboundary_matrix(rep).shape == (4, 1)
    assert cocycle_matrix(rep).shape == (1, 4)


def test_gl_coordinate_singular_values_match_basis_ones():
    # gl: a unitary change of basis; sl: the sl differential plus a zero block
    for rep in _oracle_reps():
        basis = lie_basis(rep.n, rep.det_mode)
        key = (rep.n, rep.genus, rep.det_mode)
        for full, want in zip(numerics._fox_differentials(rep), basis_fox_oracle(rep, basis)):
            s = np.linalg.svd(full, compute_uv=False)
            s_want = np.linalg.svd(want, compute_uv=False)
            if rep.det_mode == "sl":
                assert np.sum(s <= 1e-12 * s[0]) == np.sum(s_want <= 1e-12 * s_want[0]) + 1, key
                s = s[:-1]
            assert np.allclose(s, s_want, rtol=0, atol=1e-10 * s_want[0]), key


def test_cohomology_dims_never_changes_basis(monkeypatch):
    calls = []
    for name in ("lie_basis", "adjoint_matrix", "_in_basis"):
        original = getattr(numerics, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(numerics, name, counted)
    for rep in (sample_random_rep(3, 2, seed=5), sample_diagonal_rep(3, 2, seed=6)):
        cohomology_dims(rep)
    assert calls == []
    # the counters are live: the public basis form projects once
    coboundary_matrix(rep)
    assert calls == ["lie_basis", "_in_basis"]


def test_kron_matches_numpy():
    rng = np.random.default_rng(19)
    for n, m in [(1, 3), (2, 2), (3, 4), (5, 2)]:
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        assert np.array_equal(_kron(a, b), np.kron(a, b))
        assert np.array_equal(_kron(b, b.T), np.kron(b, b.T))
    # stacks pair up along their leading axes
    a = rng.standard_normal((2, 3, 2, 2))
    b = rng.standard_normal((2, 3, 3, 3)) + 1j * rng.standard_normal((2, 3, 3, 3))
    got = _kron(a, b)
    assert got.shape == (2, 3, 6, 6)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(got[i, j], np.kron(a[i, j], b[i, j]))


# -------------------------------------------------- jacobians vs differences


def dense_jacobian(jac):
    """A factored holomorphic Jacobian multiplied out with np.kron, block by
    block: J_t = sum_a kron(P_ta, Q_ta)."""
    return np.hstack(
        [sum(np.kron(p, q) for p, q in zip(Pt, Qt)) for Pt, Qt in zip(jac.P, jac.Q)]
    )


def dense_real_lift(jac):
    """The real Jacobian of a widely-linear map dF = C_t dz_t + D_t conj(dz_t).

    Rows hold (Re F, Im F); columns interleave (dx_t, dy_t) per matrix.  The
    blocks are multiplied out with np.kron and D_t = Dstar_t T is Dstar_t
    with its columns in transposed order.  With dz = dx + i dy the chain
    rule gives dF = (C + D) dx + i (C - D) dy.
    """
    blocks = jac.blocks
    count, n = len(blocks.P) // 2, blocks.P.shape[-1]
    tperm = np.arange(n * n).reshape(n, n).T.reshape(-1)
    kron_blocks = np.split(dense_jacobian(blocks), 2 * count, axis=1)
    cols = []
    for C, Dstar in zip(kron_blocks[:count], kron_blocks[count:]):
        s, d = C + Dstar[:, tperm], C - Dstar[:, tperm]
        cols += [np.vstack([s.real, s.imag]), np.vstack([-d.imag, d.real])]
    return np.hstack(cols)


def _fd_check(system, mats, seed=0, eps=1e-6):
    """Directional central difference against the analytic Jacobian.

    The direction is dM = dx + i dy per matrix.  A complex (holomorphic)
    system is checked as J @ vec(dM); a real-lifted one as J @ v, where v
    holds (dx, dy) per matrix.
    """
    F, jac = system(mats)
    widely_linear = isinstance(jac, _WidelyLinearJacobian)
    J = dense_real_lift(jac) if widely_linear else dense_jacobian(jac)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2 * sum(m.size for m in mats))
    v /= np.linalg.norm(v)
    dxdy = v.reshape(len(mats), 2, -1)
    dz = dxdy[:, 0] + 1j * dxdy[:, 1]

    def shifted(sign):
        return [m + sign * eps * d.reshape(m.shape) for m, d in zip(mats, dz)]

    Fp, _ = system(shifted(+1.0))
    Fm, _ = system(shifted(-1.0))
    fd = (Fp - Fm) / (2.0 * eps)
    exact = J @ (dz.reshape(-1) if np.iscomplexobj(J) else v)
    err = np.linalg.norm(fd - exact) / max(np.linalg.norm(exact), 1e-12)
    return err


def test_relator_jacobian_matches_finite_differences():
    for genus, n, seed in [(2, 2, 1), (2, 3, 2), (3, 2, 3)]:
        rep = sample_random_rep(n, genus, seed=seed, spread=0.4)
        system = _relator_system(genus, n)
        F, jac = system(rep.generators())
        J = dense_jacobian(jac)
        # holomorphic: complex residual, one complex column per entry
        assert np.iscomplexobj(J) and J.shape == (n * n, 2 * genus * n * n)
        err = _fd_check(system, rep.generators(), seed=seed)
        assert err < 1e-6, (genus, n, err)


def test_kronecker_gram_and_adjoint_product_match_dense():
    # the factored J J^H and J^H y against the multiplied-out J
    rng = np.random.default_rng(81)
    for genus in (2, 3):
        for n in range(2, 7):
            rep = sample_random_rep(n, genus, seed=10 * genus + n, spread=0.4)
            F, jac = _relator_system(genus, n)(rep.generators())
            assert isinstance(jac, _KroneckerJacobian)
            J = dense_jacobian(jac)
            want = J @ J.conj().T
            got = jac.gram()
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (genus, n)
            y = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
            want = J.conj().T @ y
            got = jac.rmatvec(y)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (genus, n)


def test_moment_jacobian_matches_finite_differences():
    # the anti-holomorphic half is the part worth distrusting
    for count, n, seed in [(1, 2, 4), (2, 2, 5), (2, 3, 6)]:
        mats = sample_moment_start(n, count, seed=seed, spread=0.4)
        system = _moment_system(count, n)
        F, jac = system(mats)
        assert isinstance(jac, _WidelyLinearJacobian)
        J = dense_real_lift(jac)
        assert not np.iscomplexobj(J) and J.shape == (2 * n * n, 2 * count * n * n)
        err = _fd_check(system, mats, seed=seed)
        assert err < 1e-6, (count, n, err)


def test_widely_linear_gram_and_adjoint_product_match_dense():
    # the factored real J J^T and J^T y against the multiplied-out real lift
    rng = np.random.default_rng(82)
    for count in (1, 2, 3):
        for n in range(2, 7):
            mats = sample_moment_start(n, count, seed=10 * count + n, spread=0.4)
            F, jac = _moment_system(count, n)(mats)
            J = dense_real_lift(jac)
            want = J @ J.T
            got = jac.gram()
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (count, n)
            y = rng.standard_normal(2 * n * n)
            dxdy = (J.T @ y).reshape(count, 2, -1)
            want = (dxdy[:, 0] + 1j * dxdy[:, 1]).reshape(-1)
            got = jac.rmatvec(y)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (count, n)


def test_moment_jacobian_range_is_trace_free():
    # det Psi is identically 1, so every dPsi in the range of J has
    # tr(Psi^-1 dPsi) = 0: the real J^T kills vec(Psi^-H) and i vec(Psi^-H),
    # which leaves the real Gram singular in those two directions
    rng = np.random.default_rng(83)
    for count, n in [(1, 2), (2, 3), (3, 4)]:
        mats = sample_moment_start(n, count, seed=count + n, spread=0.4)
        F, jac = _moment_system(count, n)(mats)
        psi_inv = np.linalg.inv(moment_map(mats))
        J = dense_real_lift(jac)
        dF = J @ rng.standard_normal(J.shape[1])
        dpsi = (dF[: n * n] + 1j * dF[n * n :]).reshape(n, n)
        assert abs(np.trace(psi_inv @ dpsi)) <= 1e-12 * np.linalg.norm(dpsi), (count, n)
        y0 = psi_inv.conj().T.reshape(-1)
        scale = np.linalg.norm(jac.gram(), 2) ** 0.5 * np.linalg.norm(y0)
        for y in (y0, 1j * y0):
            step = jac.rmatvec(np.concatenate([y.real, y.imag]))
            assert np.linalg.norm(step) <= 1e-12 * scale, (count, n)


def test_complex_step_matches_realified_step():
    # the factored complex J J^H solve is the realification of the real J J^T
    # solve on the multiplied-out J; J J^H is singular (the relator has unit
    # determinant), so both solves lose about 1/lam of precision and the
    # check runs from the start damping up
    for genus, n, seed in [(2, 2, 1), (2, 3, 2), (3, 2, 3)]:
        rep = sample_random_rep(n, genus, seed=seed, spread=0.4)
        F, jac = _relator_system(genus, n)(rep.generators())
        J = dense_jacobian(jac)
        F_real = np.concatenate([F.real, F.imag])
        J_real = np.block([[J.real, -J.imag], [J.imag, J.real]])
        for lam in (1e-3, 1e-1, 1.0, 10.0):
            step = _gauss_newton_step(F, jac.gram(), jac, lam)
            real_step = -J_real.T @ np.linalg.solve(
                J_real @ J_real.T + lam * np.eye(len(F_real)), F_real
            )
            dx, dy = np.split(real_step, 2)
            assert np.linalg.norm(step - (dx + 1j * dy)) <= 1e-10, (genus, n, lam)


def _count_gram_and_rmatvec(monkeypatch, cls):
    """Record the Jacobian behind every gram() and rmatvec() call on cls."""
    grams, products = [], []
    gram, rmatvec = cls.gram, cls.rmatvec

    def counted_gram(jac):
        grams.append(jac)
        return gram(jac)

    def counted_rmatvec(jac, y):
        products.append(jac)
        return rmatvec(jac, y)

    monkeypatch.setattr(cls, "gram", counted_gram)
    monkeypatch.setattr(cls, "rmatvec", counted_rmatvec)
    return grams, products


def _assert_one_gram_per_accepted_point(grams, products):
    assert len(products) > len(grams)
    # the lists hold the Jacobians themselves, so no two share an id
    assert len({id(j) for j in grams}) == len(grams)  # one Gram per point
    assert {id(j) for j in grams} == {id(j) for j in products}  # where steps start


def test_gram_built_once_per_accepted_point(monkeypatch):
    # every trial step needs J^H y, but rejected trials reuse the Gram of the
    # point they started from; this start rejects 7 of its 20 trial steps
    grams, products = _count_gram_and_rmatvec(monkeypatch, _KroneckerJacobian)
    refined = newton_refine_rep(sample_random_rep(3, 2, seed=0, spread=1.0))
    assert refined.relator_residual() <= 1e-12
    _assert_one_gram_per_accepted_point(grams, products)


def test_moment_gram_built_once_per_accepted_point(monkeypatch):
    # the same for the moment map; this start rejects 8 of its 23 trial steps
    grams, products = _count_gram_and_rmatvec(monkeypatch, _WidelyLinearJacobian)
    solved = refine_moment_map_point(sample_moment_start(2, 3, seed=6, spread=5.0))
    assert moment_residual(solved) <= 1e-8
    _assert_one_gram_per_accepted_point(grams, products)


# ------------------------------------------------------------- refinement


def test_refine_perturbed_diagonal():
    exact = sample_diagonal_rep(2, 2, seed=11)
    assert exact.relator_residual() < 1e-12
    bent = perturb_rep(exact, 1e-2, seed=12)
    assert bent.relator_residual() > 1e-4
    refined = newton_refine_rep(bent, tol=1e-12)
    assert refined.relator_residual() <= 1e-12
    for m in refined.generators():
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_refine_from_random_start():
    for n, genus, seed in [(2, 2, 0), (3, 2, 1), (2, 3, 2)]:
        start = sample_random_rep(n, genus, seed=seed)
        refined = newton_refine_rep(start, tol=1e-12)
        assert refined.relator_residual() <= 1e-12, (n, genus)


def test_refine_needs_genus_two():
    rep = identity_rep(2, 1)
    with pytest.raises(ValueError):
        newton_refine_rep(rep)


def test_refined_rep_is_returned_unchanged_when_exact():
    exact = sample_diagonal_rep(3, 2, seed=3)
    again = newton_refine_rep(exact, tol=1e-10)
    assert again.relator_residual() <= 1e-10


def test_sl_mode_validates_determinants():
    bad = np.diag([2.0 + 0j, 1.0])
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        SurfaceRep(genus=1, n=2, A=(bad,), B=(eye,), det_mode="sl")
    SurfaceRep(genus=1, n=2, A=(bad,), B=(eye,), det_mode="gl")


# ---------------------------------------------------------------- words


def test_clock_shift_commutator():
    # the standard finite Heisenberg pair: commutator is the central root
    for n in (2, 3, 5):
        zeta = np.exp(2j * np.pi / n)
        K = commutator(clock_matrix(n), shift_matrix(n))
        assert np.allclose(K, zeta * np.eye(n), atol=1e-12)
    K = commutator(clock_matrix(2), shift_matrix(2))
    assert np.allclose(K, -np.eye(2), atol=1e-12)


def test_relator_word_shape():
    word = surface_relator_word(2)
    assert word == [(0, 1), (1, 1), (0, -1), (1, -1), (2, 1), (3, 1), (2, -1), (3, -1)]


def test_relator_eval_identity_on_commuting():
    rep = sample_diagonal_rep(4, 3, seed=9)
    assert np.allclose(relator_eval(rep.A, rep.B), np.eye(4), atol=1e-12)


# ------------------------------------------------------------- cohomology


def test_trivial_rep_cohomology():
    report = cohomology_dims(identity_rep(2, 2))
    assert (report.h0, report.h1, report.h2) == (3, 12, 3)
    assert report.euler_residual == 0
    assert report.reliable
    report = cohomology_dims(identity_rep(2, 2, mode="gl"))
    assert (report.h0, report.h1, report.h2) == (4, 16, 4)


def test_diagonal_rep_cohomology():
    report = cohomology_dims(sample_diagonal_rep(2, 2, seed=21))
    assert (report.h0, report.h1, report.h2) == (1, 8, 1)
    report = cohomology_dims(sample_diagonal_rep(3, 2, seed=22))
    assert (report.h0, report.h1, report.h2) == (2, 20, 2)
    assert report.euler_residual == 0


def test_irreducible_rep_cohomology():
    for n, genus, seed, h1 in [(2, 2, 31, 6), (3, 2, 32, 16), (2, 3, 33, 12)]:
        rep = newton_refine_rep(sample_random_rep(n, genus, seed=seed), tol=1e-12)
        assert centralizer_dim(rep, mode="gl") == 1, "start was not generic"
        report = cohomology_dims(rep)
        assert (report.h0, report.h1, report.h2) == (0, h1, 0), (n, genus)
        # d0 injective and d1 onto sl_n: no cut falls inside either spectrum
        assert report.singular_value_gap == np.inf and report.reliable
        assert report.euler_residual == 0


def test_fox_identity_on_exact_reps():
    reps = [
        sample_diagonal_rep(2, 2, seed=41),
        sample_diagonal_rep(3, 2, seed=42),
        newton_refine_rep(sample_random_rep(2, 2, seed=43), tol=1e-12),
        newton_refine_rep(sample_random_rep(3, 2, seed=44), tol=1e-12),
        identity_rep(2, 2),
    ]
    for rep in reps:
        d0 = coboundary_matrix(rep)
        d1 = cocycle_matrix(rep)
        denom = max(np.linalg.norm(d1) * np.linalg.norm(d0), 1e-12)
        assert np.linalg.norm(d1 @ d0) / denom <= 1e-10


def test_fox_identity_fails_off_variety():
    # the composite is only zero over actual representations
    rep = sample_random_rep(2, 2, seed=45)
    assert rep.relator_residual() > 1e-2
    d0 = coboundary_matrix(rep)
    d1 = cocycle_matrix(rep)
    assert np.linalg.norm(d1 @ d0) > 1e-6


def test_report_json():
    blob = cohomology_dims(identity_rep(2, 2)).to_json()
    assert blob["h0"] == 3 and blob["reliable"] is True
    assert blob["singular_value_gap"] is None  # both differentials vanish


# ------------------------------------------------------------ centralizer


def test_centralizer_dims():
    assert centralizer_dim(identity_rep(2, 2), mode="gl") == 4
    assert centralizer_dim(identity_rep(2, 2), mode="sl") == 3
    diag = sample_diagonal_rep(3, 2, seed=51)
    assert centralizer_dim(diag, mode="gl") == 3
    assert centralizer_dim(diag, mode="sl") == 2
    irr = newton_refine_rep(sample_random_rep(2, 2, seed=52), tol=1e-12)
    assert centralizer_dim(irr, mode="gl") == 1
    assert centralizer_dim(irr, mode="sl") == 0


# ------------------------------------------------------------- moment map


def test_unitaries_solve_moment_equation():
    rng = np.random.default_rng(61)
    mats = []
    for _ in range(2):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        mats.append(q)
    assert moment_residual(mats) < 1e-12


def test_moment_refinement_and_transfer():
    for n, seed in [(2, 71), (3, 72)]:
        start = sample_moment_start(n, 2, seed=seed, spread=0.3)
        solved = refine_moment_map_point(start, tol=1e-10)
        assert moment_residual(solved) <= 1e-10
        rep = mpa_to_surface(solved, tol=1e-9)
        assert rep.det_mode == "gl"
        # same product, regrouped; only rounding separates the residuals
        assert rep.relator_residual() <= 1e-8, n


def test_transfer_rejects_unsolved_input():
    start = sample_moment_start(2, 2, seed=73, spread=0.4)
    assert moment_residual(start) > 1e-3
    with pytest.raises(ValueError):
        mpa_to_surface(start, tol=1e-8)


def test_transferred_rep_cohomology():
    solved = refine_moment_map_point(
        sample_moment_start(2, 2, seed=74, spread=0.2), tol=1e-10
    )
    rep = mpa_to_surface(solved, tol=1e-9)
    if centralizer_dim(rep, mode="gl") == 1:
        report = cohomology_dims(rep, rank_tol=1e-6)
        assert (report.h0, report.h1, report.h2) == (1, 10, 1)


def test_moment_map_value_shape():
    mats = sample_moment_start(2, 3, seed=75)
    psi = moment_map(mats)
    assert psi.shape == (2, 2)


# ------------------------------------------------------------ fixed loci


def test_tangent_check_matches_closed_form():
    for n in (2, 3, 4, 6):
        for ell in range(1, n + 1):
            for genus in (2, 3):
                got = fixed_point_tangent_check(n, ell, genus)
                if n % ell:
                    assert got is None
                else:
                    want = codim_highgenus_from_orders([n], [ell], genus)
                    assert got == want, (n, ell, genus)


def test_tangent_check_matches_combinatorial_oracle():
    for n in (2, 3, 4):
        for ell in range(1, n + 1):
            got = fixed_point_tangent_check(n, ell, 2)
            want = fixed_tangent_oracle(n, ell, 2)
            assert got == want, (n, ell)


def dense_tangent_check(n, ell, genus, rank_tol=numerics.DEFAULT_RANK_TOL):
    """The tangent check with its operator formed: the SVD rank of the
    n^2 x n^2 matrix kron(A, inv(A).T) - zeta I, A = clock(ell) x 1."""
    if n % ell:
        return None
    A = np.kron(clock_matrix(ell), np.eye(n // ell, dtype=complex))
    zeta = np.exp(2j * np.pi / ell)
    op = np.kron(A, np.linalg.inv(A).T) - zeta * np.eye(n * n)
    rank, _ = numerics._svd_rank(op, rank_tol)
    return 2 * (genus - 1) * rank


def test_tangent_check_matches_dense_operator():
    for n in range(1, 9):
        for ell in range(1, n + 1):
            for genus in (2, 3):
                want = dense_tangent_check(n, ell, genus)
                assert fixed_point_tangent_check(n, ell, genus) == want, (n, ell, genus)


def test_tangent_check_forms_no_square_operator(monkeypatch):
    sizes = []
    real = np.linalg.svd

    def recorded(M, *args, **kwargs):
        sizes.append(np.asarray(M).size)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    n = 60
    assert fixed_point_tangent_check(n, n, 2) == codim_highgenus_from_orders([n], [n], 2)
    assert max(sizes, default=0) <= n * n


def test_tangent_check_validation():
    with pytest.raises(ValueError):
        fixed_point_tangent_check(2, 2, 1)
    with pytest.raises(ValueError):
        fixed_point_tangent_check(2, 0, 2)
