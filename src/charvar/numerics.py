"""Numerical side: explicit surface group representations over C.

A representation of a genus-g surface group into GL(n) is a tuple of
matrices A_1, B_1, ..., A_g, B_g satisfying the single relation

    [A_1, B_1] [A_2, B_2] ... [A_g, B_g] = 1,

with [A, B] = A B A^-1 B^-1.  This module refines approximate tuples onto
the relation variety with a damped Gauss-Newton iteration (analytic
Jacobians, no finite differences), computes group cohomology ranks at a
point via Fox derivatives of the relator, and measures centralizers.
The relator is holomorphic, so its steps solve the normal equations
(J J^H + lambda I) y = F in complex arithmetic.  Its Jacobian is never
formed: each generator block is a sum of Kronecker products,
J_t = sum_a kron(P_ta, Q_ta), so the Gram matrix is
J J^H = sum_t sum_{a,b} kron(P_ta P_tb^H, Q_ta Q_tb^H), an O(g n^4) assembly
where the dense product costs O(g n^6), and J^H y is sum_a P_ta^H Y conj(Q_ta).
The Gram is computed once per accepted point and reused by every trial step
from it.  Adjoint matrices use the Kronecker form kron(g, g^-T).

The cohomology differentials d0 and d1 never change basis.  A product of
adjoints is the adjoint of the product, Ad(w) = kron(w, w^-T), so every Fox
derivative block is a difference of Kronecker products of the relator's
words, each word one n x n product, and both differentials are assembled in
gl coordinates in O(g n^4) instead of being projected onto a Lie algebra
basis and multiplied as d x d matrices at O(g n^6).  The gl basis is
unitary, so gl-mode singular values are unchanged.  In sl mode every Ad(w)
fixes the identity and every image is trace-free, so the gl-coordinate
differential is the sl one plus a zero block, and its one extra singular
value, an exact zero, is dropped before the rank cut.

There is also a second coordinate system: tuples A_1..A_g with

    prod_i (1 + A_i A_i*) (1 + A_i* A_i)^-1 = 1.

Writing B_i = A_i^-1 + A_i* turns each factor into the commutator
[A_i, B_i] on the nose, so solutions transfer to surface representations
with no extra work.  Unitary tuples solve the equation exactly and make
convenient starting points.  This map is not holomorphic: per matrix
dF = C_i dA_i + D_i conj(dA_i), and its steps solve the normal equations of
the real lift, whose Gram J J^T is assembled from the same Kronecker
factors in O(g n^4) (the real form of y -> H y + S conj(y)) and whose
J^T y comes back as a complex step.  Neither Jacobian is ever formed.

Conventions: matrices are flattened row-major throughout, so
vec(P X Q) = kron(P, Q^T) vec(X).  Both systems step in the complex
parametrization that concatenates vec M per matrix; the moment map's real
residual and normal equations stack real parts over imaginary parts.
Matrices are ordered A_1, B_1, A_2, B_2, ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

DEFAULT_RANK_TOL = 1e-8
RELIABLE_GAP = 1e3

_LAMBDA_INIT = 1e-3
_LAMBDA_MIN = 1e-14
_LAMBDA_MAX = 1e8


class ConvergenceError(RuntimeError):
    """Gauss-Newton failed to reach the requested residual."""


# --------------------------------------------------------------------------
# Lie algebra bases and adjoint action


def lie_basis(n: int, mode: str = "sl") -> np.ndarray:
    """Orthonormal basis of sl_n or gl_n under <X, Y> = tr(X^H Y).

    Off-diagonal matrix units are already orthonormal; the diagonal part
    uses the staircase matrices diag(1, ..., 1, -k, 0, ..., 0)/sqrt(k(k+1)).
    Returned as a stack of shape (d, n, n) with d = n^2 - 1 or n^2; sl_1 is
    zero, so its stack is empty, of shape (0, 1, 1).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if mode not in ("sl", "gl"):
        raise ValueError(f"mode must be 'sl' or 'gl', got {mode!r}")
    mats = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            mats.append(unit)
    for k in range(1, n):
        diag = np.zeros(n, dtype=complex)
        diag[:k] = 1.0
        diag[k] = -k
        mats.append(np.diag(diag) / np.sqrt(k * (k + 1)))
    if mode == "gl":
        mats.append(np.eye(n, dtype=complex) / np.sqrt(n))
    return np.array(mats, dtype=complex).reshape(len(mats), n, n)


def adjoint_matrix(g: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Matrix of X -> g X g^-1 in the given orthonormal basis."""
    # entries <B_j, g B_k g^-1>, with vec(g X g^-1) = kron(g, g^-T) vec(X)
    return _in_basis(_kron(g, np.linalg.inv(g).T), basis)[0]


def _in_basis(blocks: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """B^H M B for each n^2 x n^2 block M of the stack, B = basis vectors as
    columns."""
    d, n, _ = basis.shape
    m = n * n
    vecs = basis.reshape(d, m)
    return vecs.conj() @ blocks.reshape(-1, m, m) @ vecs.T


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices, or of each pair from two stacks of
    them, without its per-call dispatch cost."""
    size = a.shape[-1] * b.shape[-1]
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(*a.shape[:-2], size, size)


# --------------------------------------------------------------------------
# Representations


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)


def relator_eval(
    A: Sequence[np.ndarray], B: Sequence[np.ndarray]
) -> np.ndarray:
    """Product of the g commutators [A_i, B_i]."""
    if len(A) != len(B):
        raise ValueError("need equally many A and B matrices")
    n = A[0].shape[0]
    out = np.eye(n, dtype=complex)
    for a, b in zip(A, B):
        out = out @ commutator(a, b)
    return out


@dataclass(frozen=True)
class SurfaceRep:
    """A point on the representation variety, not yet up to conjugation.

    det_mode 'sl' asserts unit determinants (checked on construction);
    'gl' places no constraint.
    """

    genus: int
    n: int
    A: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]
    det_mode: str = "sl"

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError(f"genus must be >= 1, got {self.genus}")
        if len(self.A) != self.genus or len(self.B) != self.genus:
            raise ValueError("matrix counts must match the genus")
        for m in (*self.A, *self.B):
            if m.shape != (self.n, self.n):
                raise ValueError(f"expected {self.n} x {self.n} matrices")
        if self.det_mode not in ("sl", "gl"):
            raise ValueError(f"det_mode must be 'sl' or 'gl', got {self.det_mode!r}")
        if self.det_mode == "sl":
            for m in (*self.A, *self.B):
                if abs(np.linalg.det(m) - 1.0) > 1e-10:
                    raise ValueError(
                        "det_mode 'sl' requires unit determinants "
                        f"(got det = {np.linalg.det(m):.3e})"
                    )

    def generators(self) -> list[np.ndarray]:
        """Interleaved A_1, B_1, ..., A_g, B_g."""
        out = []
        for a, b in zip(self.A, self.B):
            out.extend((a, b))
        return out

    def relator(self) -> np.ndarray:
        return relator_eval(self.A, self.B)

    def relator_residual(self) -> float:
        return float(np.linalg.norm(self.relator() - np.eye(self.n)))


def _unit_det(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    det = np.linalg.det(m)
    if det == 0:
        raise ValueError("matrix is singular, cannot normalize determinant")
    return m / det ** (1.0 / n)


def sample_diagonal_rep(n: int, genus: int, seed: int = 0) -> SurfaceRep:
    """Commuting unit-circle diagonal matrices: an exact reducible point."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2 * genus):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        mats.append(_unit_det(np.diag(np.exp(1j * angles))))
    return SurfaceRep(
        genus=genus, n=n, A=tuple(mats[0::2]), B=tuple(mats[1::2]), det_mode="sl"
    )


def sample_random_rep(
    n: int, genus: int, seed: int = 0, spread: float = 0.3
) -> SurfaceRep:
    """Random unit-determinant tuple; a Gauss-Newton starting point, not a
    solution."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2 * genus):
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(_unit_det(np.eye(n) + spread * noise))
    return SurfaceRep(
        genus=genus, n=n, A=tuple(mats[0::2]), B=tuple(mats[1::2]), det_mode="sl"
    )


def perturb_rep(rep: SurfaceRep, scale: float, seed: int = 0) -> SurfaceRep:
    """Additive noise of the given scale, then back to unit determinants."""
    rng = np.random.default_rng(seed)

    def jiggle(m: np.ndarray) -> np.ndarray:
        noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        out = m + scale * noise
        return _unit_det(out) if rep.det_mode == "sl" else out

    return SurfaceRep(
        genus=rep.genus,
        n=rep.n,
        A=tuple(jiggle(a) for a in rep.A),
        B=tuple(jiggle(b) for b in rep.B),
        det_mode=rep.det_mode,
    )


def clock_matrix(n: int) -> np.ndarray:
    zeta = np.exp(2j * np.pi / n)
    return np.diag(zeta ** np.arange(n))


def shift_matrix(n: int) -> np.ndarray:
    # rolled so that commutator(clock, shift) is exactly exp(2 pi i / n) times
    # the identity
    return np.roll(np.eye(n, dtype=complex), -1, axis=1)


# --------------------------------------------------------------------------
# Damped Gauss-Newton on the normal equations (J J^H + lambda I) y = F

class _KroneckerJacobian:
    """J = [J_1 ... J_T] with J_t = sum_a kron(P[t, a], Q[t, a]), never formed.

    P and Q have shape (T, k, n, n), k terms per block.  By the
    mixed-product rule J J^H = sum_t sum_{a,b} kron(P_ta P_tb^H, Q_ta Q_tb^H):
    the n x n products are one batched matmul per factor, their sum of
    Kronecker products is one GEMM with inner dimension T k^2 followed by an
    axis transpose, O(T n^4) in all where the dense product costs O(T n^6).
    By the vec identity J_t^H y = sum_a vec(P_ta^H Y conj(Q_ta)), Y = y as
    an n x n matrix (Van Loan, "The ubiquitous Kronecker product",
    J. Comput. Appl. Math. 123, 2000).
    """

    def __init__(self, P: np.ndarray, Q: np.ndarray):
        self.P = P
        self.Q = Q

    def gram(self) -> np.ndarray:
        """J J^H."""
        P, Q = self.P, self.Q
        n = P.shape[-1]
        PP = P[:, :, None] @ P.conj().swapaxes(-1, -2)[:, None]
        QQ = Q[:, :, None] @ Q.conj().swapaxes(-1, -2)[:, None]
        # entry ((i, j), (k, l)) is sum_m PP_m[i, j] QQ_m[k, l]
        G = PP.reshape(-1, n * n).T @ QQ.reshape(-1, n * n)
        return G.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """J^H y, one vec(M_t) block per generator."""
        n = self.P.shape[-1]
        terms = self.P.conj().swapaxes(-1, -2) @ y.reshape(n, n) @ self.Q.conj()
        return terms.sum(axis=1).reshape(-1)


class _WidelyLinearJacobian:
    """dF = sum_t C_t dz_t + D_t conj(dz_t), a non-holomorphic Jacobian, never
    formed.

    The 2T Kronecker blocks of `blocks` are C_t = sum_a kron(P_ta, Q_ta) for
    t < T, then Dstar_t = sum_b kron(X_tb, Y_tb), with D_t = Dstar_t T for the
    transpose permutation T: vec(M) -> vec(M^T).  The real lift acts on
    (Re, Im) pairs, and J J^T is the real form of y -> H y + S conj(y)
    (Wirtinger calculus; Kreutz-Delgado, "The complex gradient operator and
    the CR-calculus", arXiv:0906.4835): H = sum_t C_t C_t^H + Dstar_t Dstar_t^H
    is the Kronecker Gram of the blocks, and S = W + W^T with
    W = sum_t C_t T Dstar_t^T = sum_t sum_{a,b} kron(P_ta Y_tb^T, Q_ta X_tb^T) T,
    one more GEMM with inner dimension T k^2, O(T n^4) in all.  The real
    residual and the Gram stack real parts over imaginary parts; J^T y comes
    back as the complex step C_t^H y + T Dstar_t^T conj(y) per matrix.
    """

    def __init__(self, blocks: _KroneckerJacobian):
        self.blocks = blocks

    def gram(self) -> np.ndarray:
        """J J^T of the real lift, shape (2 n^2, 2 n^2)."""
        P, Q = self.blocks.P, self.blocks.Q
        count, n = len(P) // 2, P.shape[-1]
        H = self.blocks.gram()
        U = P[:count, :, None] @ Q[count:, None].swapaxes(-1, -2)
        V = Q[:count, :, None] @ P[count:, None].swapaxes(-1, -2)
        # entry ((i, j), (k, l)) of W is sum_m U_m[i, l] V_m[j, k]
        W = U.reshape(-1, n * n).T @ V.reshape(-1, n * n)
        W = W.reshape(n, n, n, n).transpose(0, 2, 3, 1).reshape(n * n, n * n)
        S = W + W.T
        plus, minus = H + S, H - S
        G = np.empty((2, n * n, 2, n * n))
        G[0, :, 0], G[0, :, 1] = plus.real, -minus.imag
        G[1, :, 0], G[1, :, 1] = plus.imag, minus.real
        return G.reshape(2 * n * n, 2 * n * n)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """J^T y for y = (Re, Im), as one complex vec(dM_t) block per matrix."""
        P = self.blocks.P
        count, n = len(P) // 2, P.shape[-1]
        half = len(y) // 2
        terms = self.blocks.rmatvec(y[:half] + 1j * y[half:]).reshape(-1, n, n)
        # T Dstar_t^T conj(y) = T conj(Dstar_t^H y)
        return (terms[:count] + terms[count:].conj().swapaxes(-1, -2)).reshape(-1)


Jacobian = Union[_KroneckerJacobian, _WidelyLinearJacobian]
# a system maps the stacked iterate, shape (count, n, n), to (F, Jacobian)
SystemFn = Callable[[np.ndarray], tuple[np.ndarray, Jacobian]]


def _gauss_newton_step(
    F: np.ndarray, gram: np.ndarray, jac: Jacobian, lam: float
) -> np.ndarray:
    """Minimum-norm damped step: (J J^H + lam I) y = F, delta = -J^H y,
    with gram = J J^H."""
    return -jac.rmatvec(np.linalg.solve(gram + lam * np.eye(len(F)), F))


def _damped_gauss_newton(
    mats: Sequence[np.ndarray],
    system: SystemFn,
    tol: float,
    max_iter: int = 100,
    retract: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> list[np.ndarray]:
    """Minimum-norm Gauss-Newton steps with a multiplicative trust damper.

    The step solves the normal equations (J J^H + lambda I) y = F and moves
    by delta = -J^H y.  The loop asks the Jacobian for two things only: the
    Gram matrix J J^H and the product J^H y, and neither system multiplies
    its Kronecker factors out.  The relator is holomorphic, so its J is
    complex (the iterates of its realification, at half the size); the
    non-holomorphic moment map solves with the real Gram J J^T of its lift
    and turns J^T y into a complex step (_WidelyLinearJacobian).  The Gram
    is computed once per accepted point and reused by every trial step from
    it.  Accepted steps divide lambda by 10 (floor 1e-14),
    rejected ones multiply by 10; past 1e8 the iteration gives up.
    """
    current = np.array(mats, dtype=complex)
    if retract is not None:
        current = retract(current)
    F, jac = system(current)
    res = float(np.linalg.norm(F))
    if res <= tol:
        return list(current)
    gram = jac.gram()
    lam = _LAMBDA_INIT
    for _ in range(max_iter):
        try:
            step = _gauss_newton_step(F, gram, jac, lam)
            candidate = current + step.reshape(current.shape)
            if retract is not None:
                candidate = retract(candidate)
            F2, jac2 = system(candidate)
            res2 = float(np.linalg.norm(F2))
        except np.linalg.LinAlgError:
            res2 = np.inf
        if res2 < res:
            current, F, jac, res = candidate, F2, jac2, res2
            lam = max(lam / 10.0, _LAMBDA_MIN)
            if res <= tol:
                return list(current)
            gram = jac.gram()
        else:
            lam *= 10.0
            if lam > _LAMBDA_MAX:
                raise ConvergenceError(
                    f"damping exhausted at residual {res:.3e} (target {tol:.1e})"
                )
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations, residual {res:.3e} "
        f"(target {tol:.1e})"
    )


def _sl_retraction(mats: np.ndarray) -> np.ndarray:
    # scaling each matrix leaves every commutator unchanged, so this costs
    # nothing in residual while pinning determinants to 1
    return mats / (np.linalg.det(mats) ** (1.0 / mats.shape[-1]))[:, None, None]


def _relator_system(genus: int, n: int) -> SystemFn:
    eye = np.eye(n, dtype=complex)

    def system(mats: np.ndarray) -> tuple[np.ndarray, _KroneckerJacobian]:
        mats = np.asarray(mats)
        inverses = np.linalg.inv(mats)
        A, B = mats[0::2], mats[1::2]
        Ainv, Binv = inverses[0::2], inverses[1::2]
        K = A @ B @ Ainv @ Binv
        # left[i] = K_1 ... K_i, right[i] = K_{i+2} ... K_g (0-based K)
        left = np.empty((genus + 1, n, n), dtype=complex)
        left[0] = eye
        for i in range(genus):
            left[i + 1] = left[i] @ K[i]
        right = np.empty((genus, n, n), dtype=complex)
        right[-1] = eye
        for i in range(genus - 2, -1, -1):
            right[i] = K[i + 1] @ right[i + 1]
        residual = (left[genus] - eye).reshape(-1)

        # with L = left[i], R = right[i] and L K = left[i + 1]:
        # d(L A B A^-1 B^-1 R) = L dA (B A^-1 B^-1 R) - (L K B) dA (A^-1 B^-1 R)
        #                      + (L A) dB (A^-1 B^-1 R) - (L K) dB (B^-1 R)
        to_right = Binv @ right
        tail = Ainv @ to_right
        P = np.empty((genus, 2, 2, n, n), dtype=complex)
        Q = np.empty_like(P)
        P[:, 0, 0] = left[:genus]
        P[:, 0, 1] = -(left[1:] @ B)
        P[:, 1, 0] = left[:genus] @ A
        P[:, 1, 1] = -left[1:]
        Q[:, 0, 0] = (B @ tail).swapaxes(-1, -2)
        Q[:, 0, 1] = Q[:, 1, 0] = tail.swapaxes(-1, -2)
        Q[:, 1, 1] = to_right.swapaxes(-1, -2)
        return residual, _KroneckerJacobian(
            P.reshape(2 * genus, 2, n, n), Q.reshape(2 * genus, 2, n, n)
        )

    return system


def newton_refine_rep(
    rep: SurfaceRep, tol: float = 1e-12, max_iter: int = 100
) -> SurfaceRep:
    """Project an approximate tuple onto the relation variety.

    Raises ConvergenceError when the damping or iteration budget runs out.
    """
    if rep.genus < 2:
        raise ValueError("refinement needs genus >= 2 (genus 1 is rigid here)")
    system = _relator_system(rep.genus, rep.n)
    retract = _sl_retraction if rep.det_mode == "sl" else None
    refined = _damped_gauss_newton(
        rep.generators(), system, tol=tol, max_iter=max_iter, retract=retract
    )
    return SurfaceRep(
        genus=rep.genus,
        n=rep.n,
        A=tuple(refined[0::2]),
        B=tuple(refined[1::2]),
        det_mode=rep.det_mode,
    )


# --------------------------------------------------------------------------
# The multiplicative moment-map coordinates


def moment_map(A: Sequence[np.ndarray]) -> np.ndarray:
    """prod_i (1 + A_i A_i*)(1 + A_i* A_i)^-1."""
    n = A[0].shape[0]
    out = np.eye(n, dtype=complex)
    for a in A:
        astar = a.conj().T
        out = out @ (np.eye(n) + a @ astar) @ np.linalg.inv(np.eye(n) + astar @ a)
    return out


def moment_residual(A: Sequence[np.ndarray]) -> float:
    n = A[0].shape[0]
    return float(np.linalg.norm(moment_map(A) - np.eye(n)))


def _moment_system(count: int, n: int) -> SystemFn:
    eye = np.eye(n, dtype=complex)

    def system(mats: np.ndarray) -> tuple[np.ndarray, _WidelyLinearJacobian]:
        mats = np.asarray(mats)
        stars = mats.conj().swapaxes(-1, -2)
        Qinv = np.linalg.inv(eye + stars @ mats)
        factors = (eye + mats @ stars) @ Qinv
        # left[i] = Psi_1 ... Psi_i, right[i] = Psi_{i+2} ... Psi_count (0-based)
        left = np.empty((count + 1, n, n), dtype=complex)
        left[0] = eye
        for i in range(count):
            left[i + 1] = left[i] @ factors[i]
        right = np.empty((count, n, n), dtype=complex)
        right[-1] = eye
        for i in range(count - 2, -1, -1):
            right[i] = factors[i + 1] @ right[i + 1]
        residual = (left[count] - eye).reshape(-1)

        # with P = 1 + A A*, L = left[i], R = right[i], qr = Qinv R and
        # L P Qinv = left[i + 1]:
        # dPsi = L dA (A* qr) - (L P Qinv A*) dA qr
        #        + (L A) dA* qr - (L P Qinv) dA* (A qr)
        qr = Qinv @ right
        # blocks C_1 .. C_count, then Dstar_1 .. Dstar_count
        P = np.empty((2 * count, 2, n, n), dtype=complex)
        Q = np.empty_like(P)
        C, D = slice(None, count), slice(count, None)
        P[C, 0] = left[:count]
        P[C, 1] = -(left[1:] @ stars)
        P[D, 0] = left[:count] @ mats
        P[D, 1] = -left[1:]
        Q[C, 0] = (stars @ qr).swapaxes(-1, -2)
        Q[C, 1] = Q[D, 0] = qr.swapaxes(-1, -2)
        Q[D, 1] = (mats @ qr).swapaxes(-1, -2)
        F = np.concatenate([residual.real, residual.imag])
        return F, _WidelyLinearJacobian(_KroneckerJacobian(P, Q))

    return system


def sample_moment_start(
    n: int, count: int, seed: int = 0, spread: float = 0.3
) -> list[np.ndarray]:
    """Perturbed unitaries.  Unitary tuples satisfy the equation exactly,
    so small spreads start close to the solution set."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(gauss)
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out.append(q @ (np.eye(n) + spread * noise))
    return out


def refine_moment_map_point(
    A: Sequence[np.ndarray], tol: float = 1e-8, max_iter: int = 100
) -> list[np.ndarray]:
    """Gauss-Newton onto the solution set of the multiplicative equation."""
    if not A:
        raise ValueError("need at least one matrix")
    n = A[0].shape[0]
    return _damped_gauss_newton(
        list(A), _moment_system(len(A), n), tol=tol, max_iter=max_iter
    )


def mpa_to_surface(A: Sequence[np.ndarray], tol: float = 1e-8) -> SurfaceRep:
    """Transfer a solved tuple to a genus-len(A) surface representation.

    B_i = A_i^-1 + A_i* makes A_i B_i = 1 + A_i A_i* and
    B_i A_i = 1 + A_i* A_i, so each moment factor is the commutator
    [A_i, B_i] and the relator residual matches the moment residual up to
    rounding.
    """
    res = moment_residual(A)
    if res > tol:
        raise ValueError(
            f"moment residual {res:.3e} exceeds {tol:.1e}; refine first"
        )
    B = [np.linalg.inv(a) + a.conj().T for a in A]
    return SurfaceRep(
        genus=len(A), n=A[0].shape[0], A=tuple(A), B=tuple(B), det_mode="gl"
    )


# --------------------------------------------------------------------------
# Cohomology at a representation via Fox derivatives


def surface_relator_word(genus: int) -> list[tuple[int, int]]:
    """The relator as (generator index, exponent) letters; A_i -> 2i,
    B_i -> 2i+1."""
    word = []
    for i in range(genus):
        word.extend([(2 * i, 1), (2 * i + 1, 1), (2 * i, -1), (2 * i + 1, -1)])
    return word


def coboundary_matrix(
    rep: SurfaceRep, basis: Optional[np.ndarray] = None
) -> np.ndarray:
    """d0: stacked blocks (I - Ad(gen)) of shape (2g d, d).

    The blocks are built in gl coordinates as I - kron(g, g^-T) and then
    projected onto the orthonormal basis (default: sl_n or gl_n by the
    rep's det_mode), B^H (I - kron(g, g^-T)) B.  cohomology_dims ranks the
    gl-coordinate blocks directly: in sl mode they are this matrix plus one
    exact zero singular value.
    """
    if basis is None:
        basis = lie_basis(rep.n, rep.det_mode)
    d0, _ = _fox_differentials(rep)
    d = basis.shape[0]
    return _in_basis(d0, basis).reshape(2 * rep.genus * d, d)


def cocycle_matrix(
    rep: SurfaceRep, basis: Optional[np.ndarray] = None
) -> np.ndarray:
    """d1: the Fox derivative of the relator, shape (d, 2g d).

    Walking the word left to right, a letter g^{+1} contributes the adjoint
    of the prefix before it, a letter g^{-1} minus the adjoint of the prefix
    through it; each adjoint is the Kronecker product of its word,
    Ad(w) = kron(w, w^-T).  The gl-coordinate blocks are projected onto the
    orthonormal basis as for coboundary_matrix, and in sl mode they again
    differ from this matrix by one exact zero singular value.
    """
    if basis is None:
        basis = lie_basis(rep.n, rep.det_mode)
    _, d1t = _fox_differentials(rep)
    d, m = basis.shape[0], rep.n * rep.n
    blocks = _in_basis(d1t.reshape(-1, m, m).swapaxes(-1, -2), basis)
    return blocks.transpose(1, 0, 2).reshape(d, 2 * rep.genus * d)


def _fox_differentials(rep: SurfaceRep) -> tuple[np.ndarray, np.ndarray]:
    """d0 and the transpose of d1 in gl coordinates, both (2g n^2, n^2).

    d0 stacks I - kron(g, g^-T) over the generators.  For the i-th
    commutator [a, b] with w the product of the commutators before it, the
    Fox derivatives are Ad(w) - Ad(w a b a^-1) for A_i and
    Ad(w a) - Ad(w [a, b]) for B_i, and Ad(u)^T = kron(u^T, u^-1), so d1 is
    stored transposed, one (n^2, n^2) block per generator: numpy's SVD of a
    C-ordered matrix is faster tall than wide.  Each word is one n x n
    product, its inverse the reversed product of generator inverses, so the
    assembly costs O(g n^4).
    """
    n, genus = rep.n, rep.genus
    gens = np.array(rep.generators(), dtype=complex)
    invs = np.linalg.inv(gens)
    d0 = np.eye(n * n) - _kron(gens, invs.swapaxes(-1, -2))
    # words[i] = [[w, w a], [w a b a^-1, w [a, b]]], inverses alike
    words = np.empty((genus, 2, 2, n, n), dtype=complex)
    inverses = np.empty_like(words)
    w = winv = np.eye(n, dtype=complex)
    for i in range(genus):
        a, b, ainv, binv = gens[2 * i], gens[2 * i + 1], invs[2 * i], invs[2 * i + 1]
        words[i, 0, 0], inverses[i, 0, 0] = w, winv
        words[i, 0, 1], inverses[i, 0, 1] = w @ a, ainv @ winv
        words[i, 1, 0] = words[i, 0, 1] @ b @ ainv
        inverses[i, 1, 0] = a @ binv @ inverses[i, 0, 1]
        w = words[i, 1, 1] = words[i, 1, 0] @ binv
        winv = inverses[i, 1, 1] = b @ inverses[i, 1, 0]
    terms = _kron(words.swapaxes(-1, -2), inverses)
    d1t = terms[:, 0] - terms[:, 1]
    return d0.reshape(-1, n * n), d1t.reshape(-1, n * n)


def _svd_rank(M: np.ndarray, rank_tol: float, drop: int = 0) -> tuple[int, float]:
    """Numerical rank and the spectral gap at the cut, after dropping the
    `drop` smallest singular values (ones known to be exact zeros)."""
    s = np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0)
    return _cut_rank(s[: len(s) - drop], rank_tol)


def _cut_rank(s: np.ndarray, rank_tol: float) -> tuple[int, float]:
    """Rank and spectral gap at the cut of singular values ``s``, sorted
    descending.

    The cut is rank_tol times max(top singular value, 1): the matrices here
    are built from order-one adjoint blocks, so anything uniformly below
    rank_tol is roundoff, not structure, even when it dwarfs the (zero) top
    value's relative scale.
    """
    if s.size == 0:
        return 0, np.inf
    cut = rank_tol * max(float(s[0]), 1.0)
    rank = int(np.sum(s > cut))
    if rank == 0 or rank == len(s) or s[rank] == 0.0:
        return rank, np.inf
    return rank, float(s[rank - 1] / s[rank])


@dataclass(frozen=True)
class CohomologyReport:
    """Twisted cohomology dimensions at one representation."""

    h0: int
    h1: int
    h2: int
    euler_residual: int
    dim_g: int
    singular_value_gap: float
    reliable: bool

    def to_json(self) -> dict:
        gap = self.singular_value_gap
        return {
            "h0": self.h0,
            "h1": self.h1,
            "h2": self.h2,
            "euler_residual": self.euler_residual,
            "dim_g": self.dim_g,
            "singular_value_gap": None if np.isinf(gap) else gap,
            "reliable": self.reliable,
        }


def cohomology_dims(
    rep: SurfaceRep, rank_tol: float = DEFAULT_RANK_TOL
) -> CohomologyReport:
    """h^0, h^1, h^2 with coefficients in the adjoint representation.

    The differentials are ranked in gl coordinates, as the Kronecker
    products of the relator's words built by _fox_differentials, with no
    change of basis.  In gl mode the basis is unitary, so the singular
    values are those of coboundary_matrix and cocycle_matrix.  In sl mode
    every Ad(w) fixes the identity and every image is trace-free, so each
    gl-coordinate differential is the sl one plus a zero block, and its one
    extra singular value, an exact zero, is dropped before the cut.

    Ranks come from SVD cuts at rank_tol * max(s0, 1), where s0 is the top
    singular value, so the cut never falls below rank_tol itself; the report
    carries the worst gap across both differentials, and is flagged
    unreliable when that gap drops below 1000.
    """
    n, g = rep.n, rep.genus
    sl = rep.det_mode == "sl"
    d = n * n - 1 if sl else n * n
    d0, d1t = _fox_differentials(rep)
    r0, gap0 = _svd_rank(d0, rank_tol, drop=int(sl))
    r1, gap1 = _svd_rank(d1t, rank_tol, drop=int(sl))
    h0 = d - r0
    h1 = 2 * g * d - r0 - r1
    h2 = d - r1
    euler = (h0 - h1 + h2) - (2 - 2 * g) * d
    gap = float(min(gap0, gap1))
    return CohomologyReport(
        h0=h0,
        h1=h1,
        h2=h2,
        euler_residual=euler,
        dim_g=d,
        singular_value_gap=gap,
        reliable=bool(gap >= RELIABLE_GAP),
    )


def centralizer_dim(
    rep: SurfaceRep,
    mode: Optional[str] = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> int:
    """Dimension of the joint centralizer of the image, in gl_n or sl_n.

    Stacks W X - X W = 0 for the generators; a matrix that commutes with
    every generator commutes with every word in them.
    """
    if mode is None:
        mode = rep.det_mode
    n = rep.n
    eye = np.eye(n)
    stack = np.vstack(
        [_kron(w, eye) - _kron(eye, w.T) for w in rep.generators()]
    )
    rank, _ = _svd_rank(stack, rank_tol)
    nullity = n * n - rank
    return nullity - 1 if mode == "sl" else nullity


def fixed_point_tangent_check(
    n: int, ell: int, genus: int, rank_tol: float = DEFAULT_RANK_TOL
) -> Optional[int]:
    """Codimension of the locus fixed by an order-ell central twist, computed
    from an explicit fixed tuple built on clock(ell) x 1.

    The twist multiplies a generator by a primitive ell-th root of unity
    zeta; a representation fixed up to conjugation yields an intertwiner
    A with spectrum spread over the zeta-eigenspaces.  The tangent count
    reduces to c = dim {X : A X A^-1 = zeta X}, and the codimension is
    2(g-1)(n^2 - c).  Returns None when ell does not divide n (no fixed
    points at all).

    A = clock(ell) x 1 is diagonal with entries a, so the operator
    X -> A X A^-1 - zeta X is the diagonal kron(a, 1/a) - zeta on vec(X);
    its singular values are the absolute values of that diagonal, ranked
    with the same cut as every SVD rank here, and no n^2 x n^2 matrix is
    formed.
    """
    if genus < 2:
        raise ValueError("tangent counting needs genus >= 2")
    if ell < 1:
        raise ValueError(f"twist order must be positive, got {ell}")
    if n % ell:
        return None
    a = np.repeat(np.diag(clock_matrix(ell)), n // ell)
    zeta = np.exp(2j * np.pi / ell)
    s = np.abs(np.kron(a, 1 / a) - zeta)
    rank, _ = _cut_rank(np.sort(s)[::-1], rank_tol)
    c = n * n - rank
    return 2 * (genus - 1) * (n * n - c)
