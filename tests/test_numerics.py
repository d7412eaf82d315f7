import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from conftest import crandn
import oossim
from oossim.numerics import (
    RANGE_RTOL,
    SUBSPACE_RTOL,
    DegeneracyError,
    NumericalFailure,
    economy_svd,
    herm,
    hermitian_top_eigvectors,
    inverse_gramian,
    pseudo_inverse,
    shared_matmul,
    top_singular_triplets,
)


class TestEconomySvd:
    def test_identity(self):
        U, s, V = economy_svd(np.eye(2))
        assert np.allclose(U, np.eye(2))
        assert np.allclose(s, [1.0, 1.0])
        assert np.allclose(V, np.eye(2))

    def test_zero_matrix(self):
        _, s, _ = economy_svd(np.zeros((3, 2)))
        assert np.allclose(s, [0.0, 0.0])

    def test_seeded_reconstruction(self, rng):
        M = crandn(rng, 4, 3)
        U, s, V = economy_svd(M)
        rebuilt = U @ np.diag(s) @ herm(V)
        assert np.linalg.norm(rebuilt - M) <= 1e-10 * np.linalg.norm(M)

    def test_rejects_nonfinite(self):
        M = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            economy_svd(M)

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 8), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1)
    )
    def test_orthonormal_and_ordered(self, m, n, seed):
        M = crandn(np.random.default_rng(seed), m, n)
        U, s, V = economy_svd(M)
        r = min(m, n)
        assert U.shape == (m, r) and V.shape == (n, r)
        assert np.linalg.norm(herm(U) @ U - np.eye(r)) < 1e-10
        assert np.linalg.norm(herm(V) @ V - np.eye(r)) < 1e-10
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.linalg.norm(U @ np.diag(s) @ herm(V) - M) <= 1e-10 * max(
            1.0, np.linalg.norm(M)
        )


class TestTopSingularTriplets:
    """The Gramian route's accuracy and its per-matrix fallback are tested
    through oos_estimation.local_svd_estimate."""

    def test_tall_matrices_take_the_sliced_economy_svd(self, rng):
        M = crandn(rng, 3, 6, 4)
        U, sigma, V = economy_svd(M)
        for k in (1, 4):
            got = top_singular_triplets(M, k)
            for a, b in zip(got, (U[..., :k], sigma[..., :k], V[..., :k]), strict=True):
                assert np.array_equal(a, b)

    def test_rejects_k_out_of_range(self, rng):
        for k in (0, 3, 1.5):
            with pytest.raises(ValueError):
                top_singular_triplets(crandn(rng, 2, 5), k)


class TestHermitianTopEigvectors:
    def test_diagonal(self):
        vecs, vals = hermitian_top_eigvectors(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(vals, [3.0, 2.0])
        assert np.allclose(np.abs(vecs), np.eye(3)[:, :2])

    def test_degenerate_spectrum(self):
        vecs, vals = hermitian_top_eigvectors(np.eye(3), 1)
        assert np.allclose(vals, [1.0])
        A = np.eye(3)
        resid = np.linalg.norm(A @ vecs - vecs * vals)
        assert resid <= 1e-8 * (np.linalg.norm(A) + 1)

    def test_gramian_matches_singular_values(self, rng):
        B = crandn(rng, 5, 3)
        vals = hermitian_top_eigvectors(herm(B) @ B, 3)[1]
        s = np.linalg.svd(B, compute_uv=False)
        assert np.allclose(vals, s**2, atol=1e-9)

    def test_rejects_non_hermitian(self, rng):
        A = crandn(rng, 4, 4)
        with pytest.raises(ValueError):
            hermitian_top_eigvectors(A, 2)

    def test_rejects_k_too_large(self):
        with pytest.raises(ValueError):
            hermitian_top_eigvectors(np.eye(3), 4)
        with pytest.raises(ValueError):
            hermitian_top_eigvectors(np.eye(3), 0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_eigen_residual(self, n, seed):
        rng = np.random.default_rng(seed)
        B = crandn(rng, n, n)
        A = herm(B) @ B
        k = rng.integers(1, n + 1)
        vecs, vals = hermitian_top_eigvectors(A, int(k))
        resid = np.linalg.norm(A @ vecs - vecs * vals)
        assert resid <= 1e-8 * (np.linalg.norm(A) + 1)
        assert np.linalg.norm(herm(vecs) @ vecs - np.eye(int(k))) < 1e-10
        assert np.all(np.diff(vals) <= 1e-12)

    def test_agrees_with_svd_subspace(self, rng):
        # Eigenvectors of Z^H Z span the same space as right singular vectors of Z.
        Z = crandn(rng, 4, 9)
        vecs, _ = hermitian_top_eigvectors(herm(Z) @ Z, 3)
        _, _, V = economy_svd(Z)
        angles = subspace_angles(vecs, V[:, :3])
        assert np.max(angles) < 1e-8


def gramian_sum(rng, batch, rank, r, spikes=0):
    """A stack of `batch` sums of residual Gramians Z^H Z, each of rank
    `rank` in dimension r, like the Gramian method's CPU total. With
    `spikes`, Z also carries that many strong interferer directions, as
    on a long chain, which open a wide gap after the `spikes`-th
    eigenvalue."""
    Z = crandn(rng, batch, rank, r)
    if spikes:
        Z += 2 * crandn(rng, batch, rank, spikes) @ crandn(rng, batch, spikes, r)
    return herm(Z) @ Z


class TestRankBoundedRoute:
    """hermitian_top_eigvectors(A, k, rank): Rayleigh-Ritz on the range
    of A's first `rank` columns, the full eigh for a matrix that fails
    the range screen."""

    R = 21

    @pytest.mark.parametrize("rank", range(1, 17))
    def test_agrees_with_the_full_eigh_within_the_bound(self, rank):
        rng = np.random.default_rng(rank)
        A = gramian_sum(rng, 3, rank, self.R) * np.array([1e-6, 1.0, 1e6])[:, None, None]
        for k in sorted({1, min(rank, 5), rank}):
            vectors, w = hermitian_top_eigvectors(A, k, rank=rank)
            full_vectors, full_w = hermitian_top_eigvectors(A, k + 1)
            norm = np.linalg.norm(A, axis=(-2, -1))
            gap = full_w[:, k - 1] - full_w[:, k]
            bound = 2 * RANGE_RTOL * norm / gap
            projector = vectors @ herm(vectors) - full_vectors[..., :k] @ herm(full_vectors[..., :k])
            assert np.all(np.linalg.norm(projector, 2, axis=(-2, -1)) <= bound)
            assert np.all(np.abs(w - full_w[:, :k]) <= 2 * RANGE_RTOL * norm[:, None])
            assert np.linalg.norm(herm(vectors) @ vectors - np.eye(k), axis=(-2, -1)).max() < 1e-13

    def test_a_member_outside_the_screen_takes_the_full_eigh(self, rng):
        rank, k = 4, 2
        Z = crandn(rng, 4, rank, self.R)
        Z[1, :, :rank] = 0.0  # the first `rank` columns of A[1] are zero
        Z[2] = 0.0
        A = herm(Z) @ Z
        vectors, w = hermitian_top_eigvectors(A, k, rank=rank)
        for i, screened in enumerate((False, True, True, False)):
            alone = hermitian_top_eigvectors(A[i], k, rank=None if screened else rank)
            assert np.array_equal(vectors[i], alone[0]) and np.array_equal(w[i], alone[1])
        # a passing member does take the range route
        assert not np.array_equal(vectors[0], hermitian_top_eigvectors(A[0], k)[0])

    def test_below_k_the_route_is_the_full_eigh(self, rng):
        # rank >= n is TestSubspaceRoute's
        A = gramian_sum(rng, 2, 3, 6)
        for k, rank in ((4, 3), (2, 1)):
            got = hermitian_top_eigvectors(A, k, rank=rank)
            for a, b in zip(got, hermitian_top_eigvectors(A, k), strict=True):
                assert np.array_equal(a, b)

    def test_rejects_bad_input(self, rng):
        A = gramian_sum(rng, 2, 3, 6)
        for rank in (0, -1, 2.5):
            with pytest.raises(ValueError, match="rank"):
                hermitian_top_eigvectors(A, 1, rank=rank)
        A[1, 2, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_top_eigvectors(A, 1, rank=3)


class TestSubspaceRoute:
    """hermitian_top_eigvectors(A, k, rank) with rank >= n: orthogonal
    iteration and Rayleigh-Ritz, the full eigh for a matrix that fails
    the Davis-Kahan screen."""

    @pytest.mark.parametrize("r, rank", [(21, 40), (45, 64)])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_agrees_with_the_full_eigh_within_the_bound(self, r, rank, k):
        rng = np.random.default_rng(k)
        A = gramian_sum(rng, 3, rank, r, spikes=k) * np.array([1e-6, 1.0, 1e6])[:, None, None]
        vectors, w = hermitian_top_eigvectors(A, k, rank=rank)
        full_vectors, full_w = hermitian_top_eigvectors(A, k + 1)
        ratio = full_w[:, k] / full_w[:, k - 1]
        full_vectors, full_w = full_vectors[..., :k], full_w[:, :k]
        projector = vectors @ herm(vectors) - full_vectors @ herm(full_vectors)
        assert np.all(np.linalg.norm(projector, 2, axis=(-2, -1)) <= SUBSPACE_RTOL)
        norm = np.linalg.norm(A, axis=(-2, -1))
        assert np.all(np.abs(w - full_w) <= r * np.finfo(float).eps * norm[:, None])
        assert np.linalg.norm(herm(vectors) @ vectors - np.eye(k), axis=(-2, -1)).max() < 1e-13
        # a member with a gap like a long chain's (w_{k+1} / w_k at most
        # 0.05) passes the screen, so it does not have the full eigh's bits
        routed = ~np.array(list(map(np.array_equal, vectors, full_vectors)))
        assert np.all(routed | (ratio > 0.05)) and routed.sum() >= 2

    def test_a_member_outside_the_screen_takes_the_full_eigh(self, rng):
        r, k = 21, 2
        A = gramian_sum(rng, 5, 40, r, spikes=k)
        A[1] = 0.0
        U = np.linalg.qr(crandn(rng, r, r))[0]
        A[2] = (U * np.r_[4.0, 2.0, 2.0, np.linspace(1.0, 0.1, r - 3)]) @ herm(U)  # w_k == w_{k+1}
        # the iteration finds the largest |w|, here negative: not the top k
        A[3] = (U * np.r_[4.0, 3.0, np.linspace(-1.0, -40.0, r - 2)]) @ herm(U)
        vectors, w = hermitian_top_eigvectors(A, k, rank=r)
        for i, screened in enumerate((False, True, True, True, False)):
            alone = hermitian_top_eigvectors(A[i], k, rank=None if screened else r)
            assert np.array_equal(vectors[i], alone[0]) and np.array_equal(w[i], alone[1])
        assert_stack_matches(lambda M, j: hermitian_top_eigvectors(M, j, rank=r), A, k)
        # a passing member does take the subspace route
        assert not np.array_equal(vectors[0], hermitian_top_eigvectors(A[0], k)[0])

    def test_every_rank_from_n_up_takes_the_same_route(self, rng):
        A = gramian_sum(rng, 2, 40, 21, spikes=2)
        for k in (2, 21):
            want = hermitian_top_eigvectors(A, k, rank=21)
            for rank in (22, 64):
                got = hermitian_top_eigvectors(A, k, rank=rank)
                assert all(map(np.array_equal, got, want))
            assert not np.array_equal(want[0], hermitian_top_eigvectors(A, k)[0])


class TestSharedMatmul:
    def test_equals_the_per_matrix_product(self, rng):
        X = crandn(rng, 3, 5, 4, 7)
        for R in (crandn(rng, 7, 6), crandn(rng, 3, 7, 2)):
            want = X @ (R[:, None] if R.ndim == 3 else R)
            assert np.array_equal(shared_matmul(X, R), want)
            assert np.array_equal(shared_matmul(X[0], R[0] if R.ndim == 3 else R), want[0])
        # one row per matrix: a vector-matrix product alone, rounding apart
        X1, R = crandn(rng, 5, 1, 7), crandn(rng, 7, 6)
        assert np.allclose(shared_matmul(X1, R), X1 @ R, rtol=1e-14, atol=0)


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))

    def test_zero(self):
        P = pseudo_inverse(np.zeros((3, 2)))
        assert P.shape == (2, 3)
        assert np.allclose(P, 0.0)

    def test_full_column_rank_left_inverse(self, rng):
        M = crandn(rng, 6, 3)
        assert np.linalg.norm(pseudo_inverse(M) @ M - np.eye(3)) < 1e-9

    def test_matches_normal_equations(self, rng):
        M = crandn(rng, 6, 3)
        direct = np.linalg.inv(herm(M) @ M) @ herm(M)
        P = pseudo_inverse(M)
        assert np.linalg.norm(P - direct) <= 1e-8 * np.linalg.norm(direct)

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(1, 7), n=st.integers(1, 7), batch=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_an_independently_phased_svd(self, m, n, batch, seed):
        # V diag(1/sigma) U^H from LAPACK's SVD with every column pair of U
        # and V turned by its own random unit phase: the phase cancels, so
        # the pseudo-inverse does not depend on the phases economy_svd gets
        rng = np.random.default_rng(seed)
        M = crandn(rng, batch, m, n)
        M[0] = 0.0
        U, sigma, Vh = np.linalg.svd(M, full_matrices=False)
        phases = np.exp(2j * np.pi * rng.random(sigma.shape))[..., None, :]
        U, V = U * phases, herm(Vh) * phases
        keep = sigma > 1e-12 * sigma[..., :1]
        inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=keep)
        want = (V * inv[..., None, :]) @ herm(U)
        gap = np.linalg.norm(pseudo_inverse(M) - want, axis=(-2, -1))
        assert np.all(gap <= 1e-14 * np.linalg.norm(want, axis=(-2, -1)))

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 7), n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1)
    )
    def test_moore_penrose_identities(self, m, n, seed):
        M = crandn(np.random.default_rng(seed), m, n)
        P = pseudo_inverse(M)
        scale = max(1.0, np.linalg.norm(M))
        assert np.linalg.norm(M @ P @ M - M) <= 1e-8 * scale
        assert np.linalg.norm(P @ M @ P - P) <= 1e-8 * max(1.0, np.linalg.norm(P))
        assert np.linalg.norm(herm(M @ P) - M @ P) <= 1e-8 * scale
        assert np.linalg.norm(herm(P @ M) - P @ M) <= 1e-8 * scale


def assert_stack_matches(kernel, stack, *args):
    """kernel(stack, *args) equals the kernel on each matrix of the stack
    (and of any stacked argument), bit for bit."""
    batched = kernel(stack, *args)
    batched = batched if isinstance(batched, tuple) else (batched,)
    for idx in np.ndindex(stack.shape[:-2]):
        alone = kernel(stack[idx], *(a[idx] if isinstance(a, np.ndarray) else a for a in args))
        alone = alone if isinstance(alone, tuple) else (alone,)
        for got, want in zip(batched, alone, strict=True):
            assert np.array_equal(got[idx], want)


class TestStacks:
    """Every kernel takes a stack along leading axes and treats each
    matrix as it would alone."""

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(1, 6), n=st.integers(1, 6), batch=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_svd_phases_and_pseudo_inverse(self, m, n, batch, seed):
        rng = np.random.default_rng(seed)
        M = crandn(rng, batch, 2, m, n)
        M[0, 0] = 0.0  # a zero member keeps its own convention
        assert_stack_matches(economy_svd, M)
        assert_stack_matches(pseudo_inverse, M)
        for k in range(1, min(m, n) + 1):
            assert_stack_matches(top_singular_triplets, M, k)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(2, 7), batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_hermitian_top_eigvectors(self, n, batch, seed):
        rng = np.random.default_rng(seed)
        B = crandn(rng, batch, n, n)
        A = herm(B) @ B
        for k in (1, n):
            assert_stack_matches(hermitian_top_eigvectors, A, k)
        rank = int(rng.integers(1, n))
        low = gramian_sum(rng, batch, rank, n)
        low[0] = 0.0  # a member that fails the range screen
        assert_stack_matches(lambda M, j: hermitian_top_eigvectors(M, j, rank=rank), low, 1)
        A[0] = 0.0  # and the subspace route's screen
        assert_stack_matches(lambda M, j: hermitian_top_eigvectors(M, j, rank=n), A, 1)

    def test_one_bad_member_fails_the_stack(self, rng):
        B = crandn(rng, 3, 4, 4)
        A = herm(B) @ B
        hermitian_top_eigvectors(A, 2)
        inverse_gramian(A)
        skewed = A.copy()
        skewed[1, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_top_eigvectors(skewed, 2)
        broken = A.copy()
        broken[2, 3, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_top_eigvectors(broken, 2)
        with pytest.raises(ValueError, match="non-finite"):
            economy_svd(broken)
        singular = A.copy()
        singular[1] = 0.0
        with pytest.raises(DegeneracyError):
            inverse_gramian(singular)

    def test_svd_failures_keep_their_types(self, rng, monkeypatch):
        broken = crandn(rng, 3, 4, 2)
        broken[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            pseudo_inverse(broken)

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        for kernel in (economy_svd, pseudo_inverse, lambda M: top_singular_triplets(M, 1)):
            with pytest.raises(NumericalFailure, match="SVD did not converge"):
                kernel(crandn(rng, 3, 4, 2))
        low_rank = gramian_sum(rng, 3, 2, 6)
        full_rank = gramian_sum(rng, 3, 8, 6, spikes=1)
        monkeypatch.setattr(np.linalg, "qr", no_convergence)
        with pytest.raises(NumericalFailure, match="QR of the matrix's range did not converge"):
            hermitian_top_eigvectors(low_rank, 1, rank=2)
        with pytest.raises(NumericalFailure, match="QR of the iterated subspace did not converge"):
            hermitian_top_eigvectors(full_rank, 1, rank=6)
        monkeypatch.undo()
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(NumericalFailure, match="eigendecomposition did not converge"):
            top_singular_triplets(crandn(rng, 3, 2, 4), 1)
        for M, rank in ((low_rank, 2), (full_rank, 6)):
            with pytest.raises(NumericalFailure, match="eigendecomposition did not converge"):
                hermitian_top_eigvectors(M, 1, rank=rank)

    def test_inverse_gramian_is_the_screened_inverse(self, rng):
        B = crandn(rng, 2, 3, 6, 4)
        gamma = herm(B) @ B
        assert np.array_equal(inverse_gramian(gamma), np.linalg.inv(gamma))
        assert_stack_matches(inverse_gramian, gamma)
        gamma[1, 2] = herm(B[1, 2, :1]) @ B[1, 2, :1]  # rank one: one singular member
        with pytest.raises(DegeneracyError, match="numerically singular"):
            inverse_gramian(gamma)

    def test_eigensolver_failure_in_inverse_gramian_is_numerical(self, rng, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        B = crandn(rng, 3, 4, 4)
        gamma = herm(B) @ B
        # condition number 5e9: invertible by the eigvalsh rule, but
        # beyond the norm bound, so the eigensolver is reached
        gamma[1] = gramian_with_condition(rng, 4, 5e9)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        reason = "eigenvalues of the channel Gramian did not converge"
        with pytest.raises(NumericalFailure, match=reason):
            inverse_gramian(gamma)
        # np.linalg.inv fails only on an exactly singular matrix: the
        # screen's reason at once, with no eigensolve
        monkeypatch.setattr(np.linalg, "inv", no_convergence)
        with pytest.raises(DegeneracyError, match="numerically singular"):
            inverse_gramian(gamma)

    def test_hermitian_tolerance_is_per_member(self, rng):
        # a gap far below the stack's norm but above its own member's fails
        B = crandn(rng, 2, 3, 3)
        A = herm(B) @ B
        A[0] *= 1e12
        A[1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_top_eigvectors(A, 1)


def gramian_with_condition(rng, m, condition, rows=3):
    """A sum of `rows` Gramians A_l^H A_l (m x m), like the channel
    Gramian's chain sum, whose eigenvalues run geometrically from 1 down
    to 1 / condition."""
    U = np.linalg.qr(crandn(rng, rows * m, m))[0]
    V = np.linalg.qr(crandn(rng, m, m))[0]
    s = condition ** (-0.5 * np.linspace(0.0, 1.0, m))
    A = ((U * s) @ herm(V)).reshape(rows, m, m)
    return sum(herm(a) @ a for a in A)


class TestInverseGramian:
    """inverse_gramian raises DegeneracyError exactly when the eigvalsh
    rule does (smallest eigenvalue of the Hermitian part at most 1e-10 of
    the largest, or the largest not positive), and otherwise returns
    np.linalg.inv's bits, whether or not its norm bound clears a matrix."""

    CONDITIONS = (1e6, 1e8, 1e9, 2e9, 5e9, 8e9, 1e10, 1.25e10, 2e10, 1e11, 1e12)

    @staticmethod
    def eigvalsh_rule(gamma) -> bool:
        w = np.linalg.eigvalsh(0.5 * (gamma + herm(gamma)))
        return bool(w[-1] > 0 and w[0] > 1e-10 * w[-1])

    def members(self, rng, m):
        members = [gramian_with_condition(rng, m, c) for c in self.CONDITIONS]
        A = crandn(rng, 3, m)
        A[:, -1] = 0.0  # an exactly singular Gramian: a zero row and column
        a = crandn(rng, 1, m)
        return [*members, herm(A) @ A, np.zeros((m, m), dtype=complex), herm(a) @ a]

    @pytest.mark.parametrize("m", [2, 7, 10])
    def test_decides_as_the_eigvalsh_rule(self, rng, m):
        members = self.members(rng, m)
        invertible = [self.eigvalsh_rule(g) for g in members]
        assert any(invertible) and not all(invertible)
        for gamma, ok in zip(members, invertible):
            if ok:
                assert np.array_equal(inverse_gramian(gamma), np.linalg.inv(gamma))
            else:
                with pytest.raises(DegeneracyError, match="numerically singular"):
                    inverse_gramian(gamma)
        good = np.stack([g for g, ok in zip(members, invertible) if ok])
        assert np.array_equal(inverse_gramian(good), np.linalg.inv(good))
        with pytest.raises(DegeneracyError, match="numerically singular"):
            inverse_gramian(np.stack(members))

    def test_eigensolver_runs_only_beyond_the_bound(self, rng, monkeypatch):
        eigvalsh, seen = np.linalg.eigvalsh, []

        def spy(a):
            seen.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        clear = np.stack([gramian_with_condition(rng, 10, c) for c in (1e2, 1e6, 1e9)])
        inverse_gramian(clear)
        assert seen == []
        near = np.stack([clear[0], gramian_with_condition(rng, 10, 5e9), clear[1]])
        inverse_gramian(near)
        assert seen == [(1, 10, 10)]  # the doubtful member alone

    def test_a_bound_out_of_float_range_takes_the_screen_without_a_warning(self, rng):
        # ||gamma||_F^2 underflows to 0 and ||gamma^{-1}||_F^2 overflows,
        # so their product is NaN, under the suite's warnings-as-errors
        gamma = 1e-170 * gramian_with_condition(rng, 4, 10.0)
        assert np.array_equal(inverse_gramian(gamma), np.linalg.inv(gamma))
        with pytest.raises(DegeneracyError, match="numerically singular"):
            inverse_gramian(1e-170 * gramian_with_condition(rng, 4, 1e12))


class TestLapackCalls:
    """Outside numerics, every LAPACK call that can raise LinAlgError sits
    in a try that catches it, so it reaches the sweep as NumericalFailure."""

    LAPACK = ("svd", "eig", "solve", "inv", "qr", "cholesky", "lstsq")

    @staticmethod
    def catches_linalg_error(handler: ast.ExceptHandler) -> bool:
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(
            t is None or getattr(t, "attr", getattr(t, "id", None)) == "LinAlgError"
            for t in types
        )

    def unguarded_calls(self, tree: ast.Module):
        """(top-level function, routine) of each np.linalg call in `tree`
        that no enclosing try of its own function guards."""
        found = set()

        def visit(node, function, guarded):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                function, guarded = function or getattr(node, "name", "<lambda>"), False
            if isinstance(node, ast.Try) and any(map(self.catches_linalg_error, node.handlers)):
                for child in node.body:
                    visit(child, function, True)
                for child in node.handlers + node.orelse + node.finalbody:
                    visit(child, function, guarded)
                return
            func = getattr(node, "func", None)
            if (
                isinstance(node, ast.Call)
                and isinstance(func, ast.Attribute)
                and getattr(func.value, "attr", None) == "linalg"
                and func.attr.startswith(self.LAPACK)
                and not guarded
            ):
                found.add((function, func.attr))
            for child in ast.iter_child_nodes(node):
                visit(child, function, guarded)

        visit(tree, None, False)
        return found

    def test_no_unguarded_calls_outside_numerics(self):
        package = Path(oossim.__file__).parent
        found = {
            (path.stem, *call)
            for path in sorted(package.glob("*.py"))
            if path.name != "numerics.py"
            for call in self.unguarded_calls(ast.parse(path.read_text()))
        }
        assert found == set()

    def test_a_try_without_the_right_handler_does_not_guard(self):
        tree = ast.parse(
            "def f(a):\n"
            "    try:\n"
            "        np.linalg.qr(a)\n"
            "    except ValueError:\n"
            "        np.linalg.svd(a)\n"
            "    try:\n"
            "        def g():\n"
            "            return np.linalg.eigh(a)\n"
            "        np.linalg.inv(a)\n"
            "    except (ValueError, np.linalg.LinAlgError):\n"
            "        np.linalg.solve(a, a)\n"
        )
        assert self.unguarded_calls(tree) == {
            ("f", "qr"), ("f", "svd"), ("f", "eigh"), ("f", "solve")
        }


class TestOnePlaceForFailures:
    """numerics alone handles LAPACK failures, in one except clause, one
    helper writes every per-matrix fallback of a screened route, and no
    other module reaches into the screens."""

    @staticmethod
    def modules():
        package = Path(oossim.__file__).parent
        return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}

    def test_only_numerics_names_linalg_error(self):
        naming = [
            name
            for name, tree in self.modules().items()
            if any(getattr(n, "attr", getattr(n, "id", None)) == "LinAlgError" for n in ast.walk(tree))
        ]
        assert naming == ["numerics"]

    def test_numerics_catches_linalg_error_once(self):
        handlers = [
            node
            for node in ast.walk(self.modules()["numerics"])
            if isinstance(node, ast.ExceptHandler) and TestLapackCalls.catches_linalg_error(node)
        ]
        assert len(handlers) == 1

    def test_doubt_slots_are_written_by_one_helper(self):
        writers = {
            (name, function.name)
            for name, tree in self.modules().items()
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Assign)
            for target in node.targets
            for sub in ast.walk(target)
            if isinstance(sub, ast.Subscript) and getattr(sub.slice, "id", None) == "doubt"
        }
        assert writers == {("numerics", "_refit")}

    def test_only_numerics_names_the_screens_internals(self):
        internals = {"_refit", "_squared_norms", "PINV_RTOL"}
        naming = {
            name
            for name, tree in self.modules().items()
            for node in ast.walk(tree)
            for field in ("id", "attr", "name")
            if getattr(node, field, None) in internals
        }
        assert naming == {"numerics"}


class TestImports:
    """Every name imported into a module of the package is used there: a
    reference to it, or an entry of the module's __all__."""

    @staticmethod
    def unused_imports(tree: ast.Module) -> set:
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {
            entry.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
            for entry in node.value.elts
        }
        return imported - used

    def test_no_module_imports_a_name_it_does_not_use(self):
        unused = {
            name: found
            for name, tree in TestOnePlaceForFailures.modules().items()
            if (found := self.unused_imports(tree))
        }
        assert unused == {}

    def test_an_unused_import_is_found(self):
        tree = ast.parse(
            "from __future__ import annotations\n"
            "import os.path\n"
            "import numpy as np\n"
            "from .numerics import herm, _refit as refit, pseudo_inverse\n"
            "__all__ = ['pseudo_inverse']\n"
            "def f(a: np.ndarray):\n"
            "    return herm(a)\n"
        )
        assert TestImports.unused_imports(tree) == {"os", "refit"}
