import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from conftest import crandn
from oossim.numerics import (
    DegeneracyError,
    _fix_column_phases,
    check_invertible,
    economy_svd,
    herm,
    hermitian_top_eigvectors,
    pseudo_inverse,
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

    def test_phase_convention(self, rng):
        M = crandn(rng, 5, 4)
        U, _, _ = economy_svd(M)
        pivots = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])]
        assert np.allclose(pivots.imag, 0.0, atol=1e-12)
        assert np.all(pivots.real >= 0)

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

    def test_rejects_bad_rtol(self):
        with pytest.raises(ValueError):
            pseudo_inverse(np.eye(2), rtol=0.0)

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
        assert_stack_matches(_fix_column_phases, M)
        assert_stack_matches(_fix_column_phases, M, crandn(rng, batch, 2, m, n))

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(2, 7), batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_hermitian_top_eigvectors(self, n, batch, seed):
        B = crandn(np.random.default_rng(seed), batch, n, n)
        A = herm(B) @ B
        for k in (1, n):
            assert_stack_matches(hermitian_top_eigvectors, A, k)

    def test_one_bad_member_fails_the_stack(self, rng):
        B = crandn(rng, 3, 4, 4)
        A = herm(B) @ B
        hermitian_top_eigvectors(A, 2)
        check_invertible(A)
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
            check_invertible(singular)

    def test_hermitian_tolerance_is_per_member(self, rng):
        # a gap far below the stack's norm but above its own member's fails
        B = crandn(rng, 2, 3, 3)
        A = herm(B) @ B
        A[0] *= 1e12
        A[1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_top_eigvectors(A, 1)
