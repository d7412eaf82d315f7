"""Dense complex-matrix kernels shared by every processing stage.

Thin wrappers around LAPACK (through numpy.linalg) that add input
validation, a deterministic phase convention for singular/eigen vectors,
and explicit failure types so callers never receive silent garbage.
Every kernel also takes a stack of matrices along leading axes and gives
each matrix the result it would get alone, bit for bit, since numpy's
batched LAPACK calls run the same routine matrix by matrix.

All functions are pure; they are safe to call from any number of
concurrent Monte Carlo workers.
"""

from __future__ import annotations

import numpy as np


class NumericalFailure(RuntimeError):
    """An iterative SVD/eigen routine failed to converge."""


class DegeneracyError(NumericalFailure):
    """A matrix that must be numerically full rank is not."""


def herm(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose (works on batched arrays, last two axes)."""
    return np.conj(np.swapaxes(M, -1, -2))


def _as_finite_matrix(M, name: str = "matrix") -> np.ndarray:
    """M as a complex array of one matrix or a stack of them (leading axes)."""
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2:
        raise ValueError(f"{name} must be a matrix or a stack of matrices, got shape {M.shape}")
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _fix_column_phases(U: np.ndarray, companion: np.ndarray | None = None):
    """Rotate each column of U so its largest-magnitude entry is real and >= 0.

    The same per-column phase is applied to the matching column of
    `companion`, which keeps any product U @ diag(s) @ companion^H unchanged.
    All-zero columns are left untouched, so the convention is deterministic
    for every input. Leading axes are a stack: each matrix gets its own
    phases.
    """
    if U.shape[-2] == 0 or U.shape[-1] == 0:
        return (U, companion) if companion is not None else U
    rows = np.argmax(np.abs(U), axis=-2)[..., None, :]
    pivots = np.take_along_axis(U, rows, axis=-2)
    mags = np.abs(pivots)
    phases = np.divide(pivots, mags, out=np.ones_like(pivots), where=mags > 0).conj()
    if companion is not None:
        return U * phases, companion * phases
    return U * phases


def economy_svd(M: np.ndarray):
    """Economy-size SVD with a deterministic phase convention.

    Returns (U, sigma, V) with U: m x r, sigma: length r nonincreasing,
    V: n x r, r = min(m, n), such that M = U @ diag(sigma) @ V^H. In each
    column of U the largest-magnitude entry is real nonnegative, with the
    compensating phase applied to the matching column of V. A stack
    (..., m, n) gives stacked factors, each equal to its matrix's own.
    """
    M = _as_finite_matrix(M, "M")
    try:
        U, sigma, Vh = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("SVD did not converge") from exc
    U, V = _fix_column_phases(U, herm(Vh))
    return U, sigma, V


def hermitian_top_eigvectors(A: np.ndarray, k: int):
    """Top-k eigenpairs of a Hermitian matrix, eigenvalues nonincreasing.

    A must be Hermitian to a relative Frobenius tolerance of 1e-9; it is
    symmetrized as (A + A^H)/2 before decomposition. Eigenvector columns
    follow the same phase convention as economy_svd. A stack (..., n, n)
    gives (..., n, k) vectors and (..., k) values; the tolerance holds for
    each matrix against its own norm.
    """
    A = _as_finite_matrix(A, "A")
    n, m = A.shape[-2:]
    if n != m:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if int(k) != k or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > n:
        raise ValueError(f"k={k} exceeds matrix dimension {n}")
    gap = np.linalg.norm(A - herm(A), axis=(-2, -1))
    if np.any(gap > 1e-9 * np.maximum(1.0, np.linalg.norm(A, axis=(-2, -1)))):
        raise ValueError("matrix is not Hermitian within tolerance")
    A = 0.5 * (A + herm(A))
    try:
        w, v = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigendecomposition did not converge") from exc
    order = np.argsort(-w, axis=-1, kind="stable")[..., :k]
    vectors = _fix_column_phases(np.take_along_axis(v, order[..., None, :], axis=-1))
    return vectors, np.take_along_axis(w, order, axis=-1)


def check_invertible(gamma: np.ndarray):
    """Raise DegeneracyError unless the Hermitian PSD matrix gamma (or every
    matrix of a stack) is numerically invertible: its smallest eigenvalue
    exceeds 1e-10 of its largest, which is positive."""
    w = np.linalg.eigvalsh(0.5 * (gamma + herm(gamma)))
    if np.any(w[..., -1] <= 0) or np.any(w[..., 0] <= 1e-10 * w[..., -1]):
        raise DegeneracyError("channel Gramian is numerically singular")


def pseudo_inverse(M: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below rtol * sigma_max are treated as exactly zero.
    The default rtol suits the small, well-scaled matrices used here. A
    stack (..., m, n) gives the (..., n, m) pseudoinverses.
    """
    if rtol <= 0:
        raise ValueError("rtol must be positive")
    U, sigma, V = economy_svd(M)
    keep = sigma > rtol * sigma[..., :1]
    inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=keep)
    return (V * inv[..., None, :]) @ herm(U)
