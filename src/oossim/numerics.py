"""Dense complex-matrix kernels shared by every processing stage.

Thin wrappers around LAPACK (through numpy.linalg) that add input
validation and explicit failure types so callers never receive silent
garbage; every LAPACK call of the package goes through _lapack, which
raises a LAPACK failure as NumericalFailure. No route takes a full
SVD. The channel Gramian's inverse and its invertibility screen are one
kernel, inverse_gramian, which distributed ZF and the downlink precoders
share: the inverse comes first, and screens most matrices by itself.

The stack rule, which every module keeps: a function that takes leading
stack axes (blocks, SNR points, methods) gives each member the result
it would get alone, bit for bit. numpy's batched LAPACK runs matrix by
matrix, a screened route refits only its doubtful slots (_refit), and
the draws take one generator per block (scenario). So no result depends
on how the sweep stacks its blocks. Rows stacked into one product (the
APs' in shared_matmul, the methods' zf_filters rows in centralized ZF's
block-major filter, uplink.apply_zf_filter, and the methods' rows of
herm(W), W = [E, G_1, ..., G_M], that uplink.apply_chain combines the
payload with at each hop) get the bits of their own product when each
member has two or more rows. A member of one row (K = 1, as
no_suppression's herm(E)) alone is a vector-matrix product, which may
round differently, so its bits may depend on what is stacked with it.
The chain detectors' block-major row filter F (experiments._chain_side)
holds each method's rows at its own columns of W and zeros elsewhere.
Zero columns of F add exact zeros, which leave a partial sum as it was,
so each method keeps the bits of its own rows' product wherever the BLAS
kernel sums each output over k in order (as OpenBLAS does at these
shapes, on one thread and on two); tests/test_experiments.py's
test_ue_row_apply_equals_the_detectors checks it.

Five routes are cheaper than the textbook call (after the arrow). Each
screens every matrix on the error bound that its function's docstring
states, and a matrix that fails takes the textbook call (_refit, or the
screen alone for inverse_gramian):

- top_singular_triplets, a wide M: the eigenpairs of M M^H (GRAM_RTOL)
  -> economy_svd;
- hermitian_top_eigvectors, k <= `rank` < n: Rayleigh-Ritz on the range
  of A's first `rank` columns (RANGE_RTOL) -> eigh;
- hermitian_top_eigvectors, `rank` >= n: orthogonal iteration on A^2 and
  Rayleigh-Ritz, Davis-Kahan screen (SUBSPACE_STEPS, SUBSPACE_RTOL) -> eigh;
- zf_filters, the UE rows of a tall A = [E, G]'s pseudo-inverse: one
  Householder QR of the UE columns E for every method that shares them
  and one of each method's K_I-column residual, screened on the bounds
  that the block R gives for A's singular values (PINV_RTOL) ->
  pseudo_inverse;
- inverse_gramian: the bound ||gamma||_F ||gamma^{-1}||_F on the
  condition number, from the inverse (GRAMIAN_RCOND) -> the eigvalsh
  screen of the members it doubts, the one fallback (a failed inverse
  raises DegeneracyError at once).
"""

from __future__ import annotations

import numpy as np


PINV_RTOL = 1e-12  # pseudo_inverse's relative cutoff, for small well-scaled matrices
# The screens of the routes listed above
GRAM_RTOL = 1e-8
RANGE_RTOL = 1e-12
SUBSPACE_STEPS = 4
SUBSPACE_RTOL = 1e-10
# inverse_gramian's screen: the smallest eigenvalue must exceed this share of the largest
GRAMIAN_RCOND = 1e-10


class NumericalFailure(RuntimeError):
    """A stage gave no trustworthy result: a LAPACK routine (SVD, eigen,
    QR, inverse) failed to converge or met a singular matrix (_lapack), a
    screen found a matrix that must be full rank singular
    (DegeneracyError), or a chain fold raised either."""


class DegeneracyError(NumericalFailure):
    """A matrix that must be numerically full rank is not."""


def herm(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose (works on batched arrays, last two axes)."""
    return np.conj(M.swapaxes(-1, -2))


def shared_matmul(X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """X @ R[..., None, :, :]: the matrices along X's axis -3 (the APs)
    share the right factor R, so their rows are stacked into one product
    per matrix of R. With two or more rows per matrix every row gets the
    bits of its own matrix's product; a one-row matrix alone is a
    vector-matrix product, which may round differently."""
    *lead, L, m, n = X.shape
    return (X.reshape(*lead, L * m, n) @ R).reshape(*lead, L, m, R.shape[-1])


def _as_finite_matrix(M, name: str = "matrix") -> np.ndarray:
    """M as a complex array of one matrix or a stack of them (leading axes)."""
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2:
        raise ValueError(f"{name} must be a matrix or a stack of matrices, got shape {M.shape}")
    if M.size and not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _lapack(failure: str, routine, *args, error=NumericalFailure, **kwargs):
    """routine(*args, **kwargs), a numpy.linalg call, with a LAPACK
    failure (LinAlgError) raised as error(failure), a NumericalFailure."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise error(failure) from exc


def _refit(doubt: np.ndarray, outputs: tuple, textbook, *inputs: np.ndarray) -> None:
    """Write textbook(*(x[doubt] for x in inputs)), one array per entry of
    `outputs`, into the `doubt` slots of those arrays: a screened route's
    per-matrix fallback, which leaves every other matrix's bits as they
    were."""
    if doubt.any():
        values = textbook(*(x[doubt] for x in inputs))
        for out, value in zip(outputs, values, strict=True):
            out[doubt] = value


def economy_svd(M: np.ndarray):
    """Economy-size SVD, LAPACK's factors with no phase convention.

    Returns (U, sigma, V) with U: m x r, sigma: length r nonincreasing,
    V: n x r, r = min(m, n), such that M = U @ diag(sigma) @ V^H. Raises
    ValueError on non-finite input and NumericalFailure when LAPACK does
    not converge.
    """
    M = _as_finite_matrix(M, "M")
    U, sigma, Vh = _lapack("SVD did not converge", np.linalg.svd, M, full_matrices=False)
    return U, sigma, herm(Vh)


def top_singular_triplets(M: np.ndarray, k: int):
    """The top-k triplets of economy_svd: (U, sigma, V) with U: m x k,
    sigma: length k nonincreasing, V: n x k, with no phase convention,
    so U @ diag(sigma) @ V^H is the best rank-k approximation.

    A wide or square M (m <= n) takes the cross-product route (Golub & Van
    Loan, Matrix Computations, 4th ed., section 8.6): the top-k eigenpairs
    (w, U) of the m x m Gramian M M^H by hermitian_top_eigvectors,
    sigma = sqrt(w) and V = M^H U / sigma. The Gramian squares the condition number, so
    sigma_j is off by about eps w_1 / w_j relative, and the kept subspace
    and the product by about eps w_1 / (w_k - w_{k+1}). Each matrix whose
    w_k is not above GRAM_RTOL w_1, which bounds the first error by about
    eps / GRAM_RTOL = 2.2e-8, takes the LAPACK SVD instead (_refit), as
    does a tall M.
    """
    M = _as_finite_matrix(M, "M")
    m, n = M.shape[-2:]
    if int(k) != k or not 1 <= k <= min(m, n):
        raise ValueError(f"k={k!r} must be in 1..min{(m, n)}")
    if m > n:
        return tuple(x[..., :k] for x in economy_svd(M))
    U, w = hermitian_top_eigvectors(M @ herm(M), k)
    doubt = ~(w[..., -1] > GRAM_RTOL * w[..., 0])
    sigma = np.sqrt(np.where(doubt[..., None], 1.0, w))
    V = herm(M) @ U / sigma[..., None, :]
    _refit(doubt, (U, sigma, V), lambda M: [x[..., :k] for x in economy_svd(M)], M)
    return U, sigma, V


def hermitian_top_eigvectors(A: np.ndarray, k: int, rank: int | None = None):
    """Top-k eigenpairs of a Hermitian matrix, eigenvalues nonincreasing,
    the eigenvectors with no phase convention on any route.

    A must be Hermitian to a relative Frobenius tolerance of 1e-9, each
    matrix of a stack against its own norm; it is symmetrized as
    (A + A^H)/2 before decomposition.

    `rank`, when given, bounds the rank of A. With k <= rank < n the
    eigenpairs come from the range by Rayleigh-Ritz (Golub & Van Loan,
    Matrix Computations, 4th ed., sections 8.1 and 8.6): Q is the thin
    Householder QR of A's first `rank` columns, U the eigenvectors of
    the rank x rank compression Q^H A Q, and the vectors are Q U. A
    matrix whose range residual E = A - (A Q) Q^H is not below
    RANGE_RTOL ||A||_F (a zero matrix too) takes the full n x n eigh
    (_refit). A passing matrix is within 2 ||E|| of its compression
    Q Q^H A Q Q^H, so by Davis-Kahan its top-k subspace is off by about
    2 RANGE_RTOL ||A|| / (w_k - w_{k+1}) and each eigenvalue by at most
    2 RANGE_RTOL ||A||.

    With rank >= n, A (scaled by its largest entry) takes orthogonal
    iteration with a Rayleigh-Ritz step (Golub & Van Loan, section
    8.2.4): from its k columns of largest diagonal, SUBSPACE_STEPS steps
    X = A^2 qr(X).Q, then Q = qr(X).Q, U the eigenvectors of Q^H A Q and
    V = Q U with Ritz values w. With P = I - V V^H, ||P A P||_F bounds w_{k+1} by
    Courant-Fischer; it comes from ||A||_F^2 - 2 ||A V||_F^2 + sum w^2
    plus a rounding guard of 4 n eps ||A||_F^2. A matrix passes when
    gap = w_k - ||P A P||_F > 0 and ||A V - V diag(w)||_F <
    SUBSPACE_RTOL gap: by the Davis-Kahan sin theta theorem its top-k
    subspace is then off by less than SUBSPACE_RTOL, and each Ritz value
    is within rounding of its eigenvalue. A matrix that fails (a zero
    one, or one with w_k = w_{k+1}) takes the full eigh (_refit).
    Without `rank`, or with rank < k, A takes the full eigh.
    """
    A = _as_finite_matrix(A, "A")
    n, m = A.shape[-2:]
    if n != m:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if int(k) != k or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > n:
        raise ValueError(f"k={k} exceeds matrix dimension {n}")
    if rank is not None and (int(rank) != rank or rank < 1):
        raise ValueError(f"rank must be a positive integer, got {rank!r}")
    norm = np.linalg.norm(A, axis=(-2, -1))
    A_h = herm(A)
    if (np.linalg.norm(A - A_h, axis=(-2, -1)) > 1e-9 * np.maximum(1.0, norm)).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    A = 0.5 * (A + A_h)
    del A_h  # not alive during the eigensolve
    if rank is None or rank < k:
        return _top_eigenpairs(A, k)
    if rank >= n:
        return _subspace_iteration(A, k)
    Q = _orthonormal_basis(A[..., :rank], "the matrix's range")
    AQ = A @ Q
    residual = np.linalg.norm(A - AQ @ herm(Q), axis=(-2, -1))
    doubt = ~(residual < RANGE_RTOL * norm)
    U, w = _top_eigenpairs(herm(Q) @ AQ, k)
    vectors = Q @ U
    _refit(doubt, (vectors, w), lambda A: _top_eigenpairs(A, k), A)
    return vectors, w


def _subspace_iteration(A: np.ndarray, k: int):
    """hermitian_top_eigvectors' route for `rank` >= n (see there), on
    S = A / max|A_ij|, so that no product overflows and the scale, a
    maximum, is the same bits in a stack and alone."""
    n = A.shape[-1]
    scale = np.abs(A).max(axis=(-2, -1))
    S = A / np.where(scale > 0, scale, 1.0)[..., None, None]
    S2 = S @ S
    start = np.argsort(-S.diagonal(axis1=-2, axis2=-1).real, axis=-1, kind="stable")[..., :k]
    X = np.take_along_axis(S, start[..., None, :], axis=-1)
    for _ in range(SUBSPACE_STEPS):
        X = S2 @ _orthonormal_basis(X, "the iterated subspace")
    Q = _orthonormal_basis(X, "the iterated subspace")
    SQ = S @ Q
    U, w = _top_eigenpairs(herm(Q) @ SQ, k)
    vectors, SV = Q @ U, SQ @ U
    residual = np.linalg.norm(SV - vectors * w[..., None, :], axis=(-2, -1))
    # ||P S P||_F^2 = ||S||_F^2 - 2 ||S V||_F^2 + sum w^2, P = I - V V^H,
    # bounds w_{k+1} by Courant-Fischer; the guard covers its cancellation
    square = np.linalg.norm(S, axis=(-2, -1)) ** 2
    rest = square - 2 * np.linalg.norm(SV, axis=(-2, -1)) ** 2 + np.sum(w * w, axis=-1)
    gap = w[..., -1] - np.sqrt(np.maximum(rest + 4 * n * np.finfo(float).eps * square, 0.0))
    doubt = ~(residual < SUBSPACE_RTOL * gap)  # so gap > 0 too
    w = w * scale[..., None]
    _refit(doubt, (vectors, w), lambda A: _top_eigenpairs(A, k), A)
    return vectors, w


def _orthonormal_basis(X: np.ndarray, what: str) -> np.ndarray:
    """Q of the thin Householder QR of X (of every matrix of a stack)."""
    return _lapack(f"QR of {what} did not converge", np.linalg.qr, X)[0]


def _top_eigenpairs(A: np.ndarray, k: int):
    """Top-k eigenpairs of A (LAPACK eigh reads its lower triangle)."""
    w, v = _lapack("eigendecomposition did not converge", np.linalg.eigh, A)
    order = np.argsort(-w, axis=-1, kind="stable")[..., :k]
    return np.take_along_axis(v, order[..., None, :], axis=-1), np.take_along_axis(w, order, axis=-1)


def inverse_gramian(gamma: np.ndarray) -> np.ndarray:
    """The inverse of the Hermitian PSD matrix gamma (or of every matrix of
    a stack), np.linalg.inv's bits, once it is screened as numerically
    invertible: the smallest eigenvalue of 0.5 (gamma + gamma^H) exceeds
    GRAMIAN_RCOND of its largest, which is positive, else DegeneracyError.

    The screen reads the inverse first. A matrix passes outright when
    ||gamma||_F ||gamma^{-1}||_F GRAMIAN_RCOND < 1/2, from the squared
    norms of both (a product that overflows, or is 0 times inf, fails,
    without a warning); only the others take the eigvalsh screen. Every
    singular value of a passing gamma exceeds
    1 / ||gamma^{-1}||_F > 2 GRAMIAN_RCOND ||gamma||_F. A gamma that is
    PSD to rounding, as every sum of A^H A is, has no eigenvalue below
    about -eps ||gamma||, so a passing one is positive definite with
    w_min > 2 GRAMIAN_RCOND w_max. The factor 2 covers three roundings,
    each relatively about eps times the condition number (under 5e9):
    the computed inverse's, gamma's antihermitian part, and eigvalsh's.
    So a pass is a pass of the eigvalsh screen, and the raise/no-raise
    decision is that screen's alone. np.linalg.inv fails only on an
    exactly singular matrix, which that screen fails too, so its failure
    raises the screen's DegeneracyError at once."""
    inverse = _lapack(
        "channel Gramian is numerically singular", np.linalg.inv, gamma, error=DegeneracyError
    )
    with np.errstate(over="ignore", invalid="ignore"):
        squared_bound = _squared_norms(gamma) * _squared_norms(inverse)
    doubt = ~(squared_bound < (0.5 / GRAMIAN_RCOND) ** 2)
    if doubt.any():
        _screen_gramian(gamma[doubt])
    return inverse


def _squared_norms(M: np.ndarray) -> np.ndarray:
    """||M||_F^2 of every matrix of a stack, summed over a float view of M
    (no complex temporary)."""
    x = np.ascontiguousarray(M).view(float)
    return np.einsum("...ij,...ij->...", x, x)


def _screen_gramian(gamma: np.ndarray) -> None:
    """inverse_gramian's eigvalsh screen: DegeneracyError unless every
    matrix's 0.5 (gamma + gamma^H) has its smallest eigenvalue above
    GRAMIAN_RCOND of its largest, which is positive."""
    symmetric = 0.5 * (gamma + herm(gamma))
    w = _lapack("eigenvalues of the channel Gramian did not converge", np.linalg.eigvalsh, symmetric)
    if (w[..., -1] <= 0).any() or (w[..., 0] <= GRAMIAN_RCOND * w[..., -1]).any():
        raise DegeneracyError("channel Gramian is numerically singular")


def pseudo_inverse(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below PINV_RTOL * sigma_max are treated as
    exactly zero.
    """
    U, sigma, V = economy_svd(M)
    keep = sigma > PINV_RTOL * sigma[..., :1]
    inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=keep)
    return (V * inv[..., None, :]) @ herm(U)


def zf_filters(ue, interferers, out=None) -> list:
    """Channel side of centralized ZF for methods that share their UE
    channels: for each entry of `interferers`, the UE rows (..., K, L N),
    the first K = ue.shape[-1], of the pseudo-inverse of the stacked
    network-wide matrix A = [E, G] (..., L N, K + K_I). E holds the UE
    channels `ue` (..., L, N, K); G holds the entry, interferer channels
    (..., L, N, K_I) that broadcast against ue's stack axes (one shape
    for all entries), or None for a method that detects over E alone.
    Written into `out`'s arrays, one per entry, when given; returns the
    list of filters.

    E is factored once for every method by a Householder QR, E = Q1 R11,
    and each G by one K_I-column QR of its residual, G - Q1 C = Q2 R22
    with C = Q1^H G, so A = [Q1, Q2] R with R = [[R11, C], [0, R22]]
    (Golub & Van Loan, Matrix Computations, 4th ed., section 5.2). At full
    column rank the UE rows of R^{-1} [Q1, Q2]^H are R11^{-1} Q1^H - X
    Q2^H with X = R11^{-1} C R22^{-1}; without G, R11^{-1} Q1^H alone.
    Only R22 is kept of the residual's QR, and Q2^H = R22^{-H} W^H from
    the residual W itself. The block Gram-Schmidt step and that Q2 each
    leave [Q1, Q2] off orthonormal by about eps cond(A), and the rows off
    by as much, relatively.

    Each matrix is screened with pseudo_inverse's rtol = PINV_RTOL on
    bounds that the triangular R gives for A's singular values: min|r_ii|
    <= rtol max|r_ii| over diag(R11) and diag(R22) means the SVD would
    drop one (sigma_min <= min|r_ii| <= max|r_ii| <= sigma_max), and
    ||R||_F ||R^{-1}||_F rtol < 1, both norms summed over the blocks,
    means it keeps them all (cond(A) <= ||R||_F ||R^{-1}||_F), so both
    routes agree to rounding. A matrix that fails either test gets
    pseudo_inverse (_refit); a wide A (L N < K + K_I) goes to
    pseudo_inverse whole.
    """
    *stack, L, N, K = ue.shape
    n = L * N
    E = ue.reshape(*stack, n, K)
    Gs = [
        None if G is None or G.shape[-1] == 0 else G.reshape(*G.shape[:-3], n, G.shape[-1])
        for G in interferers
    ]
    shapes = [tuple(stack) if G is None else np.broadcast_shapes(stack, G.shape[:-2]) for G in Gs]
    widths = [K if G is None else K + G.shape[-1] for G in Gs]
    # each method's [E, G] as broadcast views, for pseudo_inverse
    pairs = [
        None if G is None else (np.broadcast_to(E, (*s, n, K)), np.broadcast_to(G, (*s, n, w - K)))
        for G, s, w in zip(Gs, shapes, widths)
    ]
    if out is None:
        out = [np.empty((*shape, K, n), dtype=complex) for shape in shapes]
    for pair, F, w in zip(pairs, out, widths):
        if n < w:
            A = E if pair is None else np.concatenate(pair, axis=-1)
            F[...] = pseudo_inverse(A)[..., :K, :]
    alone = [i for i, G in enumerate(Gs) if G is None and n >= K]
    paired = [i for i, G in enumerate(Gs) if G is not None and n >= widths[i]]
    if not alone + paired:
        return out
    Q1, R11 = _lapack("QR pseudo-inverse failed", np.linalg.qr, E)
    Q1_h = np.conj(Q1, out=Q1).swapaxes(-1, -2)  # Q1^H, a view
    p11 = np.abs(np.diagonal(R11, axis1=-2, axis2=-1))
    # the screen, which an overflowing or non-finite A fails without a
    # warning; a NaN pivot counts as singular, so pseudo_inverse rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        singular = ~(p11.min(axis=-1) > PINV_RTOL * p11.max(axis=-1))
        R11_inv = _regular_inverse(R11, singular)
        norms11 = _squared_norms(R11), _squared_norms(R11_inv)
        doubt = singular | ~(norms11[0] * norms11[1] * PINV_RTOL**2 < 1)
    del R11
    first = R11_inv @ Q1_h  # the first term, R11^{-1} Q1^H
    for i in alone:
        out[i][...] = first
        _refit(doubt, (out[i],), lambda E: (pseudo_inverse(E),), E)
    if not paired:
        return out
    G = np.stack([Gs[i] for i in paired])
    # a leading method axis, before the stack axes of ue and G
    G = G.reshape(len(paired), *(1,) * (len(stack) - G.ndim + 3), *G.shape[1:])
    C = Q1_h @ G
    W_h = np.matmul(herm(C), Q1_h)  # the residual W, conjugate transposed
    np.subtract(herm(G), W_h, out=W_h)
    del Q1, Q1_h, G  # not alive during the residuals' QR
    W = W_h.swapaxes(-1, -2)  # conj(W), whose R is conj(R22)
    R22 = np.conj(_lapack("QR pseudo-inverse failed", np.linalg.qr, W, "r"))
    p22 = np.abs(np.diagonal(R22, axis1=-2, axis2=-1))
    with np.errstate(over="ignore", invalid="ignore"):
        # the pivots of R11 and R22 together, the norms of the block R and
        # of its block inverse [[R11^{-1}, -X], [0, R22^{-1}]]
        low = np.minimum(p11.min(axis=-1), p22.min(axis=-1))
        high = np.maximum(p11.max(axis=-1), p22.max(axis=-1))
        singular = ~(low > PINV_RTOL * high)
        R22_inv = _regular_inverse(R22, singular)
        X = R11_inv @ C @ R22_inv
        R_norms = norms11[0] + _squared_norms(C) + _squared_norms(R22)
        R_inv_norms = norms11[1] + _squared_norms(X) + _squared_norms(R22_inv)
        doubt = singular | ~(R_norms * R_inv_norms * PINV_RTOL**2 < 1)
    Y = X @ herm(R22_inv)  # X Q2^H = Y W^H
    del C, R22, R22_inv, X, W
    for j, i in enumerate(paired):
        # formed apart, then copied: a ufunc on a strided out[i] buffers
        ue_rows = Y[j] @ W_h[j]
        out[i][...] = np.subtract(first, ue_rows, out=ue_rows)
        del ue_rows
        _refit(
            doubt[j],
            (out[i],),
            lambda E, G: (pseudo_inverse(np.concatenate((E, G), axis=-1))[..., :K, :],),
            *pairs[i],
        )
    return out


def _regular_inverse(R, singular):
    """The inverse of every triangular R of a stack, with I in place of
    each R that `singular` marks, so that inv never sees one."""
    R = np.where(singular[..., None, None], np.eye(R.shape[-1]), R)
    return _lapack("QR pseudo-inverse failed", np.linalg.inv, R)
