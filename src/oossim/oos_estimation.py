"""Distributed estimation of the shared projected interference signal.

Every AP sees the same interferer signal through a different channel, so
the per-AP SVD estimates of its coordinates in the complement basis agree
only up to a unitary rotation. The rotate-and-average pass resolves the
ambiguity at each hop: the first AP forwards its local estimate, and each
later AP aligns its own to the incoming one (procrustes_rotation) and
forwards the average. The Gramian pass sums residual Gramians along the
chain and lets the CPU eigendecompose the total, which reproduces
centralized_oos_oracle up to a unitary rotation of the columns.

On a stack of residuals (B, L, N, tau_p - K) (the stack rule:
numerics), a chain pass carries B chain states, one fold per hop.
"""

from __future__ import annotations

import numpy as np

from .fronthaul import Chain, add_gramian, hermitian_symbols, matrix_symbols
from .numerics import (
    DegeneracyError,
    _as_finite_matrix,
    _orthonormal_basis,
    economy_svd,
    herm,
    hermitian_top_eigvectors,
    shared_matmul,
    top_singular_triplets,
)
from .scenario import SystemConfig

# Chain phases of both chain estimators, once per block: (to the CPU, its broadcast)
OOS_PHASES = ("oos_forward", "oos_broadcast")


def local_svd_estimate(zpsi_l: np.ndarray, K_I: int):
    """Best rank-K_I factorization of one AP's projected residual.

    Returns (Sbar_local, G_local): the top-K_I right singular vectors
    (orthonormal columns) and the top-K_I left singular vectors scaled by
    the singular values, so G_local @ Sbar_local^H is the optimal rank-K_I
    approximation of zpsi_l, from top_singular_triplets (whose docstring
    gives the route that N <= tau_p - K takes).

    The columns take the phase convention of _fix_column_phases:
    local_processing stacks the APs' G_local unaligned, so their phases
    set the column space its detector sees (without the convention its
    0 dB BER in a 150-block default_spec() sweep moves 0.018884 ->
    0.019831). Every other method sees the estimate up to a unitary change.
    """
    U, sigma, V = top_singular_triplets(zpsi_l, K_I)
    U, V = _fix_column_phases(U, V)
    return V, U * sigma[..., None, :]


def _fix_column_phases(U: np.ndarray, V: np.ndarray):
    """Turn each column of U so its largest-magnitude entry is real and
    >= 0, and V's matching column by the same phase, so U diag(s) V^H is
    unchanged. An all-zero column is left as it is."""
    rows = np.argmax(np.abs(U), axis=-2)[..., None, :]
    pivots = np.take_along_axis(U, rows, axis=-2)
    mags = np.abs(pivots)
    phases = np.divide(pivots, mags, out=np.ones_like(pivots), where=mags > 0).conj()
    return U * phases, V * phases


def _local_signal_basis(zpsi_l: np.ndarray, K_I: int) -> np.ndarray:
    """Local estimate used on the chain, tolerating K_I above the rank bound.

    With more interferers than antennas the residual exposes only N signal
    directions; the remaining columns are a deterministic but uninformative
    completion of them. This is what makes the rotate-and-average method
    degrade in that regime, while the Gramian accumulation (whose rank
    grows with the AP count) does not.

    For N < K_I <= r = tau_p - K the basis is the first K_I columns of the
    complete Householder Q of zpsi_l^H (r x N), with no phase convention.
    They come from one thin QR of [zpsi_l^H, 0], padded to K_I columns:
    Householder QR takes the identity as the reflector of a zero column,
    so its Q is those columns (Golub & Van Loan, Matrix Computations, 4th
    ed., section 5.2). The first N columns span zpsi_l's row space, as
    its top N right singular vectors do, up to a unitary change W that
    the Procrustes rotation and every later stage absorb (they see the
    estimate through its column space). Where r >= floor(17 N / 9),
    LAPACK's full SVD (gesdd) factors zpsi_l = L Q first, so its
    null-space completion is these columns to rounding and column phase.
    Below that bound gesdd bidiagonalizes directly, and its completion
    differs from this one: both are valid, but this one is set by the
    formula above.
    """
    n, r = zpsi_l.shape[-2:]
    if K_I <= min(n, r):
        return local_svd_estimate(zpsi_l, K_I)[0]
    if K_I > r:
        raise ValueError(f"K_I={K_I} exceeds the residual dimension {r}")
    padded = np.zeros((*zpsi_l.shape[:-2], r, K_I), dtype=complex)
    padded[..., :n] = herm(_as_finite_matrix(zpsi_l, "zpsi_l"))
    return _orthonormal_basis(padded, "the local residual")


def procrustes_rotation(
    S_prev: np.ndarray, S_local: np.ndarray, diagnostics=None
) -> np.ndarray:
    """Unitary Q minimizing ||S_local Q^H - S_prev||_F.

    Q = V U^H from the SVD of S_local^H S_prev = U diag(s) V^H
    (Schoenemann, Psychometrika 1966), whose column phases cancel. When
    the cross-Gramian is rank deficient the minimizer is not unique;
    LAPACK's deterministic completion is used and the event counted on
    `diagnostics`, once per degenerate matrix of a stack.
    """
    if S_prev.shape != S_local.shape:
        raise ValueError("estimates must have matching shapes")
    U, sigma, V = economy_svd(herm(S_local) @ S_prev)
    if diagnostics is not None and sigma.shape[-1]:
        top = sigma[..., 0]
        degenerate = (top == 0.0) | (sigma[..., -1] <= 1e-12 * top)
        diagnostics.degenerate_rotations += int(np.count_nonzero(degenerate))
    return V @ herm(U)


def rotate_and_average_step(
    S_prev: np.ndarray, S_local: np.ndarray, diagnostics=None
) -> np.ndarray:
    """Align the local estimate onto the incoming one by the Procrustes
    rotation Q, then average: (S_prev + S_local Q^H) / 2."""
    Q = procrustes_rotation(S_prev, S_local, diagnostics)
    return 0.5 * (S_prev + S_local @ herm(Q))


def run_sequential_procrustes(
    zpsi: np.ndarray,
    cfg: SystemConfig,
    chain: Chain,
    diagnostics=None,
    local_bases: np.ndarray | None = None,
) -> np.ndarray:
    """Rotate-and-average along the AP chain; broadcast the CPU estimate back.

    Returns the (tau_p - K) x K_I estimate delivered to the CPU.
    `local_bases`, when given, holds the local estimates
    (local_svd_estimate(zpsi, K_I)[0], defined for K_I <= N).
    """
    locals_ = _local_signal_basis(zpsi, cfg.K_I) if local_bases is None else local_bases

    def fold(S, local):
        return local if S is None else rotate_and_average_step(S, local, diagnostics)

    final = chain.run(OOS_PHASES[0], fold, matrix_symbols, None, locals_)
    chain.broadcast(OOS_PHASES[1], final, matrix_symbols)
    return final


def run_gramian_method(zpsi: np.ndarray, cfg: SystemConfig, chain: Chain) -> np.ndarray:
    """Add-and-forward residual Gramians; CPU keeps the dominant eigenvectors.

    Per-link payload is the full (tau_p - K)^2 Hermitian Gramian, so the
    load is independent of the number of interferers. The total adds L
    Gramians of rank at most N, so hermitian_top_eigvectors takes
    rank = L N, which picks its route (the numerics module lists them).
    The returned estimate has orthonormal columns.
    """
    L, N = zpsi.shape[-3:-1]
    total = chain.run(OOS_PHASES[0], add_gramian, hermitian_symbols, None, zpsi)
    vectors, _ = hermitian_top_eigvectors(total, cfg.K_I, rank=L * N)
    chain.broadcast(OOS_PHASES[1], vectors, matrix_symbols)
    return vectors


def estimate_oos_channels(zpsi: np.ndarray, Sbar: np.ndarray) -> np.ndarray:
    """Per-AP interferer channel estimates from the shared signal estimate.

    Ghat_l = Z_l Psi Sbar (Sbar^H Sbar)^{-1}, with the right factor formed
    as U Sigma^{-1} V^H from the SVD Sbar = U Sigma V^H (Golub & Van Loan,
    4th ed., section 5.5), which keeps Sbar's condition number. The same
    SVD screens Sbar: one not numerically full column rank (smallest
    singular value <= 1e-9 of the largest) is a NumericalFailure. The
    sweep calls it for seq_procrustes only (experiments._interferer_channels).
    """
    U, sigma, V = economy_svd(Sbar)
    if sigma.shape[-1] == 0 or np.any(sigma[..., -1] <= 1e-9 * sigma[..., 0]):
        raise DegeneracyError("shared-signal estimate is rank deficient")
    return shared_matmul(zpsi, (U / sigma[..., None, :]) @ herm(V))


def centralized_oos_oracle(zpsi: np.ndarray, K_I: int):
    """Reference solution: best rank-K_I factorization of the stacked residuals.

    Returns (Sbar, Ghat) with Ghat shaped (L, N, K_I).
    """
    L, N, r = zpsi.shape
    if K_I > min(L * N, r):
        raise ValueError(f"K_I={K_I} exceeds the stacked matrix rank bound")
    stacked = zpsi.reshape(L * N, r)
    U, sigma, V = economy_svd(stacked)
    G = (U[:, :K_I] * sigma[:K_I]).reshape(L, N, K_I)
    return V[:, :K_I], G
