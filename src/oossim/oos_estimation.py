"""Distributed estimation of the shared projected interference signal.

Every AP sees the same interferer signal through a different channel, so
the per-AP SVD estimates of its coordinates in the complement basis agree
only up to a unitary rotation. The rotate-and-average pass resolves the
ambiguity with a Procrustes alignment at each hop; the Gramian pass sums
residual Gramians along the chain and lets the CPU eigendecompose the
total, which reproduces the centralized solution exactly.

Every function also takes residuals with a leading block axis,
(B, L, N, tau_p - K), and then carries a stack of B chain states through
one pass: each hop's fold runs once for all B blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fronthaul import Chain, broadcast_message, residual_gramian_message, sbar_message
from .numerics import (
    DegeneracyError,
    _fix_column_phases,
    economy_svd,
    herm,
    hermitian_top_eigvectors,
)
from .scenario import SystemConfig


@dataclass
class ChainDiagnostics:
    """Counters for degenerate events the algorithms tolerate but flag."""

    degenerate_rotations: int = 0


def local_svd_estimate(zpsi_l: np.ndarray, K_I: int):
    """Best rank-K_I factorization of one AP's projected residual.

    Returns (Sbar_local, G_local): the top-K_I right singular vectors
    (orthonormal columns) and the top-K_I left singular vectors scaled by
    the singular values, so G_local @ Sbar_local^H is the optimal rank-K_I
    approximation of zpsi_l. A stack of residuals (every AP of a block, or
    of several blocks) is factorized in one call.
    """
    n, r = zpsi_l.shape[-2:]
    if K_I < 1 or K_I > min(n, r):
        raise ValueError(f"K_I={K_I} must be in 1..min{(n, r)}")
    U, sigma, V = economy_svd(zpsi_l)
    return V[..., :K_I], U[..., :K_I] * sigma[..., None, :K_I]


def _local_signal_basis(zpsi_l: np.ndarray, K_I: int) -> np.ndarray:
    """Local estimate used on the chain, tolerating K_I above the rank bound.

    With more interferers than antennas the residual exposes only N signal
    directions; the remaining columns are a deterministic but uninformative
    basis from the full SVD's null space. This is what makes the
    rotate-and-average method degrade in that regime, while the Gramian
    accumulation (whose rank grows with the AP count) does not.
    """
    n, r = zpsi_l.shape[-2:]
    if K_I <= min(n, r):
        return local_svd_estimate(zpsi_l, K_I)[0]
    if K_I > r:
        raise ValueError(f"K_I={K_I} exceeds the residual dimension {r}")
    _, _, Vh = np.linalg.svd(zpsi_l, full_matrices=True)
    return _fix_column_phases(herm(Vh)[..., :K_I])


def procrustes_rotation(
    S_prev: np.ndarray, S_local: np.ndarray, diagnostics: ChainDiagnostics | None = None
) -> np.ndarray:
    """Unitary Q minimizing ||S_local Q^H - S_prev||_F.

    Q = V U^H from the SVD of S_local^H S_prev = U diag(s) V^H. When the
    cross-Gramian is rank deficient the minimizer is not unique; the SVD's
    deterministic completion is used and the event counted, once per
    degenerate matrix of a stack.
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
    S_prev: np.ndarray, S_local: np.ndarray, diagnostics: ChainDiagnostics | None = None
) -> np.ndarray:
    """Align the local estimate onto the incoming one, then average."""
    Q = procrustes_rotation(S_prev, S_local, diagnostics)
    return 0.5 * (S_prev + S_local @ herm(Q))


def run_sequential_procrustes(
    zpsi: np.ndarray,
    cfg: SystemConfig,
    chain: Chain,
    diagnostics: ChainDiagnostics | None = None,
) -> np.ndarray:
    """Rotate-and-average along the AP chain; broadcast the CPU estimate back.

    zpsi: (L, N, tau_p - K) projected residuals. The first AP in the visit
    order forwards its local SVD estimate; every later AP aligns its own
    local estimate to the incoming one and forwards the average. Returns
    the (tau_p - K) x K_I estimate delivered to the CPU. The local
    estimates of all APs are computed in one call before the pass.
    """
    if cfg.K_I == 0:
        return np.zeros(zpsi.shape[:-3] + (cfg.tau_p - cfg.K, 0), dtype=complex)
    locals_ = _local_signal_basis(zpsi, cfg.K_I)

    def fold(ap, msg):
        local = locals_[..., ap - 1, :, :]
        if msg is None:
            return sbar_message(local)
        return sbar_message(rotate_and_average_step(msg.payload, local, diagnostics))

    final = chain.run("oos_forward", fold)
    chain.broadcast("oos_broadcast", broadcast_message(final))
    return final.payload


def run_gramian_method(zpsi: np.ndarray, cfg: SystemConfig, chain: Chain) -> np.ndarray:
    """Add-and-forward residual Gramians; CPU keeps the dominant eigenvectors.

    Per-link payload is the full (tau_p - K)^2 Hermitian Gramian, so the
    load is independent of the number of interferers. The returned
    estimate has orthonormal columns.
    """
    if cfg.K_I == 0:
        return np.zeros(zpsi.shape[:-3] + (cfg.tau_p - cfg.K, 0), dtype=complex)
    r = cfg.tau_p - cfg.K

    def fold(ap, msg):
        acc = np.zeros((r, r), dtype=complex) if msg is None else msg.payload
        z = zpsi[..., ap - 1, :, :]
        return residual_gramian_message(acc + herm(z) @ z)

    final = chain.run("oos_forward", fold)
    vectors, _ = hermitian_top_eigvectors(final.payload, cfg.K_I)
    chain.broadcast("oos_broadcast", broadcast_message(sbar_message(vectors)))
    return vectors


def estimate_oos_channels(zpsi: np.ndarray, Sbar: np.ndarray) -> np.ndarray:
    """Per-AP interferer channel estimates from the shared signal estimate.

    Ghat_l = Z_l Psi Sbar (Sbar^H Sbar)^{-1}; requires Sbar numerically
    full column rank (smallest singular value > 1e-9 of the largest), for
    each block of a stack.
    """
    sigma = np.linalg.svd(Sbar, compute_uv=False)
    if sigma.shape[-1] == 0 or np.any(sigma[..., -1] <= 1e-9 * sigma[..., 0]):
        raise DegeneracyError("shared-signal estimate is rank deficient")
    right = Sbar @ np.linalg.inv(herm(Sbar) @ Sbar)
    return zpsi @ right[..., None, :, :]


def centralized_oos_oracle(zpsi: np.ndarray, K_I: int):
    """Reference solution: best rank-K_I factorization of the stacked residuals.

    Returns (Sbar, Ghat) with Ghat shaped (L, N, K_I). The distributed
    Gramian pass must match this up to a unitary rotation of the columns.
    """
    L, N, r = zpsi.shape
    if K_I == 0:
        return np.zeros((r, 0), dtype=complex), np.zeros((L, N, 0), dtype=complex)
    if K_I > min(L * N, r):
        raise ValueError(f"K_I={K_I} exceeds the stacked matrix rank bound")
    stacked = zpsi.reshape(L * N, r)
    U, sigma, V = economy_svd(stacked)
    G = (U[:, :K_I] * sigma[:K_I]).reshape(L, N, K_I)
    return V[:, :K_I], G
