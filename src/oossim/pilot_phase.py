"""Pilot-phase synthesis, local LS channel estimation, projected residuals.

The projected residual removes everything the pilots explain, leaving per
AP a low-dimensional matrix that contains only OoS interference plus
noise; its column space in the complement basis is what the distributed
estimators operate on. A block realization may carry a leading block axis
on every array; each function then works block by block.
"""

from __future__ import annotations

import numpy as np

from .numerics import herm
from .scenario import BlockRealization, PilotBook, SystemConfig


def _pilot_scale(cfg: SystemConfig) -> float:
    return float(np.sqrt(cfg.rho * cfg.tau_p))


def pilot_interference(block: BlockRealization) -> np.ndarray:
    """What each AP receives during the pilot phase besides its users'
    pilots: G_l S^H + N_l, shape (L, N, tau_p). Independent of rho."""
    if block.G.shape[-1]:
        return block.G @ herm(block.S)[..., None, :, :] + block.pilot_noise
    return block.pilot_noise


def simulate_pilot_rx(
    block: BlockRealization,
    pilots: PilotBook,
    cfg: SystemConfig,
    interference: np.ndarray | None = None,
) -> np.ndarray:
    """Received pilot matrix per AP: scaled pilots + interference + noise.

    Returns Y with shape (L, N, tau_p), Y_l = sqrt(snr*tau_p) H_l Phi^H
    + G_l S^H + N_l. `interference`, when given, is the block's
    pilot_interference(block), which does not depend on rho, so a sweep
    over rho computes it once.
    """
    L, N, K = block.H.shape[-3:]
    if pilots.Phi.shape != (cfg.tau_p, K) or block.S.shape[-2] != cfg.tau_p:
        raise ValueError("pilot book / block dimensions are inconsistent")
    if block.pilot_noise.shape[-3:] != (L, N, cfg.tau_p):
        raise ValueError("pilot noise has wrong shape")
    if interference is None:
        interference = pilot_interference(block)
    return _pilot_scale(cfg) * (block.H @ herm(pilots.Phi)) + interference


def ls_channel_estimate(obs: np.ndarray, pilots: PilotBook, cfg: SystemConfig) -> np.ndarray:
    """Local least-squares channel estimate per AP: Hhat_l = Y_l Phi / scale."""
    return (obs @ pilots.Phi) / _pilot_scale(cfg)


def compute_projected_residual(obs: np.ndarray, pilots: PilotBook) -> np.ndarray:
    """Received pilot-phase matrix expressed in the pilots' complement basis:
    obs @ Psi, shape (L, N, tau_p - K). Because Phi^H Psi = 0 the users'
    pilots drop out, so for Y it equals (G_l S^H + N_l) Psi, the residual
    that remains after removing the LS-estimated pilot contribution.
    """
    return obs @ pilots.Psi
