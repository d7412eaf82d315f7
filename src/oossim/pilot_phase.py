"""Pilot-phase synthesis, local LS channel estimation, and the projected
residuals whose column space the distributed estimators operate on, block
by block on a stacked realization (see scenario).

The received pilots Y_l = sqrt(rho tau_p) H_l Phi^H + G_l S^H + N_l have
two parts that do not depend on the uplink power rho: the pilot product
H_l Phi^H (pilot_product) and the interference G_l S^H + N_l
(pilot_interference). A sweep over rho forms both once per chunk, and
each point only scales, sums and estimates into its own slot of the
span's estimates (point_estimates), with the helpers that
simulate_pilot_rx and ls_channel_estimate are built on.
"""

from __future__ import annotations

import numpy as np

from .numerics import herm, shared_matmul
from .scenario import BlockRealization, PilotBook, SystemConfig


def _pilot_scale(rho: float, tau_p: int) -> float:
    return float(np.sqrt(rho * tau_p))


def _received(product: np.ndarray, interference: np.ndarray, scale: float, out=None) -> np.ndarray:
    obs = np.multiply(product, scale, out=out)
    obs += interference
    return obs


def _ls_estimate(obs: np.ndarray, pilots: PilotBook, scale: float, out=None) -> np.ndarray:
    return np.divide(shared_matmul(obs, pilots.Phi), scale, out=out)


def pilot_interference(block: BlockRealization) -> np.ndarray:
    """What each AP receives during the pilot phase besides its users'
    pilots: G_l S^H + N_l, shape (L, N, tau_p). Independent of rho."""
    return shared_matmul(block.G, herm(block.S)) + block.pilot_noise


def pilot_product(H: np.ndarray, pilots: PilotBook) -> np.ndarray:
    """The users' pilots as each AP receives them before the power scale:
    H_l Phi^H, shape (..., L, N, tau_p). Independent of rho, so
    point_estimates forms it once for every power: in a sweep, once per
    chunk (experiments._draw_pilot)."""
    return shared_matmul(H, herm(pilots.Phi))


def point_estimates(H, interference, pilots: PilotBook, powers, out: np.ndarray) -> np.ndarray:
    """ls_channel_estimate(simulate_pilot_rx(...)) of the blocks with UE
    channels H and pilot_interference `interference` at each uplink power
    of `powers`, bit for bit, written into out[p] (no copy). The pilot
    product is formed once for every power, and each point only scales
    it, adds the interference, multiplies by Phi and divides by its
    scale."""
    product = pilot_product(H, pilots)
    obs = np.empty_like(product)
    for rho, est in zip(powers, out, strict=True):
        scale = _pilot_scale(rho, pilots.Phi.shape[0])
        _ls_estimate(_received(product, interference, scale, out=obs), pilots, scale, out=est)
    return out


def simulate_pilot_rx(block: BlockRealization, pilots: PilotBook, cfg: SystemConfig) -> np.ndarray:
    """Received pilot matrix per AP: scaled pilots + interference + noise.

    Returns Y with shape (L, N, tau_p), Y_l = sqrt(snr*tau_p) H_l Phi^H
    + G_l S^H + N_l.
    """
    L, N, K = block.H.shape[-3:]
    if pilots.Phi.shape != (cfg.tau_p, K) or block.S.shape[-2] != cfg.tau_p:
        raise ValueError("pilot book / block dimensions are inconsistent")
    if block.pilot_noise.shape[-3:] != (L, N, cfg.tau_p):
        raise ValueError("pilot noise has wrong shape")
    scale = _pilot_scale(cfg.rho, cfg.tau_p)
    return _received(pilot_product(block.H, pilots), pilot_interference(block), scale)


def ls_channel_estimate(obs: np.ndarray, pilots: PilotBook, cfg: SystemConfig) -> np.ndarray:
    """Local least-squares channel estimate per AP: Hhat_l = Y_l Phi / scale."""
    return _ls_estimate(obs, pilots, _pilot_scale(cfg.rho, cfg.tau_p))


def compute_projected_residual(obs: np.ndarray, pilots: PilotBook) -> np.ndarray:
    """Received pilot-phase matrix expressed in the pilots' complement basis:
    obs @ Psi, shape (L, N, tau_p - K). Because Phi^H Psi = 0 the users'
    pilots drop out, so for Y it equals (G_l S^H + N_l) Psi, the residual
    that remains after removing the LS-estimated pilot contribution.
    """
    return shared_matmul(obs, pilots.Psi)
