"""Downlink zero-forcing with nulling toward the interferer directions.

The centralized ZF precoder factors into per-AP pieces A_l Gamma^{-1}, and
the Gamma^{-1}-weighted symbol vector q is AP independent, so the CPU can
compute q once, append zeros for the interferer directions, and broadcast
it; each AP then transmits A_l q. No power normalization is applied; the
per-AP radiated power is reported so the unnormalized ZF cost is visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import check_invertible, herm
from .scenario import BlockRealization, SystemConfig, crandn


@dataclass
class DownlinkResult:
    ue_rx: np.ndarray  # (K, T)
    oos_rx: np.ndarray  # (K_I, T), leakage at the interferers (noise free)
    per_ap_tx_power: np.ndarray  # (L,), mean radiated power per symbol


def build_local_precoders(aug: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Per-AP precoders W_l = A_l Gamma^{-1}; stacked they satisfy A^H W = I."""
    check_invertible(gamma)
    return herm(np.linalg.solve(gamma, herm(aug)))


def compute_partial_precoded(x_dl: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """CPU-side q = Gamma^{-1} [x_dl; 0]: zeros in the interferer directions.

    x_dl is (K,) or (K, T); the zero padding is sized from gamma. q is
    broadcast to every AP (2(K+K_I) real symbols per link per symbol
    period) since it does not depend on the AP index.
    """
    check_invertible(gamma)
    x_dl = np.asarray(x_dl, dtype=complex)
    single = x_dl.ndim == 1
    if single:
        x_dl = x_dl[:, None]
    pad = np.zeros((gamma.shape[0] - x_dl.shape[0], x_dl.shape[1]), dtype=complex)
    q = np.linalg.solve(gamma, np.concatenate([x_dl, pad], axis=0))
    return q[:, 0] if single else q


def simulate_downlink(
    block: BlockRealization,
    aug: np.ndarray,
    q: np.ndarray,
    cfg: SystemConfig,
    rng: np.random.Generator | None = None,
    include_noise: bool = True,
) -> DownlinkResult:
    """Propagate the per-AP transmissions A_l q over the true channels.

    UE receptions get unit-variance noise; the interferer-side output is
    the pure leakage (the metric of interest there is received energy).
    """
    q = np.asarray(q, dtype=complex)
    if q.ndim == 1:
        q = q[:, None]
    tx = aug @ q  # (L, N, T)
    ue_rx = np.sum(herm(block.H) @ tx, axis=0)
    oos_rx = np.sum(herm(block.G) @ tx, axis=0)
    if include_noise:
        if rng is None:
            raise ValueError("rng required when include_noise=True")
        ue_rx = ue_rx + crandn(rng, *ue_rx.shape)
    power = np.mean(np.sum(np.abs(tx) ** 2, axis=1), axis=1)
    return DownlinkResult(ue_rx=ue_rx, oos_rx=oos_rx, per_ap_tx_power=power)
