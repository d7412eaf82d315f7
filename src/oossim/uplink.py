"""Uplink payload simulation and detectors.

Interferers are treated as extra fictitious users: each AP's augmented
channel matrix is [UE estimates, interferer estimates], the detectors
estimate all K + K_I entries, and the last K_I are discarded downstream.
Three detectors are provided: a sequential recursive LS along the chain,
a distributed zero-forcing (combine locally, solve at the CPU), and the
centralized zero-forcing baseline on the stacked network-wide matrix.
Detectors and bit counting also take a leading block axis on every
array (augmented channels (B, L, N, m), payload (B, L, N, T), symbols
(B, K, T)) and then handle B blocks in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fronthaul import (
    Chain,
    channel_gramian_message,
    combined_uplink_message,
    detector_state_message,
)
from .numerics import NumericalFailure, check_invertible, herm, pseudo_inverse
from .scenario import BlockRealization, SystemConfig, crandn

QPSK_POINTS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


@dataclass
class UplinkSymbolBatch:
    """Payload symbols for one block: unit-power QPSK per UE, Gaussian
    interferer symbols, and the per-AP received vectors."""

    x: np.ndarray  # (K, T) unit QPSK
    s: np.ndarray  # (K_I, T)
    y: np.ndarray  # (L, N, T)


@dataclass
class DetectorState:
    """Sequential estimate and its error covariance after the last hop."""

    xhat: np.ndarray  # (K + K_I, T)
    C: np.ndarray  # (K + K_I, K + K_I), Hermitian PSD


@dataclass
class BerStats:
    ber: float
    bit_count: int
    bit_errors: int
    ci_low: float
    ci_high: float
    per_ue: np.ndarray


def draw_qpsk(rng: np.random.Generator, K: int, T: int) -> np.ndarray:
    """Gray-mapped unit-power QPSK: bits (b1, b0) -> ((1-2b1) + i(1-2b0))/sqrt(2)."""
    b = rng.integers(0, 2, size=(2, K, T))
    return ((1 - 2 * b[0]) + 1j * (1 - 2 * b[1])) / np.sqrt(2.0)


def simulate_uplink_rx(
    block: BlockRealization,
    cfg: SystemConfig,
    rng: np.random.Generator,
    n_symbols: int | None = None,
    include_noise: bool = True,
) -> UplinkSymbolBatch:
    """Received payload per AP: y_l = sqrt(rho) H_l x + G_l s + n_l.

    x holds unit-power QPSK (the transmit scaling sqrt(rho) is applied to
    the received signal, so hard decisions stay scale free); interferer
    symbols are complex Gaussian at their own transmit power.
    """
    T = n_symbols if n_symbols is not None else cfg.tau_c - cfg.tau_p
    if T < 1:
        raise ValueError("need at least one payload symbol")
    x = draw_qpsk(rng, cfg.K, T)
    s = np.sqrt(cfg.oos_snr) * crandn(rng, cfg.K_I, T)
    y = np.sqrt(cfg.rho) * (block.H @ x)
    if cfg.K_I:
        y = y + block.G @ s
    if include_noise:
        y = y + crandn(rng, cfg.L, cfg.N, T)
    return UplinkSymbolBatch(x=x, s=s, y=y)


def detect_sequential_ls(
    batch: UplinkSymbolBatch, aug: np.ndarray, cfg: SystemConfig, chain: Chain
) -> DetectorState:
    """Recursive LS along the chain, starting from a diffuse prior.

    At each AP: gain T_l = C A_l^H (I + A_l C A_l^H)^{-1}, innovation
    update of the estimate, covariance contraction C <- (I - T_l A_l) C.
    The prior covariance alpha*I keeps the estimator unbiased toward the
    zero initialization; unit noise variance is assumed throughout.
    Each hop forwards the estimate and the covariance.
    """
    L, N, m = aug.shape[-3:]
    T = batch.y.shape[-1]
    eye_N, eye_m = np.eye(N, dtype=complex), np.eye(m, dtype=complex)

    def fold(ap, msg):
        if msg is None:
            xhat = np.zeros((m, T), dtype=complex)
            C = cfg.alpha * eye_m
        else:
            xhat, C = msg.payload
        A = aug[..., ap - 1, :, :]
        AC = A @ C
        inner = eye_N + AC @ herm(A)
        try:
            gain = herm(np.linalg.solve(inner, AC))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("sequential LS inner solve failed") from exc
        xhat = xhat + gain @ (batch.y[..., ap - 1, :, :] - A @ xhat)
        C = (eye_m - gain @ A) @ C
        C = 0.5 * (C + herm(C))
        return detector_state_message(xhat, C)

    final = chain.run("uplink_seq_ls", fold)
    return DetectorState(*final.payload)


def accumulate_channel_gramian(aug: np.ndarray, chain: Chain) -> np.ndarray:
    """Add-and-forward the per-AP channel Gramians; returns their sum."""
    m = aug.shape[-1]

    def fold(ap, msg):
        acc = np.zeros((m, m), dtype=complex) if msg is None else msg.payload
        A = aug[..., ap - 1, :, :]
        return channel_gramian_message(acc + herm(A) @ A)

    return chain.run("channel_gramian", fold).payload


def detect_distributed_zf(
    batch: UplinkSymbolBatch, aug: np.ndarray, gamma: np.ndarray, chain: Chain
) -> np.ndarray:
    """Combine locally with A_l^H, accumulate along the chain, solve at the CPU.

    Returns the (K + K_I, T) estimates; the last K_I rows are the
    fictitious-user symbols and are discarded by the caller. Identical to
    the centralized zero-forcing solution whenever gamma is invertible.
    """
    m = aug.shape[-1]
    T = batch.y.shape[-1]
    check_invertible(gamma)

    def fold(ap, msg):
        acc = np.zeros((m, T), dtype=complex) if msg is None else msg.payload
        A = aug[..., ap - 1, :, :]
        return combined_uplink_message(acc + herm(A) @ batch.y[..., ap - 1, :, :])

    ybar = chain.run("uplink_combine", fold).payload
    return np.linalg.solve(gamma, ybar)


def detect_centralized(batch: UplinkSymbolBatch, aug: np.ndarray) -> np.ndarray:
    """Zero-forcing baseline on the stacked network-wide channel matrix."""
    *stack, L, N, m = aug.shape
    A = aug.reshape(*stack, L * N, m)
    y = batch.y.reshape(*stack, L * N, batch.y.shape[-1])
    return pseudo_inverse(A) @ y


def count_bit_errors(estimates: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-UE Gray-mapped bit errors after nearest-point slicing.

    For Gray QPSK the nearest constellation point is determined by the
    quadrant, so one bit error per wrong real-part sign and one per wrong
    imaginary-part sign.
    """
    if estimates.shape != truth.shape:
        raise ValueError("estimate/truth shapes differ")
    re_err = (estimates.real > 0) != (truth.real > 0)
    im_err = (estimates.imag > 0) != (truth.imag > 0)
    return (re_err.sum(axis=-1) + im_err.sum(axis=-1)).astype(int)


def wilson_interval(errors: int, n: int, z: float = 1.959963984540054):
    """Wilson score interval for a binomial proportion (95% by default)."""
    if n < 1:
        raise ValueError("need at least one trial")
    p = errors / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == n else min(1.0, center + half)
    return lo, hi


def evaluate_ber(estimates: np.ndarray, truth: np.ndarray) -> BerStats:
    """Slice UE estimates to the nearest QPSK point and count bit errors.

    estimates/truth are (K, T); interferer rows must already be excluded.
    Reports the aggregate BER with a 95% binomial confidence interval and
    the per-UE BERs.
    """
    if estimates.size == 0:
        raise ValueError("empty symbol stream")
    per_ue_errors = count_bit_errors(estimates, truth)
    K, T = estimates.shape
    bit_count = 2 * K * T
    total = int(per_ue_errors.sum())
    lo, hi = wilson_interval(total, bit_count)
    return BerStats(
        ber=total / bit_count,
        bit_count=bit_count,
        bit_errors=total,
        ci_low=lo,
        ci_high=hi,
        per_ue=per_ue_errors / (2 * T),
    )
