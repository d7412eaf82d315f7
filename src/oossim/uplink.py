"""Uplink payload simulation and detectors.

Interferers are treated as extra fictitious users: each AP's augmented
channel matrix is [UE estimates, interferer estimates], the detectors
estimate all K + K_I entries, and the last K_I are discarded downstream.
The three detectors (sequential LS, distributed ZF, centralized ZF) are
each a channel side, which needs only the augmented channels, and an
apply step, which needs the payload; each detect_* composes the two. The
two chain detectors share the Gramian fold and the apply step apply_chain:
sequential LS starts its Gramian sum from the prior I/alpha, distributed
ZF from the first AP's term and inverts it with numerics.inverse_gramian.

The augmented channels may carry more stack axes (numerics) than the
payload: channels (M, B, L, N, m) of M methods against a payload
(B, L, N, T) give (M, B, m, T) estimates; the payload broadcasts and is
never copied per method. Methods that share the UE columns E share more:
apply_chain combines the payload once with W = [E, G_1, ..., G_M], the
UE columns and every method's interferer columns, and hands each method
its own [E; G_i] rows of the chain sum. Centralized ZF's channel side is
numerics.zf_filters: for each method that shares the UE columns, the K
UE rows of its augmented channels' pseudo-inverse. Those rows are L N
wide whatever m, so the sweep stacks the K UE rows of its M methods
block-major, (B, M K, L N), and apply_zf_filter detects them all with
one product per block: (B, M K, T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fronthaul import Chain, add_and_forward, add_gramian, hermitian_symbols, vector_symbols
from .numerics import _lapack, herm, inverse_gramian, zf_filters
from .scenario import BlockRealization, SystemConfig, crandn


@dataclass
class UplinkSymbolBatch:
    """Payload symbols of one block, and the terms of y that do not depend
    on the uplink power (simulate_uplink_rx)."""

    x: np.ndarray  # (K, T) unit QPSK
    s: np.ndarray | None  # (K_I, T); None where nothing reads it
    y: np.ndarray  # (L, N, T)
    hx: np.ndarray | None = None  # (L, N, T) H x
    gs: np.ndarray | None = None  # (L, N, T) G s
    noise: np.ndarray | None = None  # (L, N, T); None for a noise-free draw


@dataclass
class DetectorState:
    """Sequential-LS estimate at the CPU."""

    xhat: np.ndarray  # (K + K_I, T)


# The QPSK levels of bit 0 and bit 1: the bits of (1 - 2 b) / sqrt(2) as
# numpy divides a complex number by a real one, times 1 / sqrt(2)
_QPSK_LEVELS = np.array([1.0, -1.0]) * (1 / np.sqrt(2.0))
# The standard normal quantile of 0.975: wilson_interval's 95% level
WILSON_Z = 1.959963984540054


def draw_qpsk(rng: np.random.Generator, K: int, T: int, out=None) -> np.ndarray:
    """Gray-mapped unit-power QPSK: bits (b1, b0) -> ((1-2b1) + i(1-2b0))/sqrt(2)."""
    b = rng.integers(0, 2, size=(2, K, T))
    x = np.empty((K, T), dtype=complex) if out is None else out
    x.real, x.imag = _QPSK_LEVELS.take(b)
    return x


def received_signal(rho: float, hx, gs=None, noise=None, out=None) -> np.ndarray:
    """y = sqrt(rho) H x + G s + n from its terms that do not depend on
    rho, summed in that order; an absent term (None) is skipped. Written
    into `out` when given."""
    y = np.multiply(np.sqrt(rho), hx, out=out)
    if gs is not None:
        y += gs
    if noise is not None:
        y += noise
    return y


def simulate_uplink_rx(
    block: BlockRealization,
    cfg: SystemConfig,
    rng: np.random.Generator,
    n_symbols: int | None = None,
    include_noise: bool = True,
    *,
    out: UplinkSymbolBatch | None = None,
) -> UplinkSymbolBatch:
    """Received payload per AP: y_l = sqrt(rho) H_l x + G_l s + n_l.

    x holds unit-power QPSK (the transmit scaling sqrt(rho) is applied to
    the received signal, so hard decisions stay scale free); interferer
    symbols are complex Gaussian at their own transmit power. The draw
    keeps the terms H x, G s and n (see received_signal), in `out`'s
    arrays when given (which set the payload length). y is summed as each
    term is formed, so hx may be y itself and gs and noise one scratch.
    """
    if out is None:
        T = n_symbols if n_symbols is not None else cfg.tau_c - cfg.tau_p
        if T < 1:
            raise ValueError("need at least one payload symbol")
        y, hx, gs, noise = np.empty((4, cfg.L, cfg.N, T), dtype=complex)
        x, s = np.empty((cfg.K, T), dtype=complex), np.empty((cfg.K_I, T), dtype=complex)
        noise = noise if include_noise else None
        out = UplinkSymbolBatch(x, s, y, hx, gs, noise)
    draw_qpsk(rng, cfg.K, out.x.shape[-1], out=out.x)
    crandn(rng, out=out.s)
    out.s *= np.sqrt(cfg.oos_snr)
    np.matmul(block.H, out.x, out=out.hx)
    received_signal(cfg.rho, out.hx, out=out.y)
    np.matmul(block.G, out.s, out=out.gs)
    out.y += out.gs
    if include_noise:
        crandn(rng, out=out.noise)
        out.y += out.noise
    return out


# Chain phases of the two chain detectors: (channel side, once per block;
# apply step, once per symbol period).
CHAIN_PHASES = {
    "distributed_zf": ("channel_gramian", "uplink_combine"),
    "sequential_ls": ("seq_ls_covariance", "uplink_seq_ls"),
}


def sequential_ls_covariance(aug: np.ndarray, cfg: SystemConfig, chain: Chain) -> np.ndarray:
    """Channel side of sequential LS, the covariance pass, in information
    form (Kailath, Sayed & Hassibi 2000): the first AP forwards J = I/alpha
    + A_1^H A_1 (unit noise), each later AP adds A_l^H A_l, once per block,
    and the CPU returns the error covariance C = J^{-1} (..., m, m).

    C times the sum of A_l^H y_l is the ridge solution of the stacked
    [A; I/sqrt(alpha)]. With L N >= K + K_I (every sweep workload) it
    matches it to about 1e-13 at any alpha, where the Kalman form (C =
    alpha I updated at every hop) drifts: about 1e-3 at alpha = 1e10 on
    two APs. With L N < K + K_I, cond(J) grows with alpha and the roles
    swap: about 6e-8 at alpha = 1e6 and 6e-4 at 1e10, where the Kalman
    form stays near 1e-12.
    """
    m = aug.shape[-1]
    J = np.zeros((*aug.shape[:-3], m, m), dtype=complex)
    J[..., range(m), range(m)] = 1 / cfg.alpha
    J = chain.run(CHAIN_PHASES["sequential_ls"][0], add_gramian, hermitian_symbols, J, aug)
    return _lapack("sequential LS information matrix is singular", np.linalg.inv, J)


def accumulate_channel_gramian(aug: np.ndarray, chain: Chain) -> np.ndarray:
    """Add-and-forward the per-AP channel Gramians; returns their sum."""
    return chain.run(CHAIN_PHASES["distributed_zf"][0], add_gramian, hermitian_symbols, None, aug)


def _combine_fold(acc, A_h, y_l):
    """Chain-sum fold of the locally combined received vectors A_l^H y_l."""
    return add_and_forward(acc, A_h @ y_l)


def apply_chain(y: np.ndarray, W_h: np.ndarray, groups, chain: Chain, detector: str) -> list:
    """Apply step of both chain detectors on the received vectors y (...,
    L, N, T). Each AP combines locally with W_l^H and the chain sums the
    results once per symbol period: one product per hop for every method
    whose augmented channels are columns of W (W = aug for one method).
    W_h = herm(W) (..., L, R, N) comes from the channel side. The CPU then
    applies each (columns, rows) pair of `groups`: `rows`, the rows wanted
    of inverse_gramian or sequential_ls_covariance (..., k, w), times the
    chain sum's rows `columns`, an index of its R rows (slice(None) for
    all), (w,) for one method or (M, w) for M methods of one width, whose
    rows then carry that method axis (..., M, k, w). Returns each pair's
    estimates, (..., [M,] k, T)."""
    z = chain.run(CHAIN_PHASES[detector][1], _combine_fold, vector_symbols, None, W_h, y)
    return [rows @ z[..., columns, :] for columns, rows in groups]


def detect_sequential_ls(
    batch: UplinkSymbolBatch, aug: np.ndarray, cfg: SystemConfig, chain: Chain
) -> DetectorState:
    """Recursive LS along the chain, the covariance pass then the estimate
    pass; the prior I/alpha keeps J invertible for any channels."""
    cov = sequential_ls_covariance(aug, cfg, chain)
    [xhat] = apply_chain(batch.y, herm(aug), [(slice(None), cov)], chain, "sequential_ls")
    return DetectorState(xhat)


def detect_distributed_zf(
    batch: UplinkSymbolBatch, aug: np.ndarray, gamma: np.ndarray, chain: Chain
) -> np.ndarray:
    """Distributed ZF, inverse_gramian then apply_chain: the (K + K_I, T)
    estimates, identical to the centralized zero-forcing solution whenever
    gamma is invertible."""
    rows = inverse_gramian(gamma)
    [xhat] = apply_chain(batch.y, herm(aug), [(slice(None), rows)], chain, "distributed_zf")
    return xhat


def apply_zf_filter(y: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Apply step of centralized ZF: the filter rows `F` (..., k, L N)
    times the received vectors y (..., L, N, T), stacked."""
    *y_stack, L, N, T = y.shape
    return F @ y.reshape(*y_stack, L * N, T)


def detect_centralized(batch: UplinkSymbolBatch, aug: np.ndarray) -> np.ndarray:
    """Zero-forcing baseline on the stacked network-wide channel matrix A
    = [E, G], E the first K columns of aug for the K UEs of batch.x: all K
    + K_I rows of pinv(A) applied to batch.y. The UE rows are zf_filters'
    of (E, G), as the sweep forms them; the interferer rows are
    zf_filters' of (G, E), since a column permutation of A permutes the
    rows of its pseudo-inverse alike."""
    K = batch.x.shape[-2]
    E, G = aug[..., :K], aug[..., K:]
    F = zf_filters(E, [G])[0]
    if G.shape[-1]:
        F = np.concatenate([F, zf_filters(G, [E])[0]], axis=-2)
    return apply_zf_filter(batch.y, F)


def count_bit_errors(estimates: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-UE Gray-mapped bit errors after nearest-point slicing.

    For Gray QPSK the nearest constellation point is determined by the
    quadrant, so one bit error per wrong real-part sign and one per wrong
    imaginary-part sign. `truth` has the estimates' shape, or the shape
    of their trailing axes, and then serves every leading index.
    """
    if truth.ndim > estimates.ndim or estimates.shape[estimates.ndim - truth.ndim :] != truth.shape:
        raise ValueError("estimate/truth shapes differ")
    return (positive_parts(estimates) != positive_parts(truth)).sum(axis=-1)


def positive_parts(z: np.ndarray) -> np.ndarray:
    """Whether the real and the imaginary part of each entry is positive,
    interleaved along the last axis: (..., T) complex -> (..., 2T) bool."""
    return np.ascontiguousarray(z, dtype=complex).view(np.float64) > 0


def wilson_interval(errors: int, n: int):
    """95% Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one trial")
    p = errors / n
    z = WILSON_Z
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == n else min(1.0, center + half)
    return lo, hi
