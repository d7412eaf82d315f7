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
never copied per method. Centralized ZF's channel side, zf_filters,
factors the UE columns once for every method that shares them and each
method's interferer columns apart (a block QR). Its filter rows are L N
wide whatever m, so the sweep stacks the K UE rows of its M methods
block-major, (B, M K, L N), and apply_zf_filter detects them all with one
product per block: (B, M K, T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fronthaul import Chain, add_and_forward, add_gramian, hermitian_symbols, vector_symbols
from .numerics import (
    PINV_RTOL,
    _lapack,
    _refit,
    _squared_norms,
    herm,
    inverse_gramian,
    pseudo_inverse,
)
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


def apply_chain(
    y: np.ndarray, aug_h: np.ndarray, rows: np.ndarray, chain: Chain, detector: str
) -> np.ndarray:
    """Apply step of both chain detectors on the received vectors y (...,
    L, N, T): each AP combines locally with A_l^H, the chain sums the
    results once per symbol period, and the CPU applies `rows` (the rows
    wanted of inverse_gramian or sequential_ls_covariance). aug_h =
    herm(aug) (..., L, m, N) comes from the channel side."""
    return rows @ chain.run(CHAIN_PHASES[detector][1], _combine_fold, vector_symbols, None, aug_h, y)


def detect_sequential_ls(
    batch: UplinkSymbolBatch, aug: np.ndarray, cfg: SystemConfig, chain: Chain
) -> DetectorState:
    """Recursive LS along the chain, the covariance pass then the estimate
    pass; the prior I/alpha keeps J invertible for any channels."""
    cov = sequential_ls_covariance(aug, cfg, chain)
    return DetectorState(apply_chain(batch.y, herm(aug), cov, chain, "sequential_ls"))


def detect_distributed_zf(
    batch: UplinkSymbolBatch, aug: np.ndarray, gamma: np.ndarray, chain: Chain
) -> np.ndarray:
    """Distributed ZF, inverse_gramian then apply_chain: the (K + K_I, T)
    estimates, identical to the centralized zero-forcing solution whenever
    gamma is invertible."""
    return apply_chain(batch.y, herm(aug), inverse_gramian(gamma), chain, "distributed_zf")


def zf_filters(ue, interferers, rows=None, out=None) -> list:
    """Channel side of centralized ZF for methods that share their UE
    channels: for each entry of `interferers`, the first `rows` rows (all
    by default) of the pseudo-inverse (..., rows, L N) of the stacked
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
    column rank F = R^{-1} [Q1, Q2]^H: the UE rows R11^{-1} Q1^H - X Q2^H
    with X = R11^{-1} C R22^{-1}, and the interferer rows R22^{-1} Q2^H;
    without G, R11^{-1} Q1^H alone. Only R22 is kept of the residual's
    QR, and Q2^H = R22^{-H} W^H from the residual W itself. The block
    Gram-Schmidt step and that Q2 each leave [Q1, Q2] off orthonormal by
    about eps cond(A), and F off by as much, relatively.

    Each matrix is screened with pseudo_inverse's rtol = PINV_RTOL on
    bounds that the triangular R gives for A's singular values: min|r_ii|
    <= rtol max|r_ii| over diag(R11) and diag(R22) means the SVD would
    drop one (sigma_min <= min|r_ii| <= max|r_ii| <= sigma_max), and
    ||R||_F ||R^{-1}||_F rtol < 1, both norms summed over the blocks,
    means it keeps them all (cond(A) <= ||R||_F ||R^{-1}||_F), so both
    routes agree to rounding. A matrix that fails either test gets
    pseudo_inverse (numerics._refit); a wide A (L N < K + K_I) goes to
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
        out = [
            np.empty((*shape, w if rows is None else min(rows, w), n), dtype=complex)
            for shape, w in zip(shapes, widths)
        ]
    for pair, F, w in zip(pairs, out, widths):
        if n < w:
            A = E if pair is None else np.concatenate(pair, axis=-1)
            F[...] = pseudo_inverse(A)[..., : F.shape[-2], :]
    alone = [i for i, G in enumerate(Gs) if G is None and n >= K]
    paired = [i for i, G in enumerate(Gs) if G is not None and n >= widths[i]]
    if not alone + paired:
        return out
    top = K if rows is None else min(rows, K)
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
    first = R11_inv[..., :top, :] @ Q1_h  # the first term, R11^{-1} Q1^H
    for i in alone:
        F, r = out[i], out[i].shape[-2]
        F[...] = first
        _refit(doubt, (F,), lambda E: (pseudo_inverse(E)[..., :r, :],), E)
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
    R22_inv_h = herm(R22_inv)
    Y = X[..., :top, :] @ R22_inv_h  # X Q2^H = Y W^H
    del C, R22, X, W
    for j, i in enumerate(paired):
        F, r = out[i], out[i].shape[-2]
        # formed apart, then copied: a ufunc on a strided F buffers
        ue_rows = Y[j] @ W_h[j]
        F[..., :top, :] = np.subtract(first, ue_rows, out=ue_rows)
        del ue_rows
        if r > K:  # all K_I rows formed, so that r - K = 1 keeps its bits too
            F[..., K:, :] = (R22_inv[j] @ R22_inv_h[j] @ W_h[j])[..., : r - K, :]
        _refit(
            doubt[j],
            (F,),
            lambda E, G: (pseudo_inverse(np.concatenate((E, G), axis=-1))[..., :r, :],),
            *pairs[i],
        )
    return out


def _regular_inverse(R, singular):
    """The inverse of every triangular R of a stack, with I in place of
    each R that `singular` marks, so that inv never sees one."""
    R = np.where(singular[..., None, None], np.eye(R.shape[-1]), R)
    return _lapack("QR pseudo-inverse failed", np.linalg.inv, R)


def zf_filter(aug: np.ndarray, rows: int | None = None, *, ues: int) -> np.ndarray:
    """zf_filters on one stack of augmented channels aug (..., L, N, m)
    whose first `ues` columns are the UE channels: the first `rows` rows
    (..., rows, L N) of its pseudo-inverse, owning its data. Two or more
    rows have the bits they have in the whole filter (the stack rule,
    numerics)."""
    return zf_filters(aug[..., :ues], [aug[..., ues:]], rows)[0]


def apply_zf_filter(y: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Apply step of centralized ZF: the filter rows `F` (..., k, L N)
    times the received vectors y (..., L, N, T), stacked."""
    *y_stack, L, N, T = y.shape
    return F @ y.reshape(*y_stack, L * N, T)


def detect_centralized(batch: UplinkSymbolBatch, aug: np.ndarray) -> np.ndarray:
    """Zero-forcing baseline on the stacked network-wide channel matrix:
    every row of zf_filter, whose UE columns are the first K of aug for
    the K UEs of batch.x, as the sweep factors them."""
    return apply_zf_filter(batch.y, zf_filter(aug, ues=batch.x.shape[-2]))


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
