"""Network geometry, system configuration, pilot book, and per-block draws.

Scaling convention: receiver noise has unit variance and `rho` / `oos_snr`
are transmit powers normalized to 1 W (the quantity swept on the BER
curves). Large-scale gains are expressed relative to the thermal noise
floor `noise_floor_dbw`, whose default (-124 dBW = -174 dBm/Hz over
20 MHz with a 7 dB noise figure) is the value conventionally paired with
this path-loss model; build_geometry folds the floor into the gains so
everything downstream works against unit noise. Synthetic tests that set
gains directly can ignore the floor entirely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import dft

DEFAULT_NOISE_FLOOR_DBW = -124.0

# Sub-stream tags for per-block reproducible RNGs.
GEOMETRY_STREAM = 0
CHANNEL_STREAM = 1
PAYLOAD_STREAM = 2


@dataclass(frozen=True)
class SystemConfig:
    """All scalar parameters of the simulated network.

    AP ids are 1-based; `ap_order` is the order in which accumulation
    passes visit the APs (the last entry is the AP adjacent to the CPU).
    The default visits L, L-1, ..., 1; broadcasts run in reverse.
    """

    L: int = 4
    N: int = 4
    K: int = 5
    K_I: int = 2
    tau_p: int = 50
    tau_c: int = 200
    rho: float = 1.0
    oos_snr: float = 10.0 ** (-3.0 / 10.0)
    alpha: float = 1e6
    ap_order: tuple[int, ...] = ()
    seed: int = 0
    area_side_m: float = 500.0
    ue_margin_m: float = 10.0
    ap_height_m: float = 5.0
    trials: int = 150
    noise_floor_dbw: float = DEFAULT_NOISE_FLOOR_DBW

    def __post_init__(self):
        for name in ("L", "N", "K", "tau_p", "tau_c", "trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.K_I < 0:
            raise ValueError("K_I must be nonnegative")
        if self.tau_p < self.K + self.K_I:
            raise ValueError(
                f"tau_p={self.tau_p} must be at least K + K_I = {self.K + self.K_I}"
            )
        if self.tau_c <= self.tau_p:
            raise ValueError("tau_c must exceed tau_p")
        if self.rho <= 0 or self.oos_snr <= 0 or self.alpha <= 0:
            raise ValueError("rho, oos_snr and alpha must be positive")
        if self.area_side_m <= 0 or self.ue_margin_m < 0 or self.ap_height_m < 0:
            raise ValueError("invalid geometry dimensions")
        if not self.ap_order:
            object.__setattr__(self, "ap_order", default_ap_order(self.L))
        else:
            object.__setattr__(self, "ap_order", tuple(int(a) for a in self.ap_order))
        if sorted(self.ap_order) != list(range(1, self.L + 1)):
            raise ValueError("ap_order must be a permutation of 1..L")


def default_ap_order(L: int) -> tuple[int, ...]:
    """The visit order used when none is given: L, L-1, ..., 1."""
    return tuple(range(L, 0, -1))


@dataclass(frozen=True)
class Geometry:
    """AP/UE/interferer placement and large-scale gains over noise (linear)."""

    ap_positions: np.ndarray  # (L, 3) meters
    ue_positions: np.ndarray  # (K, 3)
    oos_positions: np.ndarray  # (K_I, 3)
    beta_ue: np.ndarray  # (L, K)
    beta_oos: np.ndarray  # (L, K_I)


@dataclass(frozen=True)
class PilotBook:
    """Orthonormal pilots Phi and their orthogonal-complement basis Psi."""

    Phi: np.ndarray  # (tau_p, K)
    Psi: np.ndarray  # (tau_p, tau_p - K)


@dataclass
class BlockRealization:
    """True channels, interferer pilot-phase signal and noise for one block,
    or for a stack of blocks along a leading axis of every array."""

    H: np.ndarray  # (L, N, K)
    G: np.ndarray  # (L, N, K_I)
    S: np.ndarray  # (tau_p, K_I)
    pilot_noise: np.ndarray  # (L, N, tau_p)


def path_loss_db(distance_m):
    """Large-scale gain in dB at the given 3-D distance (meters)."""
    return -30.5 - 36.7 * np.log10(distance_m)


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Circularly symmetric complex Gaussian entries with unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def block_rng(seed: int, block_index: int, stream: int) -> np.random.Generator:
    """Independent, reproducible RNG for one (block, sub-stream) pair."""
    return np.random.default_rng(np.random.SeedSequence((seed, block_index, stream)))


def _perimeter_points(side: float, L: int) -> np.ndarray:
    """L equally spaced points along the square border, starting at (0, 0)
    and walking counterclockwise."""
    arc = np.arange(L) * (4.0 * side / L)
    pts = np.empty((L, 2))
    for i, s in enumerate(arc):
        edge, t = divmod(s, side)
        if edge == 0:
            pts[i] = (t, 0.0)
        elif edge == 1:
            pts[i] = (side, t)
        elif edge == 2:
            pts[i] = (side - t, side)
        else:
            pts[i] = (0.0, side - t)
    return pts


def _gains(ap_positions, node_positions, noise_floor_dbw: float) -> np.ndarray:
    if node_positions.shape[0] == 0:
        return np.zeros((ap_positions.shape[0], 0))
    d = np.linalg.norm(ap_positions[:, None, :] - node_positions[None, :, :], axis=2)
    if np.any(d <= 0):
        raise ValueError("AP and node coincide; path-loss model needs d > 0")
    return 10.0 ** ((path_loss_db(d) - noise_floor_dbw) / 10.0)


def build_geometry(cfg: SystemConfig, rng: np.random.Generator) -> Geometry:
    """Place APs on the area border, UEs and interferers uniformly inside.

    APs sit at height ap_height_m, equally spaced along the square
    perimeter; UEs and OoS sources are dropped uniformly (same rule for
    both) in the concentric square inset by ue_margin_m, at ground level.
    Path loss uses the 3-D distance, so the AP height keeps d > 0; the
    stored gains are path loss divided by the configured noise floor.
    """
    side = cfg.area_side_m
    if side - 2.0 * cfg.ue_margin_m <= 0:
        raise ValueError("ue_margin_m leaves no placement area")
    ap_xy = _perimeter_points(side, cfg.L)
    ap_positions = np.column_stack([ap_xy, np.full(cfg.L, cfg.ap_height_m)])

    lo, hi = cfg.ue_margin_m, side - cfg.ue_margin_m
    ue_xy = rng.uniform(lo, hi, size=(cfg.K, 2))
    oos_xy = rng.uniform(lo, hi, size=(cfg.K_I, 2))
    ue_positions = np.column_stack([ue_xy, np.zeros(cfg.K)])
    oos_positions = np.column_stack([oos_xy, np.zeros(cfg.K_I)])

    return Geometry(
        ap_positions=ap_positions,
        ue_positions=ue_positions,
        oos_positions=oos_positions,
        beta_ue=_gains(ap_positions, ue_positions, cfg.noise_floor_dbw),
        beta_oos=_gains(ap_positions, oos_positions, cfg.noise_floor_dbw),
    )


def build_pilot_book(cfg: SystemConfig) -> PilotBook:
    """Pilot book from the unitary DFT: deterministic, exactly orthonormal."""
    return dft_pilot_book(cfg.tau_p, cfg.K)


def dft_pilot_book(tau_p: int, K: int) -> PilotBook:
    """First K columns of the tau_p-point unitary DFT as pilots, the
    remaining tau_p - K columns as the complement basis."""
    if tau_p < 1:
        raise ValueError("tau_p must be positive")
    if K < 0 or K > tau_p:
        raise ValueError("K must satisfy 0 <= K <= tau_p")
    F = dft(tau_p, scale="sqrtn")
    return PilotBook(Phi=F[:, :K].copy(), Psi=F[:, K:].copy())


def draw_block(cfg: SystemConfig, geo: Geometry, rng: np.random.Generator) -> BlockRealization:
    """One coherence block of Rayleigh channels, OoS signal and pilot noise.

    Channel columns have per-entry variance equal to the corresponding
    large-scale gain; interferer pilot symbols are i.i.d. complex Gaussian
    with per-symbol power oos_snr; noise entries are unit variance. Draw
    order (H, G, S, noise) is fixed so outputs are a deterministic
    function of the generator state.
    """
    H = crandn(rng, cfg.L, cfg.N, cfg.K) * np.sqrt(geo.beta_ue)[:, None, :]
    G = crandn(rng, cfg.L, cfg.N, cfg.K_I) * np.sqrt(geo.beta_oos)[:, None, :]
    S = np.sqrt(cfg.oos_snr) * crandn(rng, cfg.tau_p, cfg.K_I)
    pilot_noise = crandn(rng, cfg.L, cfg.N, cfg.tau_p)
    return BlockRealization(H=H, G=G, S=S, pilot_noise=pilot_noise)


def geometry_to_json(geo: Geometry) -> str:
    """Positions in meters and gains (over noise) in dB, for plotting."""

    def db(x):
        return (10.0 * np.log10(x)).tolist()

    return json.dumps(
        {
            "ap_positions_m": geo.ap_positions.tolist(),
            "ue_positions_m": geo.ue_positions.tolist(),
            "oos_positions_m": geo.oos_positions.tolist(),
            "beta_ue_db": db(geo.beta_ue),
            "beta_oos_db": db(geo.beta_oos) if geo.beta_oos.size else [],
        },
        indent=2,
    )
