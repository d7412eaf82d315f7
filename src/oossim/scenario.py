"""Network geometry, system configuration, pilot book, and per-block draws.

Scaling convention: receiver noise has unit variance and `rho` / `oos_snr`
are transmit powers normalized to 1 W (the quantity swept on the BER
curves). Large-scale gains are expressed relative to the thermal noise
floor `noise_floor_dbw`, whose default (-124 dBW = -174 dBm/Hz over
20 MHz with a 7 dB noise figure) is the value conventionally paired with
this path-loss model; build_geometry folds the floor into the gains so
everything downstream works against unit noise.

A Geometry or BlockRealization may carry a leading block axis on every
array but ap_positions, drawn from one generator per block (the stack
rule: numerics). Each generator draws in a fixed order: geometry, UE
then interferer positions; channels, H, G, S, pilot noise; payload
(uplink.simulate_uplink_rx), QPSK bits, s, noise.

Seeding. Block b of a run with seed `seed` draws from three PCG64
streams of its own, geometry, channels and payload (STREAMS), each in
the state of default_rng(SeedSequence((seed, b, stream))), so that every
result is a pure function of (spec, seed) and of no span or chunk size.
block_generators seeds every stream of a span's blocks in one pass. It
runs numpy's SeedSequence hash (numpy/random/bit_generator.pyx: a pool
of four 32-bit words, its hash constants and xorshift) in uint32
arithmetic on every (block, stream) at once, on the entropy words as
SeedSequence forms them: each integer's little-endian 32-bit words, 0
as one word, seed then block then stream. Blocks whose indices have as
many words are hashed together (_generate_states). Each PCG64 is built
from its generate_state(4, np.uint64) words through a minimal
ISeedSequence (_given_state_type), so its state is numpy's own and
every draw keeps its bits, at about a quarter of default_rng's cost
per generator.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields
from functools import cache

import numpy as np

DEFAULT_NOISE_FLOOR_DBW = -124.0
# Ceiling on the largest large-scale gain over noise, in dB (see SystemConfig)
MAX_GAIN_DB = 1200.0
# Floor on the smallest one: the smallest normal float, in dB
MIN_GAIN_DB = 10.0 * math.log10(sys.float_info.min)

# Each block's streams, in the order block_generators gives them
GEOMETRY_STREAM = 0
CHANNEL_STREAM = 1
PAYLOAD_STREAM = 2
STREAMS = (GEOMETRY_STREAM, CHANNEL_STREAM, PAYLOAD_STREAM)

# numpy's SeedSequence (numpy/random/bit_generator.pyx): its pool size in
# 32-bit words, hash constants and xorshift, half a word
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF

# Blocks per span, and per chunk of a span, of the sweep (experiments._run_span)
SPAN_BLOCKS = 16
CHUNK_BLOCKS = 4
MAX_SWEEP_BYTES = 2**30  # ceiling on check_sweep_size's total


@dataclass(frozen=True)
class SystemConfig:
    """All scalar parameters of the simulated network.

    AP ids are 1-based; `ap_order` is the order in which accumulation
    passes visit the APs (the last entry is the AP adjacent to the CPU).
    The default visits L, L-1, ..., 1; broadcasts run in reverse.

    Every AP-node distance is at least hypot(ap_height_m, ue_margin_m),
    which must be positive: at distance 0 the path-loss gain has no bound.
    The largest gain over noise, path_loss_db at that distance minus
    noise_floor_dbw, and that gain times oos_snr must not exceed
    MAX_GAIN_DB (1200 dB), so that channel entries and interferer signals
    stay below about 1e60 and the Gramians the estimators form stay
    finite. Every AP-node distance is at most far = hypot(area_side_m,
    area_side_m, ap_height_m): 2 far^2 must be finite (the factor 2 covers
    the rounding of build_geometry's sum of squares), and the gain over
    noise at far at least MIN_GAIN_DB, so that it is a normal float.
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
        checks = {"int": check_integer, "float": check_real}  # annotations are strings
        for f in fields(self):
            if f.type in checks:
                checks[f.type](f.name, getattr(self, f.name))
        for name in ("L", "N", "K", "tau_p", "tau_c", "trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        for name in ("K_I", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.tau_p < self.K + self.K_I:
            raise ValueError(
                f"tau_p={self.tau_p} must be at least K + K_I = {self.K + self.K_I}"
            )
        if self.tau_c <= self.tau_p:
            raise ValueError("tau_c must exceed tau_p")
        if not all(math.isfinite(v) and v > 0 for v in (self.rho, self.oos_snr, self.alpha)):
            raise ValueError(
                f"rho, oos_snr and alpha must be finite and positive; got "
                f"{self.rho}, {self.oos_snr}, {self.alpha}"
            )
        geometry = (self.area_side_m, self.ue_margin_m, self.ap_height_m, self.noise_floor_dbw)
        if not all(map(math.isfinite, geometry)):
            raise ValueError("geometry dimensions and noise_floor_dbw must be finite")
        if not (self.ap_height_m >= 0 and 0 <= self.ue_margin_m < self.area_side_m / 2):
            raise ValueError("need ap_height_m >= 0 and 0 <= ue_margin_m < area_side_m / 2")
        nearest = math.hypot(self.ap_height_m, self.ue_margin_m)
        if nearest == 0:
            raise ValueError(
                "ap_height_m and ue_margin_m are both 0: a node may sit at an AP, "
                "where the path-loss gain has no bound"
            )
        gain_db = path_loss_db(nearest) - self.noise_floor_dbw
        oos_db = gain_db + 10.0 * math.log10(self.oos_snr)
        for name, db in (("noise_floor_dbw", gain_db), ("oos_snr", oos_db)):
            if db > MAX_GAIN_DB:
                raise ValueError(
                    f"{name}={getattr(self, name)} gives {db:.2f} dB over noise "
                    f"at the nearest AP-node distance, {nearest:g} m; at most {MAX_GAIN_DB:g} dB"
                )
        far = math.hypot(self.area_side_m, self.area_side_m, self.ap_height_m)
        far_db = path_loss_db(far) - self.noise_floor_dbw
        if not (math.isfinite(2.0 * far * far) and far_db >= MIN_GAIN_DB):
            raise ValueError(
                f"area_side_m, ap_height_m and noise_floor_dbw give {far_db:.2f} dB over noise "
                f"at the farthest AP-node distance, up to {far:g} m; its square must be a "
                f"float and its gain at least {MIN_GAIN_DB:.2f} dB"
            )
        check_sweep_size(self)  # before L sizes the AP order
        if not self.ap_order:
            object.__setattr__(self, "ap_order", default_ap_order(self.L))
        else:
            if not isinstance(self.ap_order, (tuple, list)):
                raise ValueError(f"ap_order must be a list of AP ids; got {self.ap_order!r}")
            for a in self.ap_order:
                check_integer("ap_order entry", a)
            object.__setattr__(self, "ap_order", tuple(int(a) for a in self.ap_order))
        if sorted(self.ap_order) != list(range(1, self.L + 1)):
            raise ValueError("ap_order must be a permutation of 1..L")


def check_integer(name: str, value) -> None:
    """Raise ValueError naming `name` unless `value` is an integer (a bool is not)."""
    # int (float) first, so the common case skips the slower ABC check
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ValueError(f"{name} must be an integer; got {value!r}")


def check_real(name: str, value) -> None:
    """Raise ValueError naming `name` unless `value` is a real number (a
    bool is not) that a float can hold."""
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{name} must be a real number; got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{name} is too large for a float")


def check_sweep_size(cfg: SystemConfig, points: int = 1, methods: int = 1) -> dict[str, int]:
    """The bytes of a sweep's largest arrays alive at once, by kind, in
    closed form for `points` SNR points and `methods` methods; ValueError
    naming the largest if they sum to more than MAX_SWEEP_BYTES."""
    L, N, K, K_I, tau_p, tau_c = map(int, (cfg.L, cfg.N, cfg.K, cfg.K_I, cfg.tau_p, cfg.tau_c))
    span, chunk = min(SPAN_BLOCKS, cfg.trials), min(CHUNK_BLOCKS, cfg.trials)
    LN, r, m, T = L * N, tau_p - K, K + K_I, tau_c - tau_p
    sizes = {  # complex entries, 16 bytes each
        "pilot book": 16 * tau_p * tau_p,
        "span residuals": 16 * span * LN * r,
        "span pilot estimates": 16 * points * span * LN * K,
        "residual Gramians": 16 * span * r * r,  # seq_gramian's
        "payload buffers": 16 * 4 * chunk * LN * T,  # y, H x, G s and n
        "augmented channels": 16 * methods * points * span * LN * m,
        "channel Gramians": 16 * methods * points * span * m * m,
        "detected symbols": 16 * methods * chunk * m * T,
    }
    total, largest = sum(sizes.values()), max(sizes, key=sizes.get)
    if total > MAX_SWEEP_BYTES:
        raise ValueError(
            f"the sweep's arrays would take {total} bytes, more than {MAX_SWEEP_BYTES}; "
            f"the largest are its {largest}, {sizes[largest]} bytes"
        )
    return sizes


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
    """True channels, interferer pilot-phase signal and noise for one block."""

    H: np.ndarray  # (L, N, K)
    G: np.ndarray  # (L, N, K_I)
    S: np.ndarray  # (tau_p, K_I)
    pilot_noise: np.ndarray  # (L, N, tau_p)


def path_loss_db(distance_m):
    """Large-scale gain in dB at the given 3-D distance (meters)."""
    return -30.5 - 36.7 * np.log10(distance_m)


def crandn(rng, *shape, out=None) -> np.ndarray:
    """Circularly symmetric complex Gaussian entries with unit variance.

    Each generator draws the real parts, then the imaginary parts, into a
    float (2, *shape) buffer, which is scaled by 1 / sqrt(2) in place
    before it is copied into the complex result. That is bit for bit
    (re + 1j * im) / sqrt(2) with re and im drawn in turn: numpy divides
    a complex number by a real c as (re + im * 0) * (1 / c), which only a
    part drawn as exactly -0.0 (odds about 2^-53 a draw) can tell apart,
    by the sign of its zero. `out`, when given, is filled and sets the
    shape; `rng` may then be one generator per row of it, and a count
    that differs from the rows raises ValueError.
    """
    z = np.empty(shape, dtype=complex) if out is None else out
    rngs, stacked = _generators(rng)
    rows = z if stacked else z[None]
    parts = np.empty((len(rows), 2, *rows.shape[1:]))
    for r, row in zip(rngs, parts, strict=True):
        r.standard_normal(out=row)
    parts *= 1 / np.sqrt(2.0)
    rows.real, rows.imag = parts[:, 0], parts[:, 1]
    return z


def _generators(rng):
    """(one generator per block, whether they draw a stack): a lone one draws one block."""
    return ((rng,), False) if isinstance(rng, np.random.Generator) else (tuple(rng), True)


def block_generators(seed: int, blocks) -> list[list[np.random.Generator]]:
    """The generators of the blocks `blocks` (nonnegative integers), by
    stream: entry [stream][i] is blocks[i]'s, in the state of
    default_rng(SeedSequence((seed, blocks[i], stream))) (module
    docstring)."""
    seed_words, stream_words = _words(int(seed)), [_words(s) for s in STREAMS]
    block_words = [_words(b) for b in blocks]
    by_count: dict[int, list[int]] = {}  # the blocks whose words are as many
    for i, words in enumerate(block_words):
        by_count.setdefault(len(words), []).append(i)
    out: list[list] = [[None] * len(blocks) for _ in STREAMS]
    given_state = _given_state_type()
    for rows in by_count.values():
        # a column of entropy words per (stream, block), stream-major
        entropy = [[*seed_words, *block_words[i], *s] for s in stream_words for i in rows]
        for j, words in enumerate(_generate_states(np.array(entropy, dtype=np.uint32).T)):
            s, i = divmod(j, len(rows))
            out[s][rows[i]] = np.random.Generator(np.random.PCG64(given_state(words)))
    return out


def _words(n: int) -> list[int]:
    """n >= 0 as SeedSequence reads an integer: its 32-bit words, least
    significant first, and 0 as one word."""
    return [n >> k & _MASK32 for k in range(0, max(n.bit_length(), 1), 32)]


@cache
def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's running hash constant for its first n hashes, and
    the one after each, as uint32 columns (n, 1): each hash multiplies
    the constant by `mult`, starting from `init`."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, dtype=np.uint32)[:, None]
    return h[:-1], h[1:]


def _hashmix(value: np.ndarray, h: np.ndarray, h_next: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of `value` with the constant h, then h_next."""
    v = (value ^ h) * h_next
    v ^= v >> _XSHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of the pool word x with the hashed word y."""
    r = x * _MIX_MULT_L
    r -= y * _MIX_MULT_R
    r ^= r >> _XSHIFT
    return r


def _generate_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) for each column of the
    entropy words `entropy` (n, R), as C-contiguous rows (R, 4): its pool
    mixing, then its state hash, each step on every column at once. The
    hashes of one step use successive constants, in the order
    SeedSequence runs them one at a time."""
    n, pool_size = len(entropy), _POOL_SIZE
    h, h_next = _hash_constants(_INIT_A, _MULT_A, pool_size * (pool_size + max(n - pool_size, 0)))
    pool = np.zeros((pool_size, entropy.shape[1]), dtype=np.uint32)
    pool[: min(n, pool_size)] = entropy[:pool_size]  # a short entropy runs on with 0
    pool = _hashmix(pool, h[:pool_size], h_next[:pool_size])
    at = pool_size
    for src in range(pool_size):  # every word into every other
        dst = [d for d in range(pool_size) if d != src]
        c = slice(at, at + len(dst))
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[c], h_next[c]))
        at += len(dst)
    for word in entropy[pool_size:]:  # the rest into every word
        c = slice(at, at + pool_size)
        pool = _mix(pool, _hashmix(word, h[c], h_next[c]))
        at += pool_size
    h, h_next = _hash_constants(_INIT_B, _MULT_B, 2 * pool_size)
    state = _hashmix(np.concatenate([pool, pool]), h, h_next).astype(np.uint64)
    # little-endian: the even word is the low half of each uint64
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


@cache
def _given_state_type() -> type:
    """An ISeedSequence whose generate_state returns the words it is made
    with: the 4 uint64 words (a C-contiguous row) that PCG64 asks for.
    Made on the first call, so that numpy.random loads with a sweep's
    first draw, as under default_rng: loaded with this module, it raised
    the peak RSS of a process running five paper_default sweeps by about
    0.3 MiB."""
    from numpy.random.bit_generator import ISeedSequence

    class GivenState(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words

    return GivenState


def _perimeter_points(side: float, L: int) -> np.ndarray:
    """L equally spaced points along the square border, starting at (0, 0)
    and walking counterclockwise."""
    edge, t = np.divmod(np.arange(L) * (4.0 * side / L), side)
    edge = edge.astype(int)  # 0 to 3: bottom, right, top, left
    x = np.choose(edge, [t, side, side - t, 0.0])
    return np.stack([x, np.choose(edge, [0.0, t, side, side - t])], axis=-1)


def build_geometry(cfg: SystemConfig, rng) -> Geometry:
    """Place APs on the area border, UEs and interferers uniformly inside.

    APs sit at height ap_height_m, equally spaced along the square
    perimeter; UEs and OoS sources are dropped uniformly (same rule for
    both) in the concentric square inset by ue_margin_m, at ground level.
    Path loss uses the 3-D distance, at least hypot(ap_height_m,
    ue_margin_m) > 0 (SystemConfig). `rng` is a generator, or a sequence
    of them for a stack (module docstring).
    """
    rngs, stacked = _generators(rng)
    side, K, L = cfg.area_side_m, cfg.K, cfg.L
    ap_positions = np.column_stack([_perimeter_points(side, L), np.full(L, cfg.ap_height_m)])
    # uniform(lo, hi) is lo + (hi - lo) * random(), op for op
    lo, hi = cfg.ue_margin_m, side - cfg.ue_margin_m
    xy = np.empty((len(rngs), K + cfg.K_I, 2))
    for r, row in zip(rngs, xy):
        r.random(out=row)
    nodes = np.zeros((len(rngs), K + cfg.K_I, 3))
    np.add(xy * (hi - lo), lo, out=nodes[..., :2])
    d = np.linalg.norm(ap_positions[:, None, :] - nodes[:, None, :, :], axis=-1)
    gains = 10.0 ** ((path_loss_db(d) - cfg.noise_floor_dbw) / 10.0)
    if not stacked:
        nodes, gains = nodes[0], gains[0]
    ue, oos = nodes[..., :K, :], nodes[..., K:, :]
    return Geometry(ap_positions, ue, oos, beta_ue=gains[..., :K], beta_oos=gains[..., K:])


def build_pilot_book(cfg: SystemConfig) -> PilotBook:
    """Pilots from the first K columns of the tau_p-point unitary DFT, the
    complement basis from the rest: deterministic, exactly orthonormal."""
    tau_p, K = cfg.tau_p, cfg.K
    # The unitary DFT as scipy.linalg.dft(tau_p, scale="sqrtn") builds it,
    # op for op, so the pilots keep their bits without importing scipy.
    omegas = np.exp(-2j * np.pi * np.arange(tau_p) / tau_p).reshape(-1, 1)
    F = omegas ** np.arange(tau_p)
    F /= math.sqrt(tau_p)
    return PilotBook(Phi=F[:, :K].copy(), Psi=F[:, K:].copy())


def draw_block(cfg: SystemConfig, geo: Geometry, rng) -> BlockRealization:
    """One coherence block of Rayleigh channels, OoS signal and pilot noise,
    or a stack of them from a sequence of generators and a stacked `geo`.

    Channel columns have per-entry variance equal to the corresponding
    large-scale gain; interferer pilot symbols are i.i.d. complex Gaussian
    with per-symbol power oos_snr; noise entries are unit variance.
    """
    rngs, stacked = _generators(rng)
    B, L, N = len(rngs), cfg.L, cfg.N
    shapes = ((L, N, cfg.K), (L, N, cfg.K_I), (cfg.tau_p, cfg.K_I), (L, N, cfg.tau_p))
    H, G, S, pilot_noise = (crandn(rngs, out=np.empty((B, *sh), dtype=complex)) for sh in shapes)
    H *= np.sqrt(geo.beta_ue)[..., None, :]
    G *= np.sqrt(geo.beta_oos)[..., None, :]
    S *= np.sqrt(cfg.oos_snr)
    return BlockRealization(*(a if stacked else a[0] for a in (H, G, S, pilot_noise)))
