"""Monte Carlo harness: method sweep over uplink power, BER curves,
the fronthaul load ledger, machine-readable outputs.

The method and detector dispatch lives here, once (_interferer_channels,
_augmented_stack, _channel_side, _apply). The sweep and the load ledger
(load_report) both run it, so the loads that load_report measures and
checks against the closed forms (analytic_per_link) are the sweep's own
chain passes'.

All methods and all SNR points at a given block index share the same
geometry, channels, interferer signal, payload symbols and noise, so
curves are paired comparisons: each block's payload is drawn once, and
only the received signal sqrt(rho) H x + G s + n is formed per SNR
point. Blocks are drawn from per-index RNG streams, which makes every
result a pure function of (spec, seed) regardless of execution order or
of the rest of the grid.

The sweep runs CHUNK_BLOCKS consecutive blocks at a time: _draw draws
each block alone and stacks the draws along a leading block axis, and
every stage (estimation, chain pass, detection) runs once per chunk on
the stack. The batched kernels treat each block as they would alone, so
the results do not depend on the chunk size. The payload terms and the
received signal live in plain arrays that the sweep allocates once and
reuses for every chunk and SNR point.

Detection is split into a channel side, which needs only the augmented
channels, and an apply step, which needs the payload (_channel_side,
_apply). Methods whose augmented channels have the same width form a
width group. A group's channel side (the zero-forcing filter, the channel
Gramian pass and its inverse, or the sequential-LS covariance pass) runs
once per chunk for all SNR points, on the augmented channels stacked
along a point and a block axis; the genie's channels do not depend on
the point, so its channel side runs on the blocks alone, in a call of
its own. Each point then applies it to its payload in one call (one more
for the genie), the methods stacked along a leading axis against the one
payload that broadcasts along it, so the payload-sized temporaries stay
one point in size. The kernels give each method and block what its own
call gives, so a method's rows depend neither on the other methods nor
on the rest of the SNR grid.

A chunk has one failure path. It runs stacked, with no failure handling
(_estimate, then _detect); if any stage raises NumericalFailure, what the
chunk did is dropped, each block of it is drawn again by _draw as a
chunk of its own, and each of its methods reruns alone through the same
two helpers, so a failure is charged to the method, block and, for
detection, SNR point that caused it. Since each block comes from its own
streams and every kernel treats a block of a stack as it would alone,
the redrawn block is the one the chunk held, bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import oos_estimation, pilot_phase, uplink
from .fronthaul import Chain, ChainError, LoadReport
from .numerics import NumericalFailure, herm
from .scenario import (
    CHANNEL_STREAM,
    GEOMETRY_STREAM,
    PAYLOAD_STREAM,
    BlockRealization,
    Geometry,
    SystemConfig,
    block_rng,
    build_geometry,
    build_pilot_book,
    check_integer,
    check_real,
    default_ap_order,
    draw_block,
)

METHODS = (
    "no_suppression",
    "local_processing",
    "seq_procrustes",
    "seq_gramian",
    "centralized_genie",
)
DETECTORS = ("sequential_ls", "distributed_zf", "centralized_zf")

# The method that knows the true channels; they do not depend on rho.
GENIE = "centralized_genie"
# Methods that start from each AP's local rank-K_I factorization of its
# residual (local_svd_estimate); the sweep factorizes once for both.
LOCAL_SVD_METHODS = ("local_processing", "seq_procrustes")

# Blocks stacked into one call of every stage. Larger chunks cut more
# per-call overhead but hold more blocks in memory at once.
CHUNK_BLOCKS = 4

CSV_COLUMNS = (
    "method",
    "snr_db",
    "ber",
    "bit_count",
    "ci_low",
    "ci_high",
    "fronthaul_per_link_real_symbols",
    "seed",
)

# Keys of a failure record in results.json: (method, SNR, block, reason).
FAILURE_KEYS = ("method", "snr_db", "block", "reason")


@dataclass(frozen=True)
class ExperimentSpec:
    cfg: SystemConfig = field(default_factory=SystemConfig)
    snr_grid_db: tuple[float, ...] = (-10.0, -8.0, -6.0, -4.0, -2.0, 0.0)
    methods: tuple[str, ...] = METHODS
    detector: str = "centralized_zf"
    payload_symbols_per_block: int = 0  # 0 -> tau_c - tau_p
    out_dir: str = "results"

    def __post_init__(self):
        check_integer("payload_symbols_per_block", self.payload_symbols_per_block)
        for name in ("snr_grid_db", "methods"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise ValueError(f"{name} must be a list; got {getattr(self, name)!r}")
        for snr_db in self.snr_grid_db:
            check_real("snr_grid_db entry", snr_db)
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise ValueError(f"out_dir must be a path; got {self.out_dir!r}")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; expected subset of {METHODS}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValueError(f"methods listed more than once: {repeated}")
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        for method in self.methods:
            reason = undefined_reason(method, self.cfg)
            if reason:
                raise ValueError(reason)
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must be nonempty")
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        for snr_db in self.snr_grid_db:
            uplink_power(snr_db)
        max_payload = self.cfg.tau_c - self.cfg.tau_p
        if self.payload_symbols_per_block == 0:
            object.__setattr__(self, "payload_symbols_per_block", max_payload)
        if not 1 <= self.payload_symbols_per_block <= max_payload:
            raise ValueError(
                f"payload_symbols_per_block must be in 1..{max_payload}"
            )
        object.__setattr__(self, "methods", tuple(self.methods))

    def to_dict(self) -> dict:
        """Plain-data form. A default AP order is written as [] and a
        default payload length as 0, so that a changed L, tau_c or tau_p
        derives its own default when the dict is read back."""
        d = asdict(self)
        cfg, order = self.cfg, self.cfg.ap_order
        d["cfg"]["ap_order"] = [] if order == default_ap_order(cfg.L) else list(order)
        if self.payload_symbols_per_block == cfg.tau_c - cfg.tau_p:
            d["payload_symbols_per_block"] = 0
        d["snr_grid_db"] = list(self.snr_grid_db)
        d["methods"] = list(self.methods)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        check_fields("spec", d, cls)
        d = dict(d)
        return cls(cfg=config_from_dict(d.pop("cfg", {})), **d)


def check_fields(kind: str, d: dict, cls) -> None:
    """Raise ValueError naming the keys of `d` that are no field of the
    dataclass `cls` (`kind` names it in the message)."""
    unknown = sorted(set(d) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValueError(f"unknown {kind} fields {unknown}")


def uplink_power(snr_db: float) -> float:
    """The transmit power rho = 10^(snr_db / 10) of an SNR point; raises
    ValueError unless the point and its power are finite and positive."""
    try:
        rho = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        rho = math.inf
    if not (math.isfinite(snr_db) and math.isfinite(rho) and rho > 0):
        raise ValueError(
            f"SNR point {snr_db} dB gives no finite positive uplink power (got {rho})"
        )
    return rho


def config_from_dict(cfg_dict: dict) -> SystemConfig:
    """SystemConfig from the "cfg" entry of ExperimentSpec.to_dict()."""
    check_fields("config", cfg_dict, SystemConfig)
    return SystemConfig(**cfg_dict)


def undefined_reason(method: str, cfg: SystemConfig, detector: str | None = None) -> str | None:
    """Why `method` has no estimator under `cfg` or, given `detector`, no
    detection; None if it has both. A spec is checked without a detector:
    the sweep counts each block whose detection is undefined as a
    numerical failure."""
    if method == "local_processing" and cfg.K_I > cfg.N:
        return (
            f"local_processing needs K_I <= N (a local residual has at most N "
            f"directions); got K_I={cfg.K_I}, N={cfg.N}"
        )
    if detector == "distributed_zf" and cfg.L * cfg.N < _augmented_width(method, cfg):
        return (
            f"distributed_zf needs L*N >= K + K_I (K for no_suppression), or the "
            f"channel Gramian of {method} is singular; got L={cfg.L}, N={cfg.N}"
        )
    return None


def _augmented_width(method: str, cfg: SystemConfig) -> int:
    """Columns of a method's augmented channels: the K UEs, plus the K_I
    interferers for every method that suppresses them."""
    return cfg.K + (0 if method == "no_suppression" else cfg.K_I)


def analytic_per_link(method: str, cfg: SystemConfig, detector: str = "distributed_zf") -> dict:
    """Per-link real-symbol loads by phase, from the closed-form counts.

    Pilot-phase and channel-side entries are per coherence block; payload
    entries (uplink_combine, uplink_seq_ls) are per symbol period. Methods
    without chain traffic contribute no phases.
    """
    r = cfg.tau_p - cfg.K
    m = _augmented_width(method, cfg)
    phases: dict[str, int] = {}
    if cfg.K_I > 0:
        if method == "seq_procrustes":
            phases["oos_forward"] = 2 * cfg.K_I * r
            phases["oos_broadcast"] = 2 * cfg.K_I * r
        elif method == "seq_gramian":
            phases["oos_forward"] = r * r
            phases["oos_broadcast"] = 2 * cfg.K_I * r
    if detector == "distributed_zf":
        phases["channel_gramian"] = m * m
        phases["uplink_combine"] = 2 * m
    elif detector == "sequential_ls":
        phases["seq_ls_covariance"] = m * m
        phases["uplink_seq_ls"] = 2 * m
    return phases


def load_report(method: str, cfg: SystemConfig, detector: str = "distributed_zf") -> LoadReport:
    """Measured per-link loads of `method` under `detector`, checked
    against analytic_per_link (exact equality).

    Runs the sweep's own stages (_interferer_channels, _augmented_stack,
    _channel_side, _apply) on one synthetic unit-gain block with a
    one-symbol payload,
    on a chain that logs every link, and returns that log. Raises
    ChainError if measurement and formula differ.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if detector not in DETECTORS:
        raise ValueError(f"unknown detector {detector!r}; expected one of {DETECTORS}")
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xF00D)))
    unit_gains = Geometry(
        ap_positions=np.zeros((cfg.L, 3)),
        ue_positions=np.zeros((cfg.K, 3)),
        oos_positions=np.zeros((cfg.K_I, 3)),
        beta_ue=np.ones((cfg.L, cfg.K)),
        beta_oos=np.ones((cfg.L, cfg.K_I)),
    )
    block = draw_block(cfg, unit_gains, rng)
    pilots = build_pilot_book(cfg)
    obs = pilot_phase.simulate_pilot_rx(block, pilots, cfg)
    est = pilot_phase.ls_channel_estimate(obs, pilots, cfg)
    zpsi = pilot_phase.compute_projected_residual(obs, pilots)
    chain = Chain.for_config(cfg)
    ghat = _interferer_channels(method, block, zpsi, cfg, chain, RunDiagnostics())
    ue = block.H if method == GENIE else est
    aug = _augmented_stack([ghat], ue, _augmented_width(method, cfg))
    channel = _channel_side(detector, aug, cfg, chain)
    batch = uplink.simulate_uplink_rx(block, cfg, rng, n_symbols=1)
    _apply(detector, batch.y, channel, cfg, chain)

    expected = analytic_per_link(method, cfg, detector)
    measured = {p: chain.log.per_link_symbols(p) for p in chain.log.phases()}
    if measured != expected:
        raise ChainError(
            f"measured per-link loads {measured} differ from formula {expected} "
            f"for method={method}, detector={detector}"
        )
    return chain.log


def default_spec(**overrides) -> ExperimentSpec:
    """The reference comparison: 4 APs x 4 antennas, 5 UEs, 2 interferers
    at -3 dB, 50-use pilots in 200-use blocks, uplink power -10..0 dB."""
    return ExperimentSpec(**overrides)


def overloaded_interferers_spec(**overrides) -> ExperimentSpec:
    """Variant with more interferers than antennas per AP (K_I > N).

    Per-AP residuals then expose fewer directions than there are
    interferers, so the rotate-and-average method loses ground to the
    Gramian accumulation, whose rank grows with the AP count. The local
    method is omitted: its estimator is undefined in this regime.
    """
    overrides.setdefault("cfg", SystemConfig(K_I=5))
    overrides.setdefault(
        "methods", ("seq_procrustes", "seq_gramian", "centralized_genie")
    )
    return ExperimentSpec(**overrides)


@dataclass
class ResultRow:
    """One (method, SNR point) of the sweep.

    `wall_time_s` is the time of the method's detection apply step at
    this SNR point plus its share of the work that runs once per chunk for
    all SNR points: its interferer estimation and its detection channel
    side, divided by the number of points. All are timed per chunk of
    blocks, so each block is charged an equal share of its chunk's time.
    Methods run in one call (the methods sharing the local SVD, or a
    width group, see run_monte_carlo) split its time evenly. The draws
    and pilot estimates, shared by all methods, are charged to none of
    them. In a chunk that failed, only the reruns' time is charged.
    Summed over a method's rows it is the method's total time.
    """

    method: str
    snr_db: float
    ber: float
    bit_count: int
    ci_low: float
    ci_high: float
    fronthaul_per_link_real_symbols: int
    wall_time_s: float
    seed: int


@dataclass
class RunDiagnostics:
    numerical_failures: int = 0
    degenerate_rotations: int = 0
    failures: list = field(default_factory=list)  # tuples in FAILURE_KEYS order


@dataclass
class MonteCarloOutcome:
    rows: list[ResultRow]
    diagnostics: RunDiagnostics


def _interferer_channels(method, block, zpsi, cfg, chain, counts, local=None):
    """SNR-invariant part of one method's augmented channels: per-AP
    interferer channels, or None for a method that uses the UE estimates
    alone. Chain-based methods record their OoS pass on `chain` and count
    degenerate rotations on `counts`. `local`, when given, is
    local_svd_estimate(zpsi, K_I), which the LOCAL_SVD_METHODS then use
    instead of factorizing again."""
    if method == GENIE:
        return block.G
    if method == "no_suppression" or cfg.K_I == 0:
        return None
    if method == "local_processing":
        return (oos_estimation.local_svd_estimate(zpsi, cfg.K_I) if local is None else local)[1]
    if method == "seq_procrustes":
        bases = None if local is None else local[0]
        sbar = oos_estimation.run_sequential_procrustes(zpsi, cfg, chain, counts, bases)
    elif method == "seq_gramian":
        sbar = oos_estimation.run_gramian_method(zpsi, cfg, chain)
    else:
        raise ValueError(f"unknown method {method!r}")
    return oos_estimation.estimate_oos_channels(zpsi, sbar)


def _augmented_stack(ghats, ue, width):
    """Per-AP augmented matrices [UE channels `ue`, interferer channels]
    of each method, given by its interferer channels (or None) in
    `ghats`, stacked along a leading method axis:
    (M, *ue.shape[:-1], width)."""
    K = ue.shape[-1]
    aug = np.empty((len(ghats), *ue.shape[:-1], width), dtype=complex)
    for out, ghat in zip(aug, ghats):
        out[..., :K] = ue
        if ghat is not None:
            out[..., K:] = ghat
    return aug


def _channel_side(detector, aug, cfg, chain):
    """What `detector` needs of the augmented channels `aug` (M, ..., L,
    N, w) to estimate the K UEs, whatever the payload: a tuple of arrays
    with aug's leading axes. Zero-forcing keeps the UE rows of its filter
    alone; distributed ZF also carries herm(aug), conjugated here once
    for every SNR point; the sequential-LS gains keep all rows."""
    K = cfg.K
    if detector == "centralized_zf":
        return (uplink.zf_filter(aug)[..., :K, :],)
    if detector == "distributed_zf":
        gamma = uplink.accumulate_channel_gramian(aug, chain)
        return herm(aug), uplink.inverse_gramian(gamma)[..., :K, :]
    if detector == "sequential_ls":
        return aug, uplink.sequential_ls_gains(aug, cfg, chain)
    raise ValueError(f"unknown detector {detector!r}")


def _apply(detector, y, channel, cfg, chain):
    """The K UEs' estimates (..., K, T) from the received vectors `y` and
    the result `channel` of _channel_side."""
    if detector == "centralized_zf":
        return uplink.apply_zf_filter(y, *channel)
    if detector == "distributed_zf":
        return uplink.apply_distributed_zf(y, *channel, chain)
    return uplink.apply_sequential_ls(y, *channel, chain)[..., : cfg.K, :]


class _Totals:
    """What the sweep adds up, for the whole run or for one chunk: bit
    errors, bits and apply time per (SNR point, method index); per
    method, the time of its work shared by all points; the failures per
    point; and the degenerate rotations, which the estimators count
    here."""

    def __init__(self, spec: ExperimentSpec):
        shape = (len(spec.snr_grid_db), len(spec.methods))
        self.errors = np.zeros(shape, dtype=np.int64)
        self.bits = np.zeros(shape, dtype=np.int64)
        self.apply_s = np.zeros(shape)
        self.shared_s = np.zeros(len(spec.methods))
        self.failures = [[] for _ in spec.snr_grid_db]  # FAILURE_KEYS tuples
        self.degenerate_rotations = 0

    def add(self, other: _Totals):
        self.errors += other.errors
        self.bits += other.bits
        self.apply_s += other.apply_s
        self.shared_s += other.shared_s
        for mine, theirs in zip(self.failures, other.failures):
            mine += theirs
        self.degenerate_rotations += other.degenerate_rotations


class _Sweep:
    """What a sweep holds across its chunks: the pilot book, one config
    per SNR point, the chain (unlogged: the loads are checked by
    load_report, not measured per block), the payload buffers by term,
    which every chunk and every rerun of a failed chunk's blocks draws
    into, and the running totals."""

    def __init__(self, spec: ExperimentSpec):
        cfg, n_symbols = spec.cfg, spec.payload_symbols_per_block
        self.spec = spec
        self.pilots = build_pilot_book(cfg)
        self.chain = Chain(cfg.ap_order, log=None)
        self.points = [replace(cfg, rho=uplink_power(snr_db)) for snr_db in spec.snr_grid_db]
        size = min(CHUNK_BLOCKS, cfg.trials)

        # Rows [:B] hold a chunk of B blocks, by payload term; y holds one
        # SNR point at a time. On a grid of one point y comes with the
        # draw; otherwise the terms H x, G s (with interferers) and n are
        # kept and each point forms its own y.
        rx = (cfg.L, cfg.N, n_symbols)
        shapes = {"x": (cfg.K, n_symbols), "y": rx}
        if len(self.points) > 1:
            shapes.update(hx=rx, noise=rx)
            if cfg.K_I:
                shapes["gs"] = rx
        self.payload = {t: np.empty((size, *shape), dtype=complex) for t, shape in shapes.items()}
        self.totals = _Totals(spec)

    def outcome(self) -> MonteCarloOutcome:
        """One row per (SNR point, method) with surviving blocks, and the
        failures in (SNR, block, method) order of the chunks run."""
        spec, totals = self.spec, self.totals
        diagnostics = RunDiagnostics(
            numerical_failures=sum(map(len, totals.failures)),
            degenerate_rotations=totals.degenerate_rotations,
        )
        loads = [
            analytic_per_link(m, spec.cfg, spec.detector).get("oos_forward", 0)
            for m in spec.methods
        ]
        rows: list[ResultRow] = []
        for p, snr_db in enumerate(spec.snr_grid_db):
            diagnostics.failures.extend(totals.failures[p])
            for m, method in enumerate(spec.methods):
                errors, bits = int(totals.errors[p, m]), int(totals.bits[p, m])
                if bits == 0:
                    diagnostics.failures.append((method, snr_db, -1, "no surviving blocks"))
                    continue
                lo, hi = uplink.wilson_interval(errors, bits)
                shared_s = totals.shared_s[m] / len(self.points)
                rows.append(
                    ResultRow(
                        method=method,
                        snr_db=snr_db,
                        ber=errors / bits,
                        bit_count=bits,
                        ci_low=lo,
                        ci_high=hi,
                        fronthaul_per_link_real_symbols=loads[m],
                        wall_time_s=float(totals.apply_s[p, m] + shared_s),
                        seed=spec.cfg.seed,
                    )
                )
        return MonteCarloOutcome(rows=rows, diagnostics=diagnostics)


def _draw(sweep: _Sweep, blocks: range):
    """Draw the blocks `blocks`, each from its own streams, and stack them
    along a leading block axis. Returns the realization, its projected
    residual (which does not depend on rho), the pilot LS estimates of
    every SNR point (P, B, L, N, K), and the payload: each block's, drawn
    once for all points at the first point's power into the first B rows
    of the sweep's payload buffers, by term."""
    cfg, n_symbols = sweep.spec.cfg, sweep.spec.payload_symbols_per_block
    payload = {term: buf[: len(blocks)] for term, buf in sweep.payload.items()}
    drawn = []
    for i, b in enumerate(blocks):
        geo = build_geometry(cfg, block_rng(cfg.seed, b, GEOMETRY_STREAM))
        drawn.append(draw_block(cfg, geo, block_rng(cfg.seed, b, CHANNEL_STREAM)))
        rng = block_rng(cfg.seed, b, PAYLOAD_STREAM)
        one = uplink.simulate_uplink_rx(drawn[-1], sweep.points[0], rng, n_symbols)
        for term, buf in payload.items():
            buf[i] = getattr(one, term)
        del one  # not held while the next block is drawn
    chunk = BlockRealization(
        **{f.name: np.stack([getattr(d, f.name) for d in drawn]) for f in fields(BlockRealization)}
    )
    interference = pilot_phase.pilot_interference(chunk)
    zpsi = pilot_phase.compute_projected_residual(interference, sweep.pilots)
    est = np.empty((len(sweep.points), *chunk.H.shape), dtype=complex)
    for p, cfg_pt in enumerate(sweep.points):
        obs = pilot_phase.simulate_pilot_rx(chunk, sweep.pilots, cfg_pt, interference)
        est[p] = pilot_phase.ls_channel_estimate(obs, sweep.pilots, cfg_pt)
    return chunk, zpsi, est, payload


def _estimate(sweep: _Sweep, chunk, zpsi, methods, totals: _Totals):
    """The interferer channels of the methods `methods` (indices into
    spec.methods) on the blocks of `chunk`, in that order. The
    LOCAL_SVD_METHODS among them share one local factorization."""
    spec, cfg = sweep.spec, sweep.spec.cfg
    # the local factorization is defined for 1 <= K_I <= N
    sharing = [m for m in methods if spec.methods[m] in LOCAL_SVD_METHODS and 1 <= cfg.K_I <= cfg.N]
    local, t0 = None, time.perf_counter()
    if sharing:
        local = oos_estimation.local_svd_estimate(zpsi, cfg.K_I)
        totals.shared_s[sharing] += (time.perf_counter() - t0) / len(sharing)
    ghats = []
    for m in methods:
        t0 = time.perf_counter()
        method = spec.methods[m]
        ghats.append(_interferer_channels(method, chunk, zpsi, cfg, sweep.chain, totals, local))
        totals.shared_s[m] += time.perf_counter() - t0
    return ghats


def _detect(sweep: _Sweep, chunk, est, payload, methods, ghats, points, totals: _Totals):
    """Detect the methods `methods` (indices into spec.methods), with
    interferer channels `ghats`, on the blocks of `chunk` at the SNR
    points `points`, and add their bit errors to `totals`. est holds the
    pilot LS estimates (len(points), B, L, N, K) of those points, payload
    the blocks' payload by term.

    Methods whose augmented channels have the same width form a group,
    whose channel side runs once, on every (point, block) position; the
    genie's channels do not depend on the point, so its channel side runs
    on the blocks alone, in a group of its own. Per point, each group
    gets one apply call."""
    spec, cfg = sweep.spec, sweep.spec.cfg
    ghat_of = dict(zip(methods, ghats))
    groups: dict[tuple, list] = {}
    for m in methods:
        method = spec.methods[m]
        groups.setdefault((_augmented_width(method, cfg), method == GENIE), []).append(m)
    sides = []  # (method indices, rows of points, channel side)
    for (width, genie), members in groups.items():
        t0 = time.perf_counter()
        ue = chunk.H[None] if genie else est
        aug = _augmented_stack([ghat_of[m] for m in members], ue, width)
        side = _channel_side(spec.detector, aug, cfg, sweep.chain)
        totals.shared_s[members] += (time.perf_counter() - t0) / len(members)
        sides.append((members, len(ue), side))

    x, y = payload["x"], payload["y"]
    for j, p in enumerate(points):
        cfg_pt = sweep.points[p]
        if "hx" in payload:  # the buffer may hold another point's y
            terms = payload["hx"], payload.get("gs"), payload["noise"]
            uplink.received_signal(cfg_pt.rho, *terms, out=y)
        for members, count, side in sides:
            # the genie's one channel side serves every point
            channel = tuple(part[:, min(j, count - 1)] for part in side)
            t0 = time.perf_counter()
            ue = _apply(spec.detector, y, channel, cfg_pt, sweep.chain)
            totals.apply_s[p, members] += (time.perf_counter() - t0) / len(members)
            errors = uplink.count_bit_errors(ue, x)
            totals.errors[p, members] += errors.reshape(len(members), -1).sum(axis=1)
            totals.bits[p, members] += 2 * x.size  # 2 bits per QPSK symbol


def _run_chunk(sweep: _Sweep, blocks: range):
    """Run the sweep on the blocks `blocks`, stacked. If a stage fails
    numerically, drop what the chunk did, draw each block again as a
    chunk of its own, and rerun each of its methods alone: a failed
    estimation is charged at every SNR point, a failed detection at its
    point."""
    spec = sweep.spec
    methods, points = range(len(spec.methods)), range(len(sweep.points))
    chunk, zpsi, est, payload = _draw(sweep, blocks)
    try:
        totals = _Totals(spec)
        ghats = _estimate(sweep, chunk, zpsi, methods, totals)
        _detect(sweep, chunk, est, payload, methods, ghats, points, totals)
    except NumericalFailure:
        totals = _Totals(spec)
        for b in blocks:
            chunk, zpsi, est, payload = _draw(sweep, range(b, b + 1))
            for m in methods:
                failed = []
                try:
                    ghats = _estimate(sweep, chunk, zpsi, [m], totals)
                except NumericalFailure as exc:
                    failed = [(p, exc) for p in points]
                for p in () if failed else points:
                    try:
                        _detect(sweep, chunk, est[p : p + 1], payload, [m], ghats, [p], totals)
                    except NumericalFailure as exc:
                        failed.append((p, exc))
                for p, exc in failed:
                    failure = (spec.methods[m], spec.snr_grid_db[p], b, str(exc))
                    totals.failures[p].append(failure)
    sweep.totals.add(totals)


def run_monte_carlo(spec: ExperimentSpec) -> MonteCarloOutcome:
    """Run the full sweep; returns one row per (method, SNR point).

    Blocks run in chunks of CHUNK_BLOCKS; every stage runs once per chunk
    on the blocks stacked along a leading axis, and only one chunk is held
    at a time. Per chunk, once for all SNR points: each block's geometry,
    channel draw and payload draw (symbols, interferer signal and noise,
    each from the block's own streams), the projected residual (which
    does not depend on rho), the pilot LS estimates of every point, one
    local SVD of the residual shared by the methods that start from it,
    each method's interferer-channel estimate with its OoS chain pass,
    and one detection channel side per width group, i.e. per set of
    methods whose augmented channels have the same width, stacked over
    all points (plus one for the genie, on the blocks alone). Per SNR
    point: the received payload sqrt(rho) H x + G s + n and one apply
    step per channel side.

    If any stage of a chunk fails numerically, the chunk's results are
    dropped, each block of it is drawn again as a chunk of its own, and
    each (method, block) reruns alone: a method that fails on a block is
    excluded there and counted once per SNR point, or once at the point
    whose detection failed. Rows and failures come out in (SNR, block,
    method) order, and a call's time is split evenly across its methods
    (see ResultRow).
    """
    sweep = _Sweep(spec)
    trials = spec.cfg.trials
    for start in range(0, trials, CHUNK_BLOCKS):
        _run_chunk(sweep, range(start, min(start + CHUNK_BLOCKS, trials)))
    return sweep.outcome()


def rows_to_csv(rows: list[ResultRow]) -> str:
    """Deterministic CSV: shortest round-trip float formatting, fixed columns."""
    if not rows:
        raise ValueError("no rows to report")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [
                r.method,
                repr(float(r.snr_db)),
                repr(float(r.ber)),
                r.bit_count,
                repr(float(r.ci_low)),
                repr(float(r.ci_high)),
                r.fronthaul_per_link_real_symbols,
                r.seed,
            ]
        )
    return buf.getvalue()


def emit_report(rows: list[ResultRow], spec: ExperimentSpec, out_dir=None, diagnostics=None):
    """Write results.csv and results.json (spec embedded); returns the paths."""
    from pathlib import Path

    if not rows:
        raise ValueError("no rows to report")
    out = Path(out_dir if out_dir is not None else spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    csv_path.write_text(rows_to_csv(rows))
    payload = {
        "spec": spec.to_dict(),
        "rows": [asdict(r) for r in rows],
        "fronthaul": load_table(spec.cfg, spec.detector, spec.methods),
    }
    if diagnostics is not None:
        payload["diagnostics"] = {
            "numerical_failures": diagnostics.numerical_failures,
            "degenerate_rotations": diagnostics.degenerate_rotations,
            "failures": [dict(zip(FAILURE_KEYS, f)) for f in diagnostics.failures],
        }
    json_path = out / "results.json"
    json_path.write_text(json.dumps(payload, indent=2))
    return csv_path, json_path


def load_table(cfg: SystemConfig, detector: str = "distributed_zf", methods=METHODS):
    """Measured per-link loads by (method, phase); formula-checked. A
    method whose estimator or detection is undefined under `cfg` (see
    undefined_reason) maps to None."""
    table = {}
    for method in methods:
        if undefined_reason(method, cfg, detector):
            table[method] = None
            continue
        report = load_report(method, cfg, detector)
        table[method] = {p: report.per_link_symbols(p) for p in report.phases()}
    return table
