"""Monte Carlo harness: method sweep over uplink power, BER curves,
the fronthaul load ledger, machine-readable outputs.

The method and detector dispatch lives here, once (_interferer_channels,
_augmented_stack, _ue_rows, _chain_side, _zf_side, _apply). All methods
and SNR points at a block index share its draws, so curves are paired
comparisons; each block draws from its own RNG streams, so every result
is a pure function of (spec, seed). The sweep runs in spans of blocks
(_run_span).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from . import oos_estimation, pilot_phase, uplink
from .fronthaul import Chain, ChainError, LoadReport
from .numerics import NumericalFailure, shared_matmul
from .scenario import (
    CHUNK_BLOCKS,
    SPAN_BLOCKS,
    BlockRealization,
    SystemConfig,
    block_generators,
    build_geometry,
    build_pilot_book,
    check_real,
    check_sweep_size,
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

# Keys of a failure record in results.json: (method, SNR, block, reason).
FAILURE_KEYS = ("method", "snr_db", "block", "reason")


@dataclass(frozen=True)
class ExperimentSpec:
    cfg: SystemConfig = field(default_factory=SystemConfig)
    snr_grid_db: tuple[float, ...] = (-10.0, -8.0, -6.0, -4.0, -2.0, 0.0)
    methods: tuple[str, ...] = METHODS
    detector: str = "centralized_zf"
    out_dir: str = "results"

    def __post_init__(self):
        for name in ("snr_grid_db", "methods"):
            value = getattr(self, name)
            if not isinstance(value, (tuple, list)) or not value:
                raise ValueError(f"{name} must be a nonempty list; got {value!r}")
        for snr_db in self.snr_grid_db:
            check_real("snr_grid_db entry", snr_db)
            uplink_power(snr_db)
        if self.cfg.rho != 1.0:
            raise ValueError(f"cfg.rho={self.cfg.rho} must be 1.0: snr_grid_db sets the uplink power")
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise ValueError(f"out_dir must be a path; got {self.out_dir!r}")
        object.__setattr__(self, "out_dir", os.fspath(self.out_dir))  # as results.json writes it
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; expected subset of {METHODS}")
        for what, values in (("methods", self.methods), ("SNR points", self.snr_grid_db)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{what} listed more than once: {repeated}")
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        for method in self.methods:
            reason = undefined_reason(method, self.cfg)
            if reason:
                raise ValueError(reason)
        check_sweep_size(self.cfg, len(self.snr_grid_db), len(self.methods))
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        object.__setattr__(self, "methods", tuple(self.methods))

    def to_dict(self) -> dict:
        """Plain-data form. A default AP order is written as [], so that a
        changed L derives its own default when the dict is read back."""
        d = asdict(self)
        cfg, order = self.cfg, self.cfg.ap_order
        d["cfg"]["ap_order"] = [] if order == default_ap_order(cfg.L) else list(order)
        d["snr_grid_db"] = list(self.snr_grid_db)
        d["methods"] = list(self.methods)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        check_fields("spec", d, cls)
        d = dict(d)
        return cls(cfg=config_from_dict(d.pop("cfg", {})), **d)


def check_fields(kind: str, d: dict, cls) -> None:
    """Raise ValueError unless `d` is a dict of fields of the dataclass
    `cls`, naming any other keys (`kind` names it in the message)."""
    if not isinstance(d, dict):
        raise ValueError(f"{kind} must be a JSON object; got {d!r}")
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
    """Per-link real-symbol loads by phase, from the closed-form counts
    (per block or per symbol period, as fronthaul says). Methods without
    chain traffic contribute no phases."""
    r = cfg.tau_p - cfg.K
    m = _augmented_width(method, cfg)
    phases: dict[str, int] = {}
    if cfg.K_I > 0 and method in ("seq_procrustes", "seq_gramian"):
        forward, broadcast = oos_estimation.OOS_PHASES
        phases[forward] = 2 * cfg.K_I * r if method == "seq_procrustes" else r * r
        phases[broadcast] = 2 * cfg.K_I * r
    if detector in uplink.CHAIN_PHASES:
        per_block, per_symbol = uplink.CHAIN_PHASES[detector]
        phases[per_block] = m * m
        phases[per_symbol] = 2 * m
    return phases


def load_report(method: str, cfg: SystemConfig, detector: str = "distributed_zf") -> LoadReport:
    """Measured per-link loads of `method` under `detector`: the log of the
    sweep run on one block on a logging chain, so that the loads checked
    are those of the sweep's own passes. Raises NumericalFailure if the
    block fails, and ChainError unless the log equals analytic_per_link."""
    one_block = replace(cfg, rho=1.0, trials=1)
    spec = ExperimentSpec(one_block, snr_grid_db=(0.0,), methods=(method,), detector=detector)
    chain = Chain.for_config(cfg)
    sweep = _Sweep(spec, chain)
    # a block no sweep of cfg scores: a failure that a run counted is not
    # raised again when the run's report replays the ledger
    _run_span(sweep, range(cfg.trials, cfg.trials + 1))
    failures = sweep.totals.failures[0]
    if failures:
        raise NumericalFailure(failures[0][-1])

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
    """Variant with more interferers than antennas per AP (K_I > N), where
    rotate-and-average loses ground to the Gramian pass: an AP's residual
    shows only N interferer directions, and
    oos_estimation._local_signal_basis completes its local estimate from
    the Householder QR of that residual. The local method is omitted: its
    estimator is undefined in this regime."""
    overrides.setdefault("cfg", SystemConfig(K_I=5))
    overrides.setdefault(
        "methods", ("seq_procrustes", "seq_gramian", "centralized_genie")
    )
    return ExperimentSpec(**overrides)


@dataclass
class ResultRow:
    """One (method, SNR point) of the sweep."""

    method: str
    snr_db: float
    ber: float
    bit_count: int
    ci_low: float
    ci_high: float
    fronthaul_per_link_real_symbols: int
    seed: int


# The columns of results.csv: ResultRow's fields, in order.
CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass
class RunDiagnostics:
    numerical_failures: int = 0
    degenerate_rotations: int = 0
    failures: list = field(default_factory=list)  # tuples in FAILURE_KEYS order


@dataclass
class MonteCarloOutcome:
    rows: list[ResultRow]
    diagnostics: RunDiagnostics
    stages: dict  # stage name -> {"seconds": float, "calls": int}, see _Sweep


def _interferer_channels(method, G, zpsi, cfg, chain, counts, local=None):
    """SNR-invariant part of one method's augmented channels on a stack
    of blocks, with residuals zpsi (B, L, N, tau_p - K): per-AP interferer
    channels (the true ones, G, for the genie), or None for a method that
    uses the UE estimates alone. Degenerate rotations are counted on
    `counts`. `local` is local_svd_estimate(zpsi, K_I) for the
    LOCAL_SVD_METHODS, or None where that is undefined (K_I > N) or no
    such method runs."""
    if method == GENIE:
        return G
    if method == "no_suppression" or cfg.K_I == 0:
        return None
    if method == "local_processing":
        return local[1]
    if method == "seq_procrustes":
        bases = None if local is None else local[0]
        sbar = oos_estimation.run_sequential_procrustes(zpsi, cfg, chain, counts, bases)
        return oos_estimation.estimate_oos_channels(zpsi, sbar)
    if method == "seq_gramian":
        # The pass and the CPU eigensolve are bound by their (tau_p - K)^2
        # products, not by per-call overhead, so the blocks take them
        # CHUNK_BLOCKS at a time: those stacks stay chunk-sized in a span.
        # Orthonormal columns: Sbar (Sbar^H Sbar)^{-1} is Sbar itself.
        sbar = [
            oos_estimation.run_gramian_method(zpsi[start : start + CHUNK_BLOCKS], cfg, chain)
            for start in range(0, len(zpsi), CHUNK_BLOCKS)
        ]
        return shared_matmul(zpsi, np.concatenate(sbar))
    raise ValueError(f"unknown method {method!r}")


def _augmented_stack(ghats, ue, width):
    """Per-AP augmented matrices [UE channels `ue`, interferer channels]
    of each method, from its entry (or None) in `ghats`, stacked along a
    leading method axis: (M, *ue.shape[:-1], width)."""
    K = ue.shape[-1]
    aug = np.empty((len(ghats), *ue.shape[:-1], width), dtype=complex)
    for out, ghat in zip(aug, ghats):
        out[..., :K] = ue
        if ghat is not None:
            out[..., K:] = ghat
    return aug


def _ue_rows(detector, aug, cfg, chain):
    """The pass of the chain detector `detector` on the augmented channels
    `aug` (M, ..., L, N, w) of M methods of one width: the UE rows of its
    Gramian inverse or error covariance, (M, ..., K, w), a view."""
    if detector == "distributed_zf":
        rows = uplink.inverse_gramian(uplink.accumulate_channel_gramian(aug, chain))
    elif detector == "sequential_ls":
        rows = uplink.sequential_ls_covariance(aug, cfg, chain)
    else:
        raise ValueError(f"unknown detector {detector!r}")
    return rows[..., : cfg.K, :]


def _apply(detector, y, side, at, chain):
    """The K UEs' estimates, block-major (..., M K, T), from the received
    vectors `y` and a side of _channel_sides at `at` (its point and
    blocks): one product per block of the side's filter, after the chain
    pass under a chain detector."""
    if detector == "centralized_zf":
        return uplink.apply_zf_filter(y, side[at])
    W_h, F = side
    return uplink.apply_chain(y, W_h[at], F[at], chain, detector)


class _Totals:
    """What the sweep adds up, for the whole run or for one span."""

    def __init__(self, spec: ExperimentSpec):
        shape = (len(spec.snr_grid_db), len(spec.methods))
        self.errors = np.zeros(shape, dtype=np.int64)
        self.bits = np.zeros(shape, dtype=np.int64)
        self.failures = [[] for _ in spec.snr_grid_db]  # FAILURE_KEYS tuples
        self.degenerate_rotations = 0

    def add(self, other: _Totals):
        self.errors += other.errors
        self.bits += other.bits
        for mine, theirs in zip(self.failures, other.failures):
            mine += theirs
        self.degenerate_rotations += other.degenerate_rotations


class _Sweep:
    """What a sweep holds across its spans, and its stage trace: seconds
    and calls per stage name, which lap charges at each stage boundary.
    Its chain does not log unless load_report passes one that does. The
    SNR points are held as their uplink powers (powers, which
    ExperimentSpec has checked through uplink_power), and one config,
    payload_cfg, at the first point's power draws the payload
    (_draw_payload).

    A span counts one call of estimate.local_svd and of each
    estimate.<method>, and one of channel_side.<detector> for the
    methods that share the pilot LS estimates and one for the genie. Each
    of its chunks counts two of draw (its channels, with the span's
    seeding and geometry in the first chunk's, then its payload) and one
    of pilot;
    each chunk and point, one of apply.<detector> (forming the point's
    received signal too) and of score per side: one for the methods
    that share the pilot LS estimates and one for the genie under a
    chain detector, one in all under centralized ZF (_channel_sides).
    Where the genie's side is applied once per chunk (_detect), those
    passes are charged to the chunk's first apply.<detector> lap, and its
    own apply laps at each point only scale and sum them; the counts stay
    as above. A rerun block draws and runs its pilot phase as a span of
    one chunk, then counts each method's estimate once and its channel
    side, apply and score once per point."""

    def __init__(self, spec: ExperimentSpec, chain: Chain | None = None):
        self.seconds, self.calls = Counter(), Counter()
        self.lap()
        cfg, n_symbols = spec.cfg, spec.cfg.tau_c - spec.cfg.tau_p
        self.spec = spec
        self.pilots = build_pilot_book(cfg)
        self.chain = Chain(cfg.ap_order, log=None) if chain is None else chain
        self.powers = [uplink_power(snr_db) for snr_db in spec.snr_grid_db]
        self.payload_cfg = replace(cfg, rho=self.powers[0])
        self.totals = _Totals(spec)
        size = min(CHUNK_BLOCKS, cfg.trials)

        # Rows [:B] hold a chunk of B blocks (or one rerun block); y holds
        # one SNR point at a time. On a grid of one point y comes with the
        # draw (G s and n pass through one scratch); otherwise the terms
        # H x, G s and n are kept and each point forms its own y.
        rx = (cfg.L, cfg.N, n_symbols)
        shapes = {"x": (cfg.K, n_symbols), "y": rx}
        if len(self.powers) > 1:
            shapes.update(hx=rx, gs=rx, noise=rx)
        self.payload = {t: np.empty((size, *shape), dtype=complex) for t, shape in shapes.items()}
        s = np.empty((cfg.K_I, n_symbols), dtype=complex)
        scratch = np.empty(rx, dtype=complex) if len(self.powers) == 1 else None
        self.rows = []
        for i in range(size):
            row = {t: buf[i] for t, buf in self.payload.items()}
            if scratch is not None:
                row.update(hx=row["y"], gs=scratch, noise=scratch)
            self.rows.append(uplink.UplinkSymbolBatch(s=s, **row))

    def lap(self, stage: str | None = None):
        """Charge the time since the last lap (or the sweep's making) to
        `stage`, which just ended; a stage that raised is charged to the
        next one, and no stage restarts the clock."""
        now = time.perf_counter()
        if stage is not None:
            self.seconds[stage] += now - self.clock
            self.calls[stage] += 1
        self.clock = now

    def outcome(self) -> MonteCarloOutcome:
        """One row per (SNR point, method) with surviving blocks, and the
        failures in (SNR, block, method) order of the chunks run."""
        spec, totals = self.spec, self.totals
        diagnostics = RunDiagnostics(
            numerical_failures=sum(map(len, totals.failures)),
            degenerate_rotations=totals.degenerate_rotations,
        )
        loads = [
            analytic_per_link(m, spec.cfg, spec.detector).get(oos_estimation.OOS_PHASES[0], 0)
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
                rows.append(
                    ResultRow(
                        method=method,
                        snr_db=snr_db,
                        ber=errors / bits,
                        bit_count=bits,
                        ci_low=lo,
                        ci_high=hi,
                        fronthaul_per_link_real_symbols=loads[m],
                        seed=spec.cfg.seed,
                    )
                )
        stages = {s: {"seconds": t, "calls": self.calls[s]} for s, t in self.seconds.items()}
        return MonteCarloOutcome(rows=rows, diagnostics=diagnostics, stages=stages)


@dataclass
class _Span:
    """What a span's chunks share, by block of the span: the true
    channels H (B, L, N, K) and G (B, L, N, K_I), the projected residuals
    zpsi (B, L, N, tau_p - K), the pilot LS estimates of every SNR point,
    est (P, B, L, N, K), and each block's payload generator, seeded with
    the span's other streams (_draw_pilot)."""

    blocks: range
    H: np.ndarray
    G: np.ndarray
    zpsi: np.ndarray
    est: np.ndarray
    payload_rngs: list


def _draw_pilot(sweep: _Sweep, blocks: range) -> _Span:
    """Draw the span `blocks` and run its pilot phase, a chunk at a time
    (_run_span), into the span's arrays. Every stream of every block of
    the span is seeded first, in one pass (scenario.block_generators),
    charged to the first chunk's draw; the payload generators go with
    the span to _draw_payload. The pilot phase's parts that do not depend
    on the uplink power, the pilot product H Phi^H and the interference,
    are formed once per chunk, and each point of the sweep's powers only
    scales and sums them and writes its LS estimates into span.est
    (pilot_phase.point_estimates)."""
    cfg, powers, pilots = sweep.spec.cfg, sweep.powers, sweep.pilots
    geometry, channels, payload = block_generators(cfg.seed, blocks)
    geo = build_geometry(cfg, geometry)
    B, L, N = len(blocks), cfg.L, cfg.N
    span = _Span(
        blocks,
        H=np.empty((B, L, N, cfg.K), dtype=complex),
        G=np.empty((B, L, N, cfg.K_I), dtype=complex),
        zpsi=np.empty((B, L, N, cfg.tau_p - cfg.K), dtype=complex),
        est=np.empty((len(powers), B, L, N, cfg.K), dtype=complex),
        payload_rngs=payload,
    )
    for start in range(0, B, CHUNK_BLOCKS):
        rows = slice(start, start + CHUNK_BLOCKS)
        betas = replace(geo, beta_ue=geo.beta_ue[rows], beta_oos=geo.beta_oos[rows])
        chunk = draw_block(cfg, betas, channels[rows])
        span.H[rows], span.G[rows] = chunk.H, chunk.G
        sweep.lap("draw")
        interference = pilot_phase.pilot_interference(chunk)
        span.zpsi[rows] = pilot_phase.compute_projected_residual(interference, pilots)
        pilot_phase.point_estimates(chunk.H, interference, pilots, powers, span.est[:, rows])
        sweep.lap("pilot")
    return span


def _draw_payload(sweep: _Sweep, span: _Span, rows: slice) -> dict:
    """Draw the payload of the span's blocks `rows` into the sweep's
    buffers, once for all points at the first point's power; returns it
    by term."""
    rngs = span.payload_rngs[rows]
    for out, H, G, rng in zip(sweep.rows, span.H[rows], span.G[rows], rngs):
        uplink.simulate_uplink_rx(BlockRealization(H, G, None, None), sweep.payload_cfg, rng, out=out)
    sweep.lap("draw")
    return {term: buf[: len(rngs)] for term, buf in sweep.payload.items()}


def _estimate(sweep: _Sweep, span: _Span, methods, totals: _Totals) -> dict:
    """The interferer channels of the methods `methods` (indices into
    spec.methods) on the blocks of `span`, by method index."""
    spec, cfg, zpsi = sweep.spec, sweep.spec.cfg, span.zpsi
    local = None
    if 1 <= cfg.K_I <= cfg.N and any(spec.methods[m] in LOCAL_SVD_METHODS for m in methods):
        local = oos_estimation.local_svd_estimate(zpsi, cfg.K_I)
        sweep.lap("estimate.local_svd")
    ghats = {}
    for m in methods:
        method = spec.methods[m]
        ghats[m] = _interferer_channels(method, span.G, zpsi, cfg, sweep.chain, totals, local)
        sweep.lap(f"estimate.{method}")
    return ghats


def _channel_sides(sweep: _Sweep, span: _Span, est, ghats: dict):
    """The channel sides of the methods whose interferer channels `ghats`
    holds (_estimate), on the blocks of `span` at the SNR points whose
    pilot LS estimates `est` holds, as (method indices, side) pairs, the
    indices an intp array that indexes a point's row of the totals
    (_detect); a side's estimates (_apply) hold its methods' in that
    order, which under a chain detector need not be sorted. The genie's
    channels do not depend on the point, so its side is formed on the
    blocks alone and serves every point (under a chain detector, applied
    once per chunk where it can be: _detect).

    Every method but the genie shares the UE columns `est`. Under a chain
    detector those methods share one side (_chain_side), and the genie
    has its own. Centralized ZF's filter rows are L N wide whatever the
    width, so all methods share one side, a block-major filter (P, B,
    M K, L N) that one product per block applies (_zf_side)."""
    spec, detector = sweep.spec, sweep.spec.detector
    if detector == "centralized_zf":
        sides = [(list(ghats), _zf_side(sweep, span, est, ghats))]
    else:
        genie = [m for m in ghats if spec.methods[m] == GENIE]
        shared = {m: ghat for m, ghat in ghats.items() if m not in genie}
        sides = [_chain_side(sweep, est, shared)] if shared else []
        sides += [_chain_side(sweep, span.H[None], {m: ghats[m]}) for m in genie]
    return [(np.array(members, dtype=np.intp), side) for members, side in sides]


def _chain_side(sweep: _Sweep, ue, ghats: dict):
    """A chain detector's side of the methods of `ghats`, which share the
    UE channels `ue` (P, B, L, N, K), as a (method indices, side) pair;
    the genie's ue is its true H on one point (1, B, L, N, K), which
    serves every point (_detect). The side is (herm(W), F). W (P, B, L,
    N, R) holds the UE columns, then each method's interferer columns in
    turn (R = K plus their widths), and herm(W) is conjugated here once
    for every method and point. Each width group, the methods whose
    augmented channels have the same width w, runs its pass (_ue_rows)
    once on those channels stacked along a method axis, which are then
    dropped. F (P, B, M K, R) is one block-major row filter, like
    centralized ZF's (_zf_side): each method's K UE rows at its own
    columns of W, zeros elsewhere, so that the chain sum takes one
    product per block. F and herm(W) are formed after the passes, so that
    neither is alive during them."""
    cfg, detector = sweep.spec.cfg, sweep.spec.detector
    K = ue.shape[-1]
    widths = {m: 0 if ghat is None else ghat.shape[-1] for m, ghat in ghats.items()}
    first = dict(zip(widths, np.cumsum([K, *widths.values()])))  # each method's first in W
    R = K + sum(widths.values())
    by_width: dict[int, list] = {}
    for m, width in widths.items():
        by_width.setdefault(width, []).append(m)
    ue_rows = {}  # each method's UE rows, a view of its group's whole ones
    for width, group in by_width.items():
        aug = _augmented_stack([ghats[m] for m in group], ue, K + width)
        ue_rows.update(zip(group, _ue_rows(detector, aug, cfg, sweep.chain)))
        del aug  # not alive during the next pass
    members = list(ue_rows)
    F = np.zeros((*ue.shape[:-3], len(members), K, R), dtype=complex)
    for slot, m in zip(np.moveaxis(F, -3, 0), members):
        slot[..., :K] = ue_rows[m][..., :K]
        slot[..., first[m] : first[m] + widths[m]] = ue_rows[m][..., K:]
    del ue_rows  # not alive while W is formed
    shape = ue.shape[:-1]
    parts = [np.broadcast_to(g, (*shape, g.shape[-1])) for g in ghats.values() if g is not None]
    W = np.concatenate([ue, *parts], axis=-1)
    W_h = np.conjugate(W, out=W).swapaxes(-1, -2)  # herm(W), in W's memory
    sweep.lap(f"channel_side.{detector}")
    return members, (W_h, F.reshape(*F.shape[:2], -1, R))


def _zf_side(sweep: _Sweep, span: _Span, est, ghats: dict) -> np.ndarray:
    """Centralized ZF's side of the methods of `ghats` (_channel_sides):
    each method's K UE rows (numerics.zf_filters, through uplink) in its
    slot of one block-major filter (P, B, M K, L N). The methods but the
    genie share the pilot LS estimates `est`, which are factored once for
    all of them, and their rows are written into their slots; the genie's
    UE channels are the true H, factored on the blocks alone and
    broadcast to every point."""
    P, B, L, N, K = est.shape
    F = np.empty((P, B, len(ghats), K, L * N), dtype=complex)
    slots = {m: F[:, :, slot] for slot, m in enumerate(ghats)}
    genie = [m for m in ghats if sweep.spec.methods[m] == GENIE]
    shared = [m for m in ghats if m not in genie]
    if shared:
        uplink.zf_filters(est, [ghats[m] for m in shared], [slots[m] for m in shared])
        sweep.lap("channel_side.centralized_zf")
    for m in genie:
        slots[m][...] = uplink.zf_filters(span.H[None], [ghats[m]])[0]
        sweep.lap("channel_side.centralized_zf")
    return F.reshape(P, B, -1, L * N)


def _detect(sweep: _Sweep, payload, sides, rows: slice, points, totals: _Totals):
    """Detect the payload `payload` of the span's blocks `rows` at the SNR
    points `points` with the channel sides `sides` (_channel_sides), and
    add their bit errors to `totals`.

    Under a chain detector the genie's side is formed on one point, and
    its estimates are linear in the received vectors y = sqrt(rho) H x +
    (G s + n). So when the payload terms are kept and there are several
    points, that side is applied once per chunk to each part, a = F
    sum_l herm(W_l) hx_l and b = F sum_l herm(W_l) (gs_l + n_l), with
    gs + n summed into y's buffer first, and each point takes sqrt(rho) a
    + b. A one-point grid or rerun applies it to each point's y."""
    spec, detector = sweep.spec, sweep.spec.detector
    x, y = payload["x"], payload["y"]
    truth = uplink.positive_parts(x)  # for every point and side
    parts = {}  # the genie's side index -> its (a, b)
    if len(points) > 1 and detector != "centralized_zf":
        for i, (members, side) in enumerate(sides):
            if spec.methods[members[0]] == GENIE:
                np.add(payload["gs"], payload["noise"], out=y)
                terms = payload["hx"], y
                parts[i] = [_apply(detector, t, side, (0, rows), sweep.chain) for t in terms]
    for j, p in enumerate(points):
        rho = sweep.powers[p]
        if "hx" in payload:  # the buffer may hold another point's y
            uplink.received_signal(rho, payload["hx"], payload["gs"], payload["noise"], out=y)
        for i, (members, side) in enumerate(sides):
            if i in parts:
                ue = uplink.received_signal(rho, *parts[i])
            else:
                ue = _apply(detector, y, side, (j, rows), sweep.chain)
            sweep.lap(f"apply.{detector}")
            # the point's row first: a 1-D index skips numpy's 2-D gather and scatter
            totals.errors[p][members] += _score(ue, truth, len(members))
            totals.bits[p][members] += 2 * x.size  # 2 bits per QPSK symbol
            sweep.lap("score")


def _score(ue, truth, methods: int) -> np.ndarray:
    """The bit errors (count_bit_errors, summed) of each of `methods`
    methods in the block-major UE estimates `ue` (B, M K, T) of a side
    (_apply), compared method-major and counted per method. `truth` is
    uplink.positive_parts of the payload symbols (B, K, T)."""
    parts = uplink.positive_parts(ue).reshape(len(truth), methods, -1).swapaxes(0, 1)
    wrong = parts != truth.reshape(len(truth), -1)
    return np.array([np.count_nonzero(w) for w in wrong])


def _run_span(sweep: _Sweep, blocks: range):
    """Run the sweep on the span `blocks`, up to SPAN_BLOCKS blocks.

    A span is the unit of the pilot side, whose stages are bound by
    per-call overhead: one geometry draw, one call of each estimator and
    the channel sides (_channel_sides), for every SNR point. Each chunk of
    CHUNK_BLOCKS blocks runs its pilot phase into the span's arrays, then
    draws its payload into the sweep's buffers and detects it point by
    point: nothing payload-sized, and no pilot noise, grows with a span.

    If a stage raises NumericalFailure, the span's totals are dropped and
    each block is drawn again alone, the same bits (its own streams and
    the stack rule: numerics), each method rerunning alone on it, so a
    failure is charged to its method, block and, for detection, SNR
    point. The failed span's calls and time stay in the trace (_Sweep)."""
    spec = sweep.spec
    methods, points = range(len(spec.methods)), range(len(sweep.powers))
    totals = _Totals(spec)
    span = _draw_pilot(sweep, blocks)
    try:
        ghats = _estimate(sweep, span, methods, totals)
        sides = _channel_sides(sweep, span, span.est, ghats)
        for start in range(0, len(blocks), CHUNK_BLOCKS):
            rows = slice(start, start + CHUNK_BLOCKS)
            payload = _draw_payload(sweep, span, rows)
            _detect(sweep, payload, sides, rows, points, totals)
    except NumericalFailure:
        totals = _Totals(spec)
        for b in blocks:
            span = _draw_pilot(sweep, range(b, b + 1))
            payload = _draw_payload(sweep, span, slice(None))
            for m in methods:
                failed = []
                try:
                    ghats = _estimate(sweep, span, [m], totals)
                except NumericalFailure as exc:
                    failed = [(p, exc) for p in points]
                for p in () if failed else points:
                    try:
                        sides = _channel_sides(sweep, span, span.est[p : p + 1], ghats)
                        _detect(sweep, payload, sides, slice(None), [p], totals)
                    except NumericalFailure as exc:
                        failed.append((p, exc))
                for p, exc in failed:
                    failure = (spec.methods[m], spec.snr_grid_db[p], b, str(exc))
                    totals.failures[p].append(failure)
    sweep.totals.add(totals)


def run_monte_carlo(spec: ExperimentSpec) -> MonteCarloOutcome:
    """Run the full sweep, one span at a time (_run_span); returns its
    rows, failures and stage trace (_Sweep.outcome)."""
    sweep = _Sweep(spec)
    trials = spec.cfg.trials
    for start in range(0, trials, SPAN_BLOCKS):
        _run_span(sweep, range(start, min(start + SPAN_BLOCKS, trials)))
    return sweep.outcome()


def rows_to_csv(rows: list[ResultRow]) -> str:
    """Deterministic CSV under the CSV_COLUMNS header: shortest round-trip floats."""
    if not rows:
        raise ValueError("no rows to report")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow(repr(float(v)) if isinstance(v, float) else v for v in astuple(r))
    return buf.getvalue()


def emit_report(outcome: MonteCarloOutcome, spec: ExperimentSpec):
    """Write results.csv and results.json (spec embedded) to spec.out_dir;
    returns their paths and the fronthaul ledger (load_table) written
    into the JSON. Both are built before either is written, so an error
    (no rows: ValueError; a load check: ChainError) leaves the directory
    as it was."""
    from pathlib import Path

    csv_text, d = rows_to_csv(outcome.rows), outcome.diagnostics
    ledger = load_table(spec.cfg, spec.detector, spec.methods)
    payload = {
        "spec": spec.to_dict(),
        "rows": [asdict(r) for r in outcome.rows],
        "fronthaul": ledger,
        "diagnostics": {**asdict(d), "failures": [dict(zip(FAILURE_KEYS, f)) for f in d.failures]},
        "stages": outcome.stages,
    }
    json_text = json.dumps(payload, indent=2)
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = out / "results.csv", out / "results.json"
    csv_path.write_text(csv_text)
    json_path.write_text(json_text)
    return csv_path, json_path, ledger


def load_table(cfg: SystemConfig, detector: str = "distributed_zf", methods=METHODS):
    """Measured per-link loads by (method, phase), formula-checked; None for
    a method whose estimator or detection is undefined (undefined_reason),
    {"failed": reason} for one whose load_report raised NumericalFailure."""
    table = {}
    for method in methods:
        if undefined_reason(method, cfg, detector):
            table[method] = None
            continue
        try:
            report = load_report(method, cfg, detector)
        except NumericalFailure as exc:
            table[method] = {"failed": str(exc)}
        else:
            table[method] = {p: report.per_link_symbols(p) for p in report.phases()}
    return table
