"""Monte Carlo harness: method sweep over uplink power, BER curves,
fronthaul-load accounting, machine-readable outputs.

All methods and all SNR points at a given block index share the same
geometry, channels, interferer signal and noise, so curves are paired
comparisons; the payload is redrawn per SNR point from the same block
stream, so its symbols and noise are shared too. Blocks are drawn from
per-index RNG streams, which makes every result a pure function of
(spec, seed) regardless of execution order or of the rest of the grid.

The sweep runs CHUNK_BLOCKS consecutive blocks at a time: each block is
drawn alone, the draws are stacked along a leading block axis, and every
stage (estimation, chain pass, detection) runs once per chunk on the
stack. The batched kernels treat each block as they would alone, so the
results do not depend on the chunk size.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import fronthaul, oos_estimation, pilot_phase, uplink
from .fronthaul import Chain
from .numerics import NumericalFailure
from .scenario import (
    CHANNEL_STREAM,
    GEOMETRY_STREAM,
    PAYLOAD_STREAM,
    BlockRealization,
    SystemConfig,
    block_rng,
    build_geometry,
    build_pilot_book,
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


@dataclass(frozen=True)
class ExperimentSpec:
    cfg: SystemConfig = field(default_factory=SystemConfig)
    snr_grid_db: tuple[float, ...] = (-10.0, -8.0, -6.0, -4.0, -2.0, 0.0)
    methods: tuple[str, ...] = METHODS
    detector: str = "centralized_zf"
    payload_symbols_per_block: int = 0  # 0 -> tau_c - tau_p
    out_dir: str = "results"

    def __post_init__(self):
        if not self.methods:
            raise ValueError("methods must be nonempty")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; expected subset of {METHODS}")
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        for method in self.methods:
            reason = undefined_reason(method, self.cfg)
            if reason:
                raise ValueError(reason)
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must be nonempty")
        max_payload = self.cfg.tau_c - self.cfg.tau_p
        if self.payload_symbols_per_block == 0:
            object.__setattr__(self, "payload_symbols_per_block", max_payload)
        if not 1 <= self.payload_symbols_per_block <= max_payload:
            raise ValueError(
                f"payload_symbols_per_block must be in 1..{max_payload}"
            )
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        object.__setattr__(self, "methods", tuple(self.methods))

    def to_dict(self) -> dict:
        """Plain-data form. A default AP order is written as [] so that a
        changed L derives its own default when the dict is read back."""
        d = asdict(self)
        order = self.cfg.ap_order
        d["cfg"]["ap_order"] = [] if order == default_ap_order(self.cfg.L) else list(order)
        d["snr_grid_db"] = list(self.snr_grid_db)
        d["methods"] = list(self.methods)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        d = dict(d)
        cfg = config_from_dict(d.pop("cfg", {}))
        spec = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        if "snr_grid_db" in spec:
            spec["snr_grid_db"] = tuple(spec["snr_grid_db"])
        if "methods" in spec:
            spec["methods"] = tuple(spec["methods"])
        return cls(cfg=cfg, **spec)


def config_from_dict(cfg_dict: dict) -> SystemConfig:
    """SystemConfig from the "cfg" entry of ExperimentSpec.to_dict()."""
    cfg_dict = dict(cfg_dict)
    cfg_dict["ap_order"] = tuple(cfg_dict.get("ap_order") or ())
    return SystemConfig(**cfg_dict)


def undefined_reason(method: str, cfg: SystemConfig) -> str | None:
    """Why `method` has no estimator under `cfg`, or None if it has one."""
    if method == "local_processing" and cfg.K_I > cfg.N:
        return (
            f"local_processing needs K_I <= N (a local residual has at most N "
            f"directions); got K_I={cfg.K_I}, N={cfg.N}"
        )
    return None


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

    `wall_time_s` is the method's detection time at this SNR point plus
    its share of the interferer estimation, which runs once per block for
    all SNR points: the estimation time divided by the number of points.
    Both are timed per chunk of blocks, so each block is charged an equal
    share of its chunk's time. Summed over a method's rows it is the
    method's total time.
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
    failures: list = field(default_factory=list)  # (method, snr_db, block, reason)


@dataclass
class MonteCarloOutcome:
    rows: list[ResultRow]
    diagnostics: RunDiagnostics


def _interferer_channels(method, block, zpsi, cfg, chain, diagnostics):
    """SNR-invariant part of one method's augmented channels: per-AP
    interferer channels, or None for a method that uses the UE estimates
    alone. Chain-based methods record their OoS pass on `chain`."""
    if method == "centralized_genie":
        return block.G
    if method == "no_suppression" or cfg.K_I == 0:
        return None
    if method == "local_processing":
        return oos_estimation.local_svd_estimate(zpsi, cfg.K_I)[1]
    diag = oos_estimation.ChainDiagnostics()
    if method == "seq_procrustes":
        sbar = oos_estimation.run_sequential_procrustes(zpsi, cfg, chain, diag)
    elif method == "seq_gramian":
        sbar = oos_estimation.run_gramian_method(zpsi, cfg, chain)
    else:
        raise ValueError(f"unknown method {method!r}")
    diagnostics.degenerate_rotations += diag.degenerate_rotations
    return oos_estimation.estimate_oos_channels(zpsi, sbar)


def _augmented_channels(method, block, est, ghat):
    """Per-AP augmented matrices [UE channels, interferer channels]: the
    genie knows the true UE channels, every other method uses `est`."""
    ue = block.H if method == "centralized_genie" else est
    return ue if ghat is None else np.concatenate([ue, ghat], axis=-1)


def _detect(detector, batch, aug, cfg, chain):
    if detector == "centralized_zf":
        return uplink.detect_centralized(batch, aug)
    if detector == "distributed_zf":
        gamma = uplink.accumulate_channel_gramian(aug, chain)
        return uplink.detect_distributed_zf(batch, aug, gamma, chain)
    if detector == "sequential_ls":
        return uplink.detect_sequential_ls(batch, aug, cfg, chain).xhat
    raise ValueError(f"unknown detector {detector!r}")


def _select(stack, blocks):
    """The blocks `blocks` (an index or a slice of the leading axis) of a
    record whose arrays are stacked by block, as views."""
    return type(stack)(**{f.name: getattr(stack, f.name)[blocks] for f in fields(stack)})


def _draw_chunk(cfg: SystemConfig, blocks: range) -> BlockRealization:
    """Draw each block from its own streams, then stack the draws."""
    drawn = []
    for b in blocks:
        geo = build_geometry(cfg, block_rng(cfg.seed, b, GEOMETRY_STREAM))
        drawn.append(draw_block(cfg, geo, block_rng(cfg.seed, b, CHANNEL_STREAM)))
    return BlockRealization(
        **{f.name: np.stack([getattr(d, f.name) for d in drawn]) for f in fields(BlockRealization)}
    )


def _draw_payload(cfg, chunk, blocks: range, n_symbols: int) -> uplink.UplinkSymbolBatch:
    """Each block's payload at cfg's uplink power, drawn from the block's
    own stream and written into one preallocated stack."""
    stack = uplink.UplinkSymbolBatch(
        x=np.empty((len(blocks), cfg.K, n_symbols), dtype=complex),
        s=np.empty((len(blocks), cfg.K_I, n_symbols), dtype=complex),
        y=np.empty((len(blocks), cfg.L, cfg.N, n_symbols), dtype=complex),
    )
    for i, b in enumerate(blocks):
        one = uplink.simulate_uplink_rx(
            _select(chunk, i), cfg, block_rng(cfg.seed, b, PAYLOAD_STREAM), n_symbols=n_symbols
        )
        stack.x[i], stack.s[i], stack.y[i] = one.x, one.s, one.y
    return stack


def _run_stage(stage, span: slice, diagnostics: RunDiagnostics):
    """Run `stage(span, counts)` once for the chunk positions in `span`.

    If that raises a NumericalFailure, the stage reruns on each block of
    the span alone, so a failure is charged to the block that caused it.
    Returns [(span, result or NumericalFailure)] covering `span` in
    order. The stage adds its diagnostic counts to `counts`; they reach
    `diagnostics` unless the call failed on more than one block, in
    which case the reruns count again.
    """
    counts = RunDiagnostics()
    try:
        result = stage(span, counts)
    except NumericalFailure as exc:
        if span.stop - span.start > 1:
            return [
                part
                for i in range(span.start, span.stop)
                for part in _run_stage(stage, slice(i, i + 1), diagnostics)
            ]
        result = exc
    diagnostics.degenerate_rotations += counts.degenerate_rotations
    return [(span, result)]


@dataclass
class _PointTally:
    """Running totals of one (SNR point, method) cell of the sweep."""

    errors: int = 0
    bits: int = 0
    detect_s: float = 0.0


class _Sweep:
    """What a sweep accumulates over its chunks."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self.tallies = [{m: _PointTally() for m in spec.methods} for _ in spec.snr_grid_db]
        self.failures = [[] for _ in spec.snr_grid_db]  # per point, in (block, method) order
        self.estimate_s = {m: 0.0 for m in spec.methods}
        self.per_link: dict[str, int | None] = {m: None for m in spec.methods}
        self.diagnostics = RunDiagnostics()

    def record_link_load(self, method: str, chain: Chain):
        link_load = chain.log.per_link_symbols("oos_forward")
        if self.per_link[method] is None:
            self.per_link[method] = link_load
        elif link_load != self.per_link[method]:
            raise fronthaul.ChainError(f"per-link load changed between blocks for {method}")


def _run_chunk(sweep: _Sweep, pilots, points, blocks: range):
    """Run every stage of the sweep once on the stacked blocks `blocks`."""
    spec, cfg = sweep.spec, sweep.spec.cfg
    chunk = _draw_chunk(cfg, blocks)
    interference = pilot_phase.pilot_interference(chunk)
    zpsi = pilot_phase.compute_projected_residual(interference, pilots)

    estimates = {}
    for method in spec.methods:

        def estimate(s, counts):
            chain = Chain.for_config(cfg)
            ghat = _interferer_channels(method, _select(chunk, s), zpsi[s], cfg, chain, counts)
            sweep.record_link_load(method, chain)
            return ghat

        t0 = time.perf_counter()
        estimates[method] = _run_stage(estimate, slice(0, len(blocks)), sweep.diagnostics)
        sweep.estimate_s[method] += time.perf_counter() - t0

    for snr_db, cfg_pt, tally, failures in zip(
        spec.snr_grid_db, points, sweep.tallies, sweep.failures
    ):
        obs = pilot_phase.simulate_pilot_rx(chunk, pilots, cfg_pt, interference)
        est = pilot_phase.ls_channel_estimate(obs, pilots, cfg_pt)
        batch = _draw_payload(cfg_pt, chunk, blocks, spec.payload_symbols_per_block)
        failed = []  # (block, method index, method, exception)
        for m, method in enumerate(spec.methods):
            for span, ghat in estimates[method]:
                if isinstance(ghat, NumericalFailure):
                    failed += [(blocks[i], m, method, ghat) for i in range(span.start, span.stop)]
                    continue

                def detect(s, counts):
                    own = None if ghat is None else ghat[s.start - span.start : s.stop - span.start]
                    aug = _augmented_channels(method, _select(chunk, s), est[s], own)
                    chain = Chain.for_config(cfg)
                    return _detect(spec.detector, _select(batch, s), aug, cfg_pt, chain)

                t0 = time.perf_counter()
                detected = _run_stage(detect, span, sweep.diagnostics)
                tally[method].detect_s += time.perf_counter() - t0
                for s, xhat in detected:
                    if isinstance(xhat, NumericalFailure):
                        failed.append((blocks[s.start], m, method, xhat))
                        continue
                    tally[method].errors += int(
                        uplink.count_bit_errors(xhat[..., : cfg.K, :], batch.x[s]).sum()
                    )
                    tally[method].bits += 2 * batch.x[s].size  # 2 bits per QPSK symbol
        for b, _, method, exc in sorted(failed, key=lambda f: f[:2]):
            sweep.diagnostics.numerical_failures += 1
            failures.append((method, snr_db, b, str(exc)))


def run_monte_carlo(spec: ExperimentSpec) -> MonteCarloOutcome:
    """Run the full sweep; returns one row per (method, SNR point).

    Blocks run in chunks of CHUNK_BLOCKS; every stage runs once per chunk
    on the blocks stacked along a leading axis, and only one chunk is held
    at a time. Per chunk, once for all SNR points: each block's geometry
    and channel draw (from the block's own streams), the projected
    residual (which does not depend on rho), and each method's
    interferer-channel estimate with its OoS chain pass. Per SNR point:
    the pilot LS estimate, each block's payload draw shared by all
    methods, and each method's detection. A stage that fails numerically
    on the chunk reruns block by block; a method that fails on a block is
    excluded there and counted once per SNR point. Rows and failures come
    out in (SNR, block, method) order, and a chunk's time is split evenly
    across its blocks (see ResultRow).
    """
    cfg = spec.cfg
    pilots = build_pilot_book(cfg)
    points = [replace(cfg, rho=10.0 ** (snr_db / 10.0)) for snr_db in spec.snr_grid_db]
    sweep = _Sweep(spec)
    for start in range(0, cfg.trials, CHUNK_BLOCKS):
        _run_chunk(sweep, pilots, points, range(start, min(start + CHUNK_BLOCKS, cfg.trials)))

    diagnostics = sweep.diagnostics
    rows: list[ResultRow] = []
    for snr_db, tally, failures in zip(spec.snr_grid_db, sweep.tallies, sweep.failures):
        diagnostics.failures.extend(failures)
        for method in spec.methods:
            t = tally[method]
            if t.bits == 0:
                diagnostics.failures.append((method, snr_db, -1, "no surviving blocks"))
                continue
            lo, hi = uplink.wilson_interval(t.errors, t.bits)
            rows.append(
                ResultRow(
                    method=method,
                    snr_db=snr_db,
                    ber=t.errors / t.bits,
                    bit_count=t.bits,
                    ci_low=lo,
                    ci_high=hi,
                    fronthaul_per_link_real_symbols=sweep.per_link[method] or 0,
                    wall_time_s=t.detect_s + sweep.estimate_s[method] / len(points),
                    seed=cfg.seed,
                )
            )
    return MonteCarloOutcome(rows=rows, diagnostics=diagnostics)


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
    }
    if diagnostics is not None:
        payload["diagnostics"] = {
            "numerical_failures": diagnostics.numerical_failures,
            "degenerate_rotations": diagnostics.degenerate_rotations,
            "failures": diagnostics.failures,
        }
    json_path = out / "results.json"
    json_path.write_text(json.dumps(payload, indent=2))
    return csv_path, json_path


def load_table(cfg: SystemConfig, detector: str = "distributed_zf", methods=METHODS):
    """Measured per-link loads by (method, phase); formula-checked. A
    method that is undefined under `cfg` maps to None."""
    table = {}
    for method in methods:
        if undefined_reason(method, cfg):
            table[method] = None
            continue
        report = fronthaul.load_report(method, cfg, detector)
        table[method] = {p: report.per_link_symbols(p) for p in report.phases()}
    return table
