"""Monte Carlo harness: method sweep over uplink power, BER curves,
fronthaul-load accounting, machine-readable outputs.

All methods and all SNR points at a given block index share the same
geometry, channels, interferer signal and noise, so curves are paired
comparisons; the payload is redrawn per SNR point from the same block
stream, so its symbols and noise are shared too. Blocks are drawn from
per-index RNG streams, which makes every result a pure function of
(spec, seed) regardless of execution order or of the rest of the grid.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import fronthaul, oos_estimation, pilot_phase, uplink
from .fronthaul import Chain
from .numerics import NumericalFailure
from .scenario import (
    CHANNEL_STREAM,
    GEOMETRY_STREAM,
    PAYLOAD_STREAM,
    SystemConfig,
    block_rng,
    build_geometry,
    build_pilot_book,
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
        d = asdict(self)
        d["cfg"]["ap_order"] = list(self.cfg.ap_order)
        d["snr_grid_db"] = list(self.snr_grid_db)
        d["methods"] = list(self.methods)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        d = dict(d)
        cfg_dict = dict(d.pop("cfg", {}))
        if "ap_order" in cfg_dict and cfg_dict["ap_order"]:
            cfg_dict["ap_order"] = tuple(cfg_dict["ap_order"])
        spec = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        if "snr_grid_db" in spec:
            spec["snr_grid_db"] = tuple(spec["snr_grid_db"])
        if "methods" in spec:
            spec["methods"] = tuple(spec["methods"])
        return cls(cfg=SystemConfig(**cfg_dict), **spec)


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
    its share of the per-block interferer estimation, which runs once per
    block for all SNR points: the estimation time divided by the number
    of points. Summed over a method's rows it is the method's total time.
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
        return np.stack(
            [oos_estimation.local_svd_estimate(zpsi[i], cfg.K_I)[1] for i in range(cfg.L)]
        )
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
    return ue if ghat is None else np.concatenate([ue, ghat], axis=2)


def _detect(detector, batch, aug, cfg, chain):
    if detector == "centralized_zf":
        return uplink.detect_centralized(batch, aug)
    if detector == "distributed_zf":
        gamma = uplink.accumulate_channel_gramian(aug, chain)
        return uplink.detect_distributed_zf(batch, aug, gamma, chain)
    if detector == "sequential_ls":
        return uplink.detect_sequential_ls(batch, aug, cfg, chain).xhat
    raise ValueError(f"unknown detector {detector!r}")


@dataclass
class _PointTally:
    """Running totals of one (SNR point, method) cell of the sweep."""

    errors: int = 0
    bits: int = 0
    detect_s: float = 0.0


def run_monte_carlo(spec: ExperimentSpec) -> MonteCarloOutcome:
    """Run the full sweep; returns one row per (method, SNR point).

    Blocks are the outer loop. Per block, once for all SNR points: the
    geometry and channel draw, the projected residual (which does not
    depend on rho), and each method's interferer-channel estimate with
    its OoS chain pass. Per SNR point: the pilot LS estimate, one payload
    draw shared by all methods, and each method's detection. A method
    that fails numerically on a block is excluded there and counted once
    per SNR point; rows and failures come out in (SNR, block, method)
    order.
    """
    cfg = spec.cfg
    pilots = build_pilot_book(cfg)
    diagnostics = RunDiagnostics()
    points = [replace(cfg, rho=10.0 ** (snr_db / 10.0)) for snr_db in spec.snr_grid_db]
    tallies = [{m: _PointTally() for m in spec.methods} for _ in points]
    point_failures: list[list] = [[] for _ in points]
    estimate_s = {m: 0.0 for m in spec.methods}
    per_link: dict[str, int | None] = {m: None for m in spec.methods}

    for b in range(cfg.trials):
        geo = build_geometry(cfg, block_rng(cfg.seed, b, GEOMETRY_STREAM))
        block = draw_block(cfg, geo, block_rng(cfg.seed, b, CHANNEL_STREAM))
        zpsi = pilot_phase.compute_projected_residual(
            pilot_phase.pilot_interference(block), pilots
        )
        ghats = {}
        for method in spec.methods:
            t0 = time.perf_counter()
            chain = Chain.for_config(cfg)
            try:
                ghats[method] = _interferer_channels(
                    method, block, zpsi, cfg, chain, diagnostics
                )
            except NumericalFailure as exc:
                ghats[method] = exc
            else:
                link_load = (
                    chain.log.per_link_symbols("oos_forward")
                    if "oos_forward" in chain.log.phases()
                    else 0
                )
                if per_link[method] is None:
                    per_link[method] = link_load
                elif link_load != per_link[method]:
                    raise fronthaul.ChainError(
                        f"per-link load changed between blocks for {method}"
                    )
            finally:
                estimate_s[method] += time.perf_counter() - t0

        for snr_db, cfg_pt, tally, failures in zip(
            spec.snr_grid_db, points, tallies, point_failures
        ):
            obs = pilot_phase.simulate_pilot_rx(block, pilots, cfg_pt)
            est = pilot_phase.ls_channel_estimate(obs, pilots, cfg_pt)
            batch = uplink.simulate_uplink_rx(
                block, cfg_pt, block_rng(cfg.seed, b, PAYLOAD_STREAM),
                n_symbols=spec.payload_symbols_per_block,
            )
            for method in spec.methods:
                ghat = ghats[method]
                if isinstance(ghat, NumericalFailure):
                    diagnostics.numerical_failures += 1
                    failures.append((method, snr_db, b, str(ghat)))
                    continue
                t0 = time.perf_counter()
                try:
                    aug = _augmented_channels(method, block, est, ghat)
                    xhat = _detect(spec.detector, batch, aug, cfg_pt, Chain.for_config(cfg))
                except NumericalFailure as exc:
                    diagnostics.numerical_failures += 1
                    failures.append((method, snr_db, b, str(exc)))
                    continue
                finally:
                    tally[method].detect_s += time.perf_counter() - t0
                tally[method].errors += int(
                    uplink.count_bit_errors(xhat[: cfg.K], batch.x).sum()
                )
                tally[method].bits += 2 * cfg.K * batch.x.shape[1]

    rows: list[ResultRow] = []
    for snr_db, tally, failures in zip(spec.snr_grid_db, tallies, point_failures):
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
                    fronthaul_per_link_real_symbols=per_link[method] or 0,
                    wall_time_s=t.detect_s + estimate_s[method] / len(points),
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
    """Measured per-link loads by (method, phase); formula-checked."""
    table = {}
    for method in methods:
        report = fronthaul.load_report(method, cfg, detector)
        table[method] = {p: report.per_link_symbols(p) for p in report.phases()}
    return table
