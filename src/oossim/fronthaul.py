"""Simulated daisy-chain transport with exact real-symbol accounting.

The chain is an in-process fold over the AP visit order with
instrumentation, not a network stack: the claims being checked are about
symbol counts, not timing. One real symbol is one real scalar; a complex
scalar costs 2; a Hermitian n x n matrix costs n^2 (real diagonal plus
the complex upper triangle).

Payload-phase messages (combined uplink vectors, detector states, the
partially precoded downlink vector) are recorded per symbol period;
pilot-phase messages are per coherence block.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .numerics import NumericalFailure

CPU = 0  # node id of the central processor in link records


class ChainError(RuntimeError):
    """A fold step failed at a specific hop."""


class MessageKind(str, Enum):
    SBAR_ESTIMATE = "sbar_estimate"
    RESIDUAL_GRAMIAN = "residual_gramian"
    CHANNEL_GRAMIAN = "channel_gramian"
    COMBINED_UPLINK = "combined_uplink"
    DETECTOR_STATE = "detector_state"
    PARTIAL_PRECODED = "partial_precoded"
    BROADCAST = "broadcast"


@dataclass(frozen=True)
class FronthaulMessage:
    kind: MessageKind
    payload: object
    real_symbols: int


def sbar_message(S: np.ndarray) -> FronthaulMessage:
    """Projected-signal estimate: general complex matrix, 2 reals per entry."""
    return FronthaulMessage(MessageKind.SBAR_ESTIMATE, S, 2 * S.size)


def residual_gramian_message(M: np.ndarray) -> FronthaulMessage:
    return _hermitian_message(MessageKind.RESIDUAL_GRAMIAN, M)


def channel_gramian_message(M: np.ndarray) -> FronthaulMessage:
    return _hermitian_message(MessageKind.CHANNEL_GRAMIAN, M)


def _hermitian_message(kind: MessageKind, M: np.ndarray) -> FronthaulMessage:
    n, m = M.shape
    if n != m:
        raise ValueError("Hermitian payload must be square")
    return FronthaulMessage(kind, M, n * n)


def combined_uplink_message(ybar: np.ndarray) -> FronthaulMessage:
    """Combined received vector; counted per symbol period (rows, not batch)."""
    return FronthaulMessage(MessageKind.COMBINED_UPLINK, ybar, 2 * ybar.shape[0])


def detector_state_message(xhat: np.ndarray, C: np.ndarray) -> FronthaulMessage:
    """Estimate plus error covariance; per symbol period: 2m + m^2 reals."""
    m = C.shape[0]
    return FronthaulMessage(MessageKind.DETECTOR_STATE, (xhat, C), 2 * m + m * m)


def partial_precoded_message(q: np.ndarray) -> FronthaulMessage:
    return FronthaulMessage(MessageKind.PARTIAL_PRECODED, q, 2 * q.shape[0])


def broadcast_message(inner: FronthaulMessage) -> FronthaulMessage:
    """Wrap a payload for the CPU -> APs direction; size is unchanged."""
    return FronthaulMessage(MessageKind.BROADCAST, inner.payload, inner.real_symbols)


@dataclass(frozen=True)
class LinkRecord:
    phase: str
    sender: int  # 1-based AP id, or CPU (0)
    receiver: int
    kind: str
    real_symbols: int


@dataclass
class LoadReport:
    """Accumulated link records with per-link / per-phase aggregation."""

    records: list[LinkRecord] = field(default_factory=list)

    def extend(self, records):
        self.records.extend(records)

    def phases(self) -> list[str]:
        seen = []
        for r in self.records:
            if r.phase not in seen:
                seen.append(r.phase)
        return seen

    def link_totals(self, phase: str | None = None) -> dict[tuple[int, int], int]:
        totals: dict[tuple[int, int], int] = {}
        for r in self.records:
            if phase is not None and r.phase != phase:
                continue
            key = (r.sender, r.receiver)
            totals[key] = totals.get(key, 0) + r.real_symbols
        return totals

    def per_link_symbols(self, phase: str) -> int:
        """Common per-link total for a phase; raises if links disagree."""
        totals = self.link_totals(phase)
        if not totals:
            return 0
        values = set(totals.values())
        if len(values) > 1:
            raise ValueError(f"per-link load is not uniform for phase {phase!r}: {totals}")
        return values.pop()

    def total(self, phase: str | None = None) -> int:
        return sum(
            r.real_symbols for r in self.records if phase is None or r.phase == phase
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "records": [
                    {
                        "phase": r.phase,
                        "sender": r.sender,
                        "receiver": r.receiver,
                        "kind": r.kind,
                        "real_symbols": r.real_symbols,
                    }
                    for r in self.records
                ],
                "per_phase_totals": {p: self.total(p) for p in self.phases()},
            },
            indent=2,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["phase", "sender", "receiver", "kind", "real_symbols"])
        for r in self.records:
            writer.writerow([r.phase, r.sender, r.receiver, r.kind, r.real_symbols])
        return buf.getvalue()


def chain_pass(order, fold, init=None, phase: str = "chain", log: LoadReport | None = None):
    """Fold along the chain; the last AP in `order` delivers to the CPU.

    `fold(ap, msg)` receives the incoming message (None at the first AP
    when init is None) and returns the FronthaulMessage forwarded on the
    outgoing link. Every inter-node message is recorded. Returns
    (final message, list of LinkRecords). A NumericalFailure raised by a
    fold propagates with its class and the hop added to its message; any
    other exception becomes a ChainError naming the hop.
    """
    order = tuple(order)
    if len(set(order)) != len(order) or not order:
        raise ValueError("order must be a nonempty sequence of distinct AP ids")
    msg = init
    records = []
    for i, ap in enumerate(order):
        hop = f"AP {ap} (hop {i + 1}/{len(order)})"
        try:
            msg = fold(ap, msg)
        except ChainError:
            raise
        except NumericalFailure as exc:
            # keep the class, so callers still count the block as a failure
            raise type(exc)(f"{exc} (fold at {hop})") from exc
        except Exception as exc:
            raise ChainError(f"fold failed at {hop}") from exc
        if not isinstance(msg, FronthaulMessage):
            raise ChainError(f"fold at AP {ap} returned {type(msg).__name__}, not a message")
        receiver = order[i + 1] if i + 1 < len(order) else CPU
        records.append(LinkRecord(phase, ap, receiver, msg.kind.value, msg.real_symbols))
    if log is not None:
        log.extend(records)
    return msg, records


def broadcast_pass(order, message: FronthaulMessage, phase: str, log: LoadReport | None = None):
    """CPU sends `message` back along the chain; every link carries it once."""
    records = []
    sender = CPU
    for ap in reversed(tuple(order)):
        records.append(LinkRecord(phase, sender, ap, message.kind.value, message.real_symbols))
        sender = ap
    if log is not None:
        log.extend(records)
    return records


@dataclass
class Chain:
    """AP visit order plus the accumulated load log for one processing run."""

    order: tuple[int, ...]
    log: LoadReport = field(default_factory=LoadReport)

    @classmethod
    def for_config(cls, cfg) -> "Chain":
        return cls(order=tuple(cfg.ap_order))

    def run(self, phase: str, fold, init=None) -> FronthaulMessage:
        msg, _ = chain_pass(self.order, fold, init, phase, self.log)
        return msg

    def broadcast(self, phase: str, message: FronthaulMessage):
        return broadcast_pass(self.order, message, phase, self.log)


def analytic_per_link(method: str, cfg, detector: str = "distributed_zf") -> dict[str, int]:
    """Per-link real-symbol loads by phase, from the closed-form counts.

    Pilot-phase entries are per coherence block; payload-phase entries
    (uplink_combine, uplink_seq_ls, downlink_q_broadcast) are per symbol
    period. Methods without chain traffic contribute no phases.
    """
    r = cfg.tau_p - cfg.K
    uses_oos = method in ("seq_procrustes", "seq_gramian", "local_processing", "centralized_genie")
    m = cfg.K + (cfg.K_I if uses_oos else 0)
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
        phases["uplink_seq_ls"] = 2 * m + m * m
    return phases


def load_report(method: str, cfg, detector: str = "distributed_zf") -> LoadReport:
    """Measured per-link loads for a method, cross-checked against the
    closed-form counts (exact equality enforced).

    Runs the actual chain passes on one synthetic block and returns the
    measured report. Raises ChainError if measurement and formula differ.
    """
    from . import oos_estimation, pilot_phase, scenario, uplink

    known = ("no_suppression", "local_processing", "seq_procrustes", "seq_gramian", "centralized_genie")
    if method not in known:
        raise ValueError(f"unknown method {method!r}; expected one of {known}")
    if detector not in ("sequential_ls", "distributed_zf", "centralized_zf"):
        raise ValueError(f"unknown detector {detector!r}")

    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xF00D)))
    geo = _unit_gain_geometry(cfg)
    block = scenario.draw_block(cfg, geo, rng)
    pilots = scenario.build_pilot_book(cfg)
    obs = pilot_phase.simulate_pilot_rx(block, pilots, cfg)
    est = pilot_phase.ls_channel_estimate(obs, pilots, cfg)
    zpsi = pilot_phase.compute_projected_residual(obs, pilots)

    chain = Chain.for_config(cfg)
    if cfg.K_I > 0 and method == "seq_procrustes":
        sbar = oos_estimation.run_sequential_procrustes(zpsi, cfg, chain)
    elif cfg.K_I > 0 and method == "seq_gramian":
        sbar = oos_estimation.run_gramian_method(zpsi, cfg, chain)
    else:
        sbar = None

    if method == "no_suppression":
        aug = est
    elif method == "centralized_genie":
        aug = np.concatenate([block.H, block.G], axis=2)
    elif method == "local_processing":
        locals_ = [oos_estimation.local_svd_estimate(zpsi[i], cfg.K_I)[1] for i in range(cfg.L)]
        aug = np.concatenate([est, np.stack(locals_)], axis=2) if cfg.K_I else est
    else:
        ghat = (
            oos_estimation.estimate_oos_channels(zpsi, sbar)
            if sbar is not None and sbar.shape[1]
            else np.zeros((cfg.L, cfg.N, 0), dtype=complex)
        )
        aug = np.concatenate([est, ghat], axis=2)

    if detector == "distributed_zf":
        gamma = uplink.accumulate_channel_gramian(aug, chain)
        batch = uplink.simulate_uplink_rx(block, cfg, rng, n_symbols=1)
        uplink.detect_distributed_zf(batch, aug, gamma, chain)
    elif detector == "sequential_ls":
        batch = uplink.simulate_uplink_rx(block, cfg, rng, n_symbols=1)
        uplink.detect_sequential_ls(batch, aug, cfg, chain)

    expected = analytic_per_link(method, cfg, detector)
    measured = {p: chain.log.per_link_symbols(p) for p in chain.log.phases()}
    if measured != expected:
        raise ChainError(
            f"measured per-link loads {measured} differ from formula {expected} "
            f"for method={method}, detector={detector}"
        )
    return chain.log


def _unit_gain_geometry(cfg):
    """Synthetic geometry with unit gains, used only for load measurement."""
    from .scenario import Geometry

    return Geometry(
        ap_positions=np.zeros((cfg.L, 3)),
        ue_positions=np.zeros((cfg.K, 3)),
        oos_positions=np.zeros((cfg.K_I, 3)),
        beta_ue=np.ones((cfg.L, cfg.K)),
        beta_oos=np.ones((cfg.L, cfg.K_I)),
    )
