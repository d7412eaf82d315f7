"""Simulated daisy-chain transport with exact real-symbol accounting.

The chain is an in-process fold over the AP visit order with
instrumentation, not a network stack: the claims being checked are about
symbol counts, not timing. One real symbol is one real scalar; a complex
scalar costs 2; a Hermitian n x n matrix costs n^2 (real diagonal plus
the complex upper triangle).

Payload-phase messages (combined uplink vectors, detector states) are
recorded per symbol period; pilot-phase messages are per coherence
block. A payload may stack several blocks along leading axes; its size is
read from the trailing axes, so a message is still counted per block.

This module is transport and message sizes only; it knows no method or
detector. The load ledger (load_report, analytic_per_link) lives in
experiments, beside the method dispatch it runs, and is re-exported here.
"""

from __future__ import annotations

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
    BROADCAST = "broadcast"


@dataclass(frozen=True)
class FronthaulMessage:
    kind: MessageKind
    payload: object
    real_symbols: int


def sbar_message(S: np.ndarray) -> FronthaulMessage:
    """Projected-signal estimate: general complex matrix, 2 reals per entry."""
    rows, cols = S.shape[-2:]
    return FronthaulMessage(MessageKind.SBAR_ESTIMATE, S, 2 * rows * cols)


def residual_gramian_message(M: np.ndarray) -> FronthaulMessage:
    return _hermitian_message(MessageKind.RESIDUAL_GRAMIAN, M)


def channel_gramian_message(M: np.ndarray) -> FronthaulMessage:
    return _hermitian_message(MessageKind.CHANNEL_GRAMIAN, M)


def _hermitian_message(kind: MessageKind, M: np.ndarray) -> FronthaulMessage:
    n, m = M.shape[-2:]
    if n != m:
        raise ValueError("Hermitian payload must be square")
    return FronthaulMessage(kind, M, n * n)


def combined_uplink_message(ybar: np.ndarray) -> FronthaulMessage:
    """Combined received vector; counted per symbol period (rows, not batch)."""
    return FronthaulMessage(MessageKind.COMBINED_UPLINK, ybar, 2 * ybar.shape[-2])


def detector_state_message(xhat: np.ndarray, C: np.ndarray) -> FronthaulMessage:
    """Estimate plus error covariance; per symbol period: 2m + m^2 reals."""
    m = C.shape[-1]
    return FronthaulMessage(MessageKind.DETECTOR_STATE, (xhat, C), 2 * m + m * m)


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

    def phases(self) -> list[str]:
        return list(dict.fromkeys(r.phase for r in self.records))

    def link_totals(self, phase: str) -> dict[tuple[int, int], int]:
        totals: dict[tuple[int, int], int] = {}
        for r in self.records:
            if r.phase == phase:
                link = (r.sender, r.receiver)
                totals[link] = totals.get(link, 0) + r.real_symbols
        return totals

    def per_link_symbols(self, phase: str) -> int:
        """Common per-link total for a phase (0 if it is absent); raises if
        links disagree."""
        totals = self.link_totals(phase)
        values = set(totals.values()) or {0}
        if len(values) > 1:
            raise ValueError(f"per-link load is not uniform for phase {phase!r}: {totals}")
        return values.pop()


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
        log.records.extend(records)
    return msg, records


def broadcast_pass(order, message: FronthaulMessage, phase: str, log: LoadReport | None = None):
    """CPU sends `message` back along the chain; every link carries it once."""
    records = []
    sender = CPU
    for ap in reversed(tuple(order)):
        records.append(LinkRecord(phase, sender, ap, message.kind.value, message.real_symbols))
        sender = ap
    if log is not None:
        log.records.extend(records)
    return records


@dataclass
class Chain:
    """AP visit order plus the accumulated load log for one processing run;
    with log=None the passes are run but not logged."""

    order: tuple[int, ...]
    log: LoadReport | None = field(default_factory=LoadReport)

    @classmethod
    def for_config(cls, cfg) -> "Chain":
        return cls(order=tuple(cfg.ap_order))

    def run(self, phase: str, fold, init=None) -> FronthaulMessage:
        msg, _ = chain_pass(self.order, fold, init, phase, self.log)
        return msg

    def broadcast(self, phase: str, message: FronthaulMessage):
        return broadcast_pass(self.order, message, phase, self.log)


def __getattr__(name: str):
    # experiments imports this module, so the ledger is looked up on first use
    if name in ("load_report", "analytic_per_link"):
        from . import experiments

        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
