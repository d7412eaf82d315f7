"""Simulated daisy-chain transport with exact real-symbol accounting.

The chain is an in-process fold over the AP visit order with
instrumentation, not a network stack: the claims being checked are about
symbol counts, not timing. One real symbol is one real scalar; a complex
scalar costs 2; a Hermitian n x n matrix costs n^2 (real diagonal plus
the complex upper triangle).

A hop forwards a plain payload (an array, or a tuple of arrays), and each
pass sizes every payload it carries with one size rule (matrix_symbols,
hermitian_symbols, vector_symbols). Payload-phase loads (combined uplink
vectors, sequential estimates) are per symbol period; the other loads
(pilot phase, channel Gramians, error covariances) are per coherence
block. A payload may stack several
blocks along leading axes; each rule reads the trailing axes, so a load
is still counted per block.

This module is transport and size rules only; it knows no method or
detector. The load ledger (load_report, analytic_per_link) lives in
experiments, beside the method dispatch it runs, and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .numerics import NumericalFailure

CPU = 0  # node id of the central processor in link records


class ChainError(RuntimeError):
    """A fold step failed at a specific hop."""


def matrix_symbols(M) -> int:
    """General complex matrix: 2 reals per entry."""
    rows, cols = M.shape[-2:]
    return 2 * rows * cols


def hermitian_symbols(M) -> int:
    """Hermitian n x n matrix: n^2 reals."""
    n, m = M.shape[-2:]
    if n != m:
        raise ValueError("Hermitian payload must be square")
    return n * n


def vector_symbols(v) -> int:
    """Combined received vectors (rows, T): counted per symbol period, so
    2 reals per row whatever T is."""
    return 2 * v.shape[-2]


@dataclass(frozen=True)
class LinkRecord:
    phase: str
    sender: int  # 1-based AP id, or CPU (0)
    receiver: int
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


def chain_pass(order, fold, size, init=None, phase: str = "chain", log: LoadReport | None = None):
    """Fold along the chain; the last AP in `order` delivers to the CPU.

    `fold(ap, payload)` receives the incoming payload (`init` at the first
    AP) and returns the payload forwarded on the outgoing link, which
    `size(payload)` counts in real symbols. Every inter-node link is
    recorded. Returns (final payload, list of LinkRecords). A
    NumericalFailure raised by a fold propagates with its class and the
    hop added to its message; any other exception, from the fold or from
    sizing its payload, becomes a ChainError naming the hop.
    """
    order = tuple(order)
    if len(set(order)) != len(order) or not order:
        raise ValueError("order must be a nonempty sequence of distinct AP ids")
    payload = init
    records = []
    for i, ap in enumerate(order):
        hop = f"AP {ap} (hop {i + 1}/{len(order)})"
        try:
            payload = fold(ap, payload)
            real_symbols = size(payload)
        except ChainError:
            raise
        except NumericalFailure as exc:
            # keep the class, so callers still count the block as a failure
            raise type(exc)(f"{exc} (fold at {hop})") from exc
        except Exception as exc:
            raise ChainError(f"fold failed at {hop}") from exc
        receiver = order[i + 1] if i + 1 < len(order) else CPU
        records.append(LinkRecord(phase, ap, receiver, real_symbols))
    if log is not None:
        log.records.extend(records)
    return payload, records


def broadcast_pass(order, real_symbols: int, phase: str, log: LoadReport | None = None):
    """CPU sends a payload of `real_symbols` back along the chain; every
    link carries it once."""
    records = []
    sender = CPU
    for ap in reversed(tuple(order)):
        records.append(LinkRecord(phase, sender, ap, real_symbols))
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

    def run(self, phase: str, fold, size, init=None):
        payload, _ = chain_pass(self.order, fold, size, init, phase, self.log)
        return payload

    def broadcast(self, phase: str, real_symbols: int):
        return broadcast_pass(self.order, real_symbols, phase, self.log)


def __getattr__(name: str):
    # experiments imports this module, so the ledger is looked up on first use
    if name in ("load_report", "analytic_per_link"):
        from . import experiments

        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
