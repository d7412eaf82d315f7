"""Simulated daisy-chain transport with exact real-symbol accounting.

The chain is an in-process fold over the AP visit order with
instrumentation, not a network stack: the claims being checked are about
symbol counts, not timing. One real symbol is one real scalar, as the
size rules below count them. Payload-phase loads (combined uplink
vectors) are per symbol period; the other loads (pilot phase, channel
Gramians, information matrices) are per coherence block. A payload may
stack several blocks along leading axes; each size rule reads the
trailing axes, so a load is still counted per block.

Chain is the one transport, and this module the only one that maps an
AP id to an array index. It knows no method or detector: the load
ledger lives in experiments (load_report) and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .numerics import NumericalFailure, herm

CPU = 0  # node id of the central processor in link records


class ChainError(RuntimeError):
    """A fold step failed at a specific hop."""


def matrix_symbols(M) -> int:
    """General complex matrix: 2 reals per entry."""
    rows, cols = M.shape[-2:]
    return 2 * rows * cols


def hermitian_symbols(M) -> int:
    """Hermitian n x n matrix: n^2 reals (real diagonal, complex upper triangle)."""
    n, m = M.shape[-2:]
    if n != m:
        raise ValueError("Hermitian payload must be square")
    return n * n


def vector_symbols(v) -> int:
    """Combined received vectors (rows, T): counted per symbol period, so
    2 reals per row whatever T is."""
    return 2 * v.shape[-2]


def add_and_forward(acc, term):
    """Fold step of a chain sum: the first AP's term starts the sum (acc is
    None) and every later term is added in place: the sum 0 + t1 + t2 + ...
    in visit order, entry for entry, without a new array per hop. The
    first term must be a fresh array, since later hops write into it."""
    if acc is None:
        return term
    acc += term
    return acc


def add_gramian(acc, A):
    """add_and_forward of the Gramian A^H A of an AP's slot A. The slot
    is conjugated at its hop, an AP-sized temporary: conjugating a pass's
    whole per-AP array once, before the hops, measured slower in a sweep."""
    return add_and_forward(acc, herm(A) @ A)


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


@dataclass
class Chain:
    """AP visit order plus the load log of one processing run; with log=None
    the passes run with no accounting (no payload sized, no link recorded)."""

    order: tuple[int, ...]
    log: LoadReport | None = field(default_factory=LoadReport)

    def __post_init__(self):
        self.order = tuple(self.order)
        if not self.order or len(set(self.order)) != len(self.order):
            raise ValueError("order must be a nonempty sequence of distinct AP ids")

    @classmethod
    def for_config(cls, cfg) -> "Chain":
        return cls(cfg.ap_order)

    def run(self, phase: str, fold, size, init=None, *per_ap):
        """Fold along the chain and return what the last AP delivers to the CPU.

        At AP `ap`, `fold(payload, *views)` gets the incoming payload (`init`
        at the first AP) and the AP's slot x[..., ap - 1, :, :] of each array
        in `per_ap`, and returns the payload it forwards. A logging chain
        sizes that with `size` and records the pass's links once it succeeds.
        A NumericalFailure from a fold keeps its class and gains the hop; any
        other exception, from the fold or from sizing, becomes a ChainError
        naming the hop.
        """
        payload, sizes = init, []
        for i, ap in enumerate(self.order):
            try:
                payload = fold(payload, *(x[..., ap - 1, :, :] for x in per_ap))
                if self.log is not None:
                    sizes.append(size(payload))
            except Exception as exc:
                hop = f"AP {ap} (hop {i + 1}/{len(self.order)})"
                if isinstance(exc, NumericalFailure):
                    # keep the class, so callers still count the block as a failure
                    raise type(exc)(f"{exc} (fold at {hop})") from exc
                raise ChainError(f"fold failed at {hop}") from exc
        if self.log is not None:
            links = zip(self.order, self.order[1:] + (CPU,), sizes)
            self.log.records.extend(LinkRecord(phase, *link) for link in links)
        return payload

    def broadcast(self, phase: str, payload, size):
        """The CPU sends `payload` back along the chain; every link carries
        it once, counted by `size` as in run."""
        if self.log is not None:
            n, receivers = size(payload), self.order[::-1]
            links = zip((CPU, *receivers), receivers)
            self.log.records.extend(LinkRecord(phase, *link, n) for link in links)


def __getattr__(name: str):
    # experiments imports this module, so the ledger is looked up on first use
    if name in ("load_report", "analytic_per_link"):
        from . import experiments

        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
