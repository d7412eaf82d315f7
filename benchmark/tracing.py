"""Per-layer call counts and self times, taken from outside the package.

The tracer wraps the public functions of each oossim layer and rebinds
every module attribute that refers to the original, so a function that a
caller imported by name (``from .numerics import economy_svd`` inside
``oos_estimation``) is traced on that path too. Nothing under ``src/``
changes. A span's self time is its duration minus the time of the spans
it encloses; the ``fold`` callback that ``chain_pass`` receives is its own
child span ``fold.<phase>``, so ``fronthaul.chain_pass`` keeps only the
transport's own time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Public functions per layer, by the module that defines them.
LAYER_FUNCTIONS = {
    "experiments": ("run_monte_carlo",),
    "scenario": ("build_geometry", "draw_block"),
    "pilot_phase": (
        "simulate_pilot_rx",
        "ls_channel_estimate",
        "compute_projected_residual",
    ),
    "oos_estimation": (
        "local_svd_estimate",
        "run_sequential_procrustes",
        "run_gramian_method",
        "estimate_oos_channels",
    ),
    "fronthaul": ("chain_pass", "broadcast_pass"),
    "uplink": (
        "simulate_uplink_rx",
        "detect_centralized",
        "accumulate_channel_gramian",
        "detect_distributed_zf",
        "detect_sequential_ls",
        "count_bit_errors",
    ),
    "numerics": ("economy_svd", "hermitian_top_eigvectors", "pseudo_inverse"),
}


class Tracer:
    """Aggregated spans for one traced sweep: calls and self time per name,
    plus the number of link records the chain transport returned."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.link_messages = 0
        self._child_time = [0.0]  # one accumulator per open span; [0] is outside all spans

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = self._child_time.pop()
                self._child_time[-1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - children

        return traced

    # The two transport wrappers do their own bookkeeping outside the span,
    # so that the span's self time stays the transport's.
    def _wrap_chain_pass(self, fn):
        signature = inspect.signature(fn)
        traced = self.wrap("fronthaul.chain_pass", fn)

        @functools.wraps(fn)
        def chain_pass(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            phase = bound.arguments["phase"]
            bound.arguments["fold"] = self.wrap(f"fold.{phase}", bound.arguments["fold"])
            msg, records = traced(*bound.args, **bound.kwargs)
            self.link_messages += len(records)
            return msg, records

        return chain_pass

    def _wrap_broadcast_pass(self, fn):
        traced = self.wrap("fronthaul.broadcast_pass", fn)

        @functools.wraps(fn)
        def broadcast_pass(*args, **kwargs):
            records = traced(*args, **kwargs)
            self.link_messages += len(records)
            return records

        return broadcast_pass

    def traced_version(self, module: str, name: str, fn):
        if (module, name) == ("fronthaul", "chain_pass"):
            return self._wrap_chain_pass(fn)
        if (module, name) == ("fronthaul", "broadcast_pass"):
            return self._wrap_broadcast_pass(fn)
        return self.wrap(f"{module}.{name}", fn)


@contextmanager
def installed(tracer: Tracer):
    """Route every oossim call path to the tracer's wrappers; restore on exit.

    A function missing from its module (renamed or removed) is reported on
    stderr and left untraced; its metrics then read 0.
    """
    for module in LAYER_FUNCTIONS:
        importlib.import_module(f"oossim.{module}")
    loaded = [m for n, m in sys.modules.items() if n == "oossim" or n.startswith("oossim.")]
    replacements = {}
    for module, names in LAYER_FUNCTIONS.items():
        defining = sys.modules[f"oossim.{module}"]
        for name in names:
            original = getattr(defining, name, None)
            if original is None:
                print(f"trace: oossim.{module}.{name} not found; left untraced", file=sys.stderr)
                continue
            replacements[id(original)] = tracer.traced_version(module, name, original)
    rebound = []
    for mod in loaded:
        for attr, value in list(vars(mod).items()):
            traced = replacements.get(id(value))
            if traced is not None:
                rebound.append((mod, attr, value))
                setattr(mod, attr, traced)
    try:
        yield tracer
    finally:
        for mod, attr, value in rebound:
            setattr(mod, attr, value)
