"""The benchmark's worker: runs one workload's sweeps in a fresh interpreter.

run.py starts this file with BLAS pinned to one thread; main() refuses to
run otherwise. Subcommands:

  setup     --workload W --seed S
      import oossim, build the spec and stop when the sweep reaches its
      first block; prints that moment as time.monotonic() and the
      machine_speed() measured right after, as one JSON line.
  measure   --workload W --seed S --seconds N --trace 0|1
      check the reference-seed sweep against the stored reference, record
      the fronthaul ledger, then run sweeps on seed S for N seconds (with
      --trace 1, untraced and traced sweeps alternate); prints one JSON line.
  reference --workload W
      print the reference-seed results.csv, the file kept in reference/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import check
import tracing
from run import PINNED_THREADS

import oossim
import numpy as np
from oossim import experiments, fronthaul
from oossim.experiments import default_spec, overloaded_interferers_spec
from oossim.scenario import SystemConfig

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Blocks per sweep. Throughput is reported per evaluation, so these only set
# how many sweeps fit in a run: short sweeps (about 0.3 s on one core) keep
# the machine_speed() samples on either side of each sweep close to it.
WORKLOADS = {
    "paper_default": (default_spec, 10),
    "long_chain_seq_ls": (
        lambda: default_spec(
            cfg=SystemConfig(L=16),
            snr_grid_db=(0.0,),
            methods=("no_suppression", "seq_procrustes", "seq_gramian"),
            detector="sequential_ls",
        ),
        30,
    ),
    "overloaded_dzf": (lambda: overloaded_interferers_spec(detector="distributed_zf"), 15),
}

# Host speed on the machine this benchmark was written on drifts by up to
# 1.7x over tens of seconds, CPU time as much as wall time. A fixed numpy
# kernel timed next to every sweep and set-up probe tracks that drift;
# throughput and set-up time are reported as if the kernel ran at this rate.
REFERENCE_SPEED = 400.0  # calibration kernels per second


def machine_speed(repeats: int = 16) -> float:
    """Calibration kernels per second. One kernel is 64 small complex SVDs,
    products and pivots and one 45 x 45 Hermitian eigensolve, like the
    sweep's own work; it does not use oossim."""
    parts = np.random.default_rng(0).standard_normal((2, 64, 4, 45))
    matrices = parts[0] + 1j * parts[1]
    gramian = matrices[0].conj().T @ matrices[0] + np.eye(45)
    start = time.perf_counter()
    for _ in range(repeats):
        for m in matrices:
            u, s, vh = np.linalg.svd(m, full_matrices=False)
            (u * s) @ vh
            np.abs(u).argmax(axis=0)
        np.linalg.eigh(gramian)
    return repeats / (time.perf_counter() - start)


def workload_spec(name: str, seed: int, trials: int | None = None) -> experiments.ExperimentSpec:
    build, default_trials = WORKLOADS[name]
    spec = build()
    return replace(spec, cfg=replace(spec.cfg, seed=seed, trials=trials or default_trials))


def with_seed(spec, seed: int):
    return replace(spec, cfg=replace(spec.cfg, seed=seed))


@dataclass
class Sweep:
    """One run_monte_carlo call: wall time, evaluations, and its outputs."""

    wall_s: float
    attempted: int
    failed: int
    csv: str = ""
    failed_blocks: dict = field(default_factory=dict)
    degenerate_rotations: int = 0
    error: str | None = None
    speed: float = REFERENCE_SPEED  # machine_speed() around this sweep

    @property
    def raw_evals_per_s(self) -> float:
        """Completed evaluations per second of wall time, as measured."""
        return (self.attempted - self.failed) / self.wall_s

    @property
    def evals_per_s(self) -> float:
        """Completed evaluations per second, scaled to REFERENCE_SPEED."""
        return self.raw_evals_per_s * REFERENCE_SPEED / self.speed


def run_sweep(spec, tracer: tracing.Tracer | None = None) -> Sweep:
    """Time one sweep. A sweep that raises is kept: all of its
    evaluations count as failed and the exception class is recorded."""
    attempted = len(spec.methods) * len(spec.snr_grid_db) * spec.cfg.trials
    with tracing.installed(tracer) if tracer else nullcontext():
        start = time.perf_counter()
        try:
            outcome = experiments.run_monte_carlo(spec)
        except Exception as exc:  # the benchmark must outlive a failing sweep
            wall = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            return Sweep(wall, attempted, attempted, error=type(exc).__name__)
        wall = time.perf_counter() - start
    diagnostics = outcome.diagnostics
    failed_blocks = Counter(
        (method, float(snr)) for method, snr, block, _ in diagnostics.failures if block >= 0
    )
    return Sweep(
        wall,
        attempted,
        diagnostics.numerical_failures,
        csv=experiments.rows_to_csv(outcome.rows) if outcome.rows else "",
        failed_blocks=dict(failed_blocks),
        degenerate_rotations=diagnostics.degenerate_rotations,
    )


def fronthaul_ledger(spec) -> dict[str, dict[str, int]]:
    """Per-link real symbols by phase for each method under the workload's
    detector; load_report checks each against analytic_per_link."""
    ledger = {}
    for method in spec.methods:
        report = fronthaul.load_report(method, spec.cfg, spec.detector)
        ledger[method] = {p: report.per_link_symbols(p) for p in report.phases()}
    return ledger


def layer_metrics(traced: list[tuple[Sweep, tracing.Tracer]], ledger) -> dict[str, float]:
    """Per-sweep layer numbers: counts from the first traced sweep, self
    times as the median over traced sweeps, scaled like evals_per_s."""
    first_sweep, first = traced[0]
    metrics: dict[str, float] = {}
    for name in sorted(set().union(*(t.calls for _, t in traced))):
        metrics[f"{name}.calls"] = first.calls.get(name, 0)
        metrics[f"{name}.self_s"] = statistics.median(
            t.self_s.get(name, 0.0) * s.speed / REFERENCE_SPEED for s, t in traced
        )
    metrics["fronthaul.link_messages"] = first.link_messages
    metrics["oos_estimation.degenerate_rotations"] = first_sweep.degenerate_rotations
    metrics["numerics.failures"] = first_sweep.failed
    for method, phases in ledger.items():
        for phase, symbols in phases.items():
            metrics[f"fronthaul.per_link.{method}.{phase}"] = symbols
    return metrics


def _check_sweeps(sweeps: list[Sweep], reference: str, seed: int, trials: int) -> list[str]:
    """Structural check of the first completed sweep; every later sweep on
    the same seed must give the same bytes."""
    completed = [s for s in sweeps if s.error is None]
    if not completed:
        return [f"no sweep on seed {seed} completed, so none could be checked"]
    problems = check.compare(
        completed[0].csv, reference, seed=seed, trials=trials,
        failed_blocks=completed[0].failed_blocks,
    ).problems
    if any(s.csv != completed[0].csv for s in completed[1:]):
        problems.append(f"results.csv differs between sweeps on seed {seed}")
    return problems


def measure(spec, reference: str, seconds: float, trace: bool) -> dict:
    """Check correctness, then time sweeps of `spec` for `seconds` seconds."""
    seed, trials = spec.cfg.seed, spec.cfg.trials
    problems: list[str] = []

    ref_sweep = run_sweep(with_seed(spec, check.REFERENCE_SEED))
    rows_changed = 0
    if ref_sweep.error:
        problems.append(f"reference seed: the sweep raised {ref_sweep.error}")
    else:
        ref_check = check.compare(
            ref_sweep.csv, reference, seed=check.REFERENCE_SEED, trials=trials,
            failed_blocks=ref_sweep.failed_blocks,
        )
        problems += [f"reference seed: {p}" for p in ref_check.problems]
        rows_changed = ref_check.rows_changed
    try:
        ledger = fronthaul_ledger(spec)
    except (fronthaul.ChainError, ValueError) as exc:
        problems.append(f"fronthaul ledger: {type(exc).__name__}: {exc}")
        ledger = {}

    untraced: list[Sweep] = []
    traced: list[tuple[Sweep, tracing.Tracer]] = []
    speed = machine_speed()

    def timed(tracer=None) -> Sweep:
        nonlocal speed
        sweep = run_sweep(spec, tracer)
        after = machine_speed()
        sweep.speed, speed = 0.5 * (speed + after), after
        return sweep

    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(timed())
        if trace:
            tracer = tracing.Tracer()
            traced.append((timed(tracer), tracer))
        if time.perf_counter() >= deadline:
            break

    sweeps = untraced + [s for s, _ in traced]
    problems += _check_sweeps(sweeps, reference, seed, trials)
    evals_per_s = [s.evals_per_s for s in untraced]
    result = {
        "seed": seed,
        "trials": trials,
        "evals_per_s": evals_per_s,
        "raw_evals_per_s": [s.raw_evals_per_s for s in untraced],
        "speed": [s.speed for s in untraced],
        "attempted": sum(s.attempted for s in sweeps),
        "failed": sum(s.failed for s in sweeps),
        "errors": dict(Counter(s.error for s in sweeps if s.error)),
        "problems": problems,
        "ber_rows_changed": rows_changed,
        "ledger": ledger,
    }
    if trace:
        layers = layer_metrics(traced, ledger)
        layers["experiments.ber_rows_changed"] = rows_changed
        traced_rate = statistics.median(s.evals_per_s for s, _ in traced)
        untraced_rate = statistics.median(evals_per_s)
        layers["experiments.trace_overhead_frac"] = (
            1.0 - traced_rate / untraced_rate if untraced_rate else 0.0
        )
        result["layers"] = layers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (own + children) / 1024.0  # ru_maxrss is in KiB on Linux
    return result


class _FirstBlock(Exception):
    pass


def reach_first_block(spec) -> float:
    """Start the sweep and stop it as the first block's geometry is drawn."""
    original = experiments.build_geometry

    def first_block(*args, **kwargs):
        raise _FirstBlock(time.monotonic())

    experiments.build_geometry = first_block
    try:
        experiments.run_monte_carlo(spec)
    except _FirstBlock as reached:
        return reached.args[0]
    finally:
        experiments.build_geometry = original
    raise RuntimeError("the sweep finished without drawing a block geometry")


def machine_record() -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in PINNED_THREADS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("setup", "measure", "reference"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=check.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    unpinned = [v for v in PINNED_THREADS if os.environ.get(v) != "1"]
    if unpinned:
        print(f"sweep.py: {', '.join(unpinned)} must be 1; start it through run.py", file=sys.stderr)
        return 2
    src = HERE.parent / "src"
    if not Path(oossim.__file__).resolve().is_relative_to(src.resolve()):
        print(f"sweep.py: oossim was imported from {oossim.__file__}, not {src}", file=sys.stderr)
        return 2

    spec = workload_spec(args.workload, args.seed)
    if args.command == "setup":
        reached = reach_first_block(spec)
        print(json.dumps({"reached": reached, "time_scale": machine_speed() / REFERENCE_SPEED}))
    elif args.command == "reference":
        sys.stdout.write(run_sweep(with_seed(spec, check.REFERENCE_SEED)).csv)
    else:
        reference = (REFERENCE_DIR / f"{args.workload}.csv").read_text()
        result = measure(spec, reference, args.seconds, bool(args.trace))
        result["machine"] = machine_record()
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
