"""oossim benchmark: one workload, one seed, run as a closed batch job.

  python3 benchmark/run.py --workload paper_default --seed 1 --seconds 10 --trace 0

Every measurement runs in a fresh interpreter (sweep.py) with BLAS pinned
to one thread. With --trace 0 it reports the end-to-end metrics: sweep
throughput, set-up time (median of several fresh interpreters) and peak
memory. With --trace 1 it reports the per-layer metrics from a run whose
sweeps alternate with and without the layer wrappers. Both check the
sweep outputs against reference/ and end with one JSON line; the exit code
is nonzero when a check fails or the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in PINNED_THREADS})
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_sweep_py(args: list[str], deadline: float) -> str:
    """Run sweep.py in a fresh interpreter; return its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "sweep.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"sweep.py {args[0]} exited with code {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def setup_times(workload: str, seed: int, deadline: float) -> tuple[list[float], list[float]]:
    """Fresh-interpreter time to import oossim, build the spec and reach
    the first block, once per probe: as measured, and scaled to the
    reference machine speed that the probe measured right after."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        probe = json.loads(run_sweep_py(["setup", "--workload", workload, "--seed", str(seed)], deadline))
        raw.append(probe["reached"] - start)
        scaled.append(raw[-1] * probe["time_scale"])
    return raw, scaled


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} max={max(values):.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "oossim" / "__init__.py").is_file():
        print(f"run.py: no oossim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        raw_setup, setup = ([], []) if args.trace else setup_times(args.workload, args.seed, deadline)
        line = run_sweep_py(
            ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    result = json.loads(line)

    print(f"workload {args.workload} seed {args.seed}: {len(result['evals_per_s'])} "
          f"untraced sweeps of {result['trials']} blocks")
    if args.trace:
        values = result["layers"]
        listed = bench["per_layer"]
    else:
        values = {
            "evals_per_s": statistics.median(result["evals_per_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        listed = bench["end_to_end"]
        print(f"  evals_per_s per sweep: {spread(result['evals_per_s'])}")
        print(f"  as measured, before scaling to the reference speed: {spread(result['raw_evals_per_s'])}")
        print(f"  machine speed around each sweep: {spread(result['speed'])}")
        print(f"  setup_s per probe: {spread(setup)}")
        print(f"  as measured: {spread(raw_setup)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} evaluations; "
          f"aborted sweeps by exception: {result['errors'] or 'none'})")
    for method, phases in result["ledger"].items():
        print(f"ledger {method}: {json.dumps(phases)}")
    print(f"machine: {json.dumps(result['machine'])}")
    print(f"reference rows changed: {result['ber_rows_changed']}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not result["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
