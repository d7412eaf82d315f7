"""The benchmark's own tests, at a tiny size. Run from the repository root:

  python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import sweep  # noqa: E402

import oossim  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
TRIALS = 2


def tiny(workload: str, seed: int = check.REFERENCE_SEED):
    return sweep.workload_spec(workload, seed, trials=TRIALS)


def tiny_reference(workload: str) -> str:
    return sweep.run_sweep(tiny(workload)).csv


def run_py(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(sweep.WORKLOADS)


def test_every_end_to_end_metric_is_printed_with_its_unit():
    proc = run_py(ROOT, "--workload", "long_chain_seq_ls", "--seed", "5", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in [*units.items(), ("failed_frac", "ratio")]:
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines), name


def test_without_the_package_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_py(tmp_path, "--workload", "paper_default", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_check_accepts_the_reference_and_a_held_out_seed():
    reference = tiny_reference("paper_default")
    same = check.compare(reference, reference, seed=0, trials=TRIALS, failed_blocks={})
    assert same.ok and same.rows_changed == 0
    held_out = sweep.run_sweep(tiny("paper_default", seed=9)).csv
    assert check.compare(held_out, reference, seed=9, trials=TRIALS, failed_blocks={}).ok


@pytest.mark.parametrize(
    "column, value",
    [("bit_count", "1"), ("fronthaul_per_link_real_symbols", "7"), ("ci_low", "0.99")],
)
def test_tampered_reference_fails_the_run(column, value):
    spec = tiny("paper_default")
    lines = tiny_reference("paper_default").splitlines(keepends=True)
    header = lines[0].strip().split(",")
    fields = lines[3].rstrip("\n").split(",")  # a chain method's row: nonzero load
    fields[header.index(column)] = value
    lines[3] = ",".join(fields) + "\n"
    result = sweep.measure(spec, "".join(lines), seconds=0, trace=False)
    assert result["problems"]


def test_a_sweep_that_raises_is_counted_not_dropped(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    spec = tiny("long_chain_seq_ls", seed=4)
    reference = tiny_reference("long_chain_seq_ls")
    monkeypatch.setattr(np.linalg, "solve", no_convergence)
    result = sweep.measure(spec, reference, seconds=0, trace=False)
    assert result["attempted"] == result["failed"] > 0
    assert result["errors"] == {"ChainError": 1}


@pytest.fixture(scope="module")
def traced_twice():
    runs = {}
    for workload in WORKLOADS:
        spec, reference = tiny(workload, seed=3), tiny_reference(workload)
        runs[workload] = [sweep.measure(spec, reference, seconds=0, trace=True) for _ in range(2)]
    return runs


def test_two_traced_runs_give_identical_counts(traced_twice):
    for first, second in traced_twice.values():
        assert not first["problems"] and not second["problems"]
        a, b = first["layers"], second["layers"]
        counts = [
            k for k in a
            if k.endswith(".calls")
            or k.startswith("fronthaul.per_link.")
            or k in ("fronthaul.link_messages", "oos_estimation.degenerate_rotations")
        ]
        assert counts and {k: a[k] for k in counts} == {k: b[k] for k in counts}


def test_every_per_layer_metric_comes_from_some_workload(traced_twice):
    produced = set().union(*(runs[0]["layers"] for runs in traced_twice.values()))
    assert {m["name"] for m in BENCH["per_layer"]} <= produced


def test_trace_sees_every_block_and_restores_the_package(traced_twice):
    layers = traced_twice["paper_default"][0]["layers"]
    assert layers["scenario.build_geometry.calls"] == 6 * TRIALS
    assert layers["numerics.hermitian_top_eigvectors.calls"] == 6 * TRIALS
    assert oossim.oos_estimation.economy_svd is oossim.numerics.economy_svd
    assert oossim.experiments.build_geometry is oossim.scenario.build_geometry
    assert not hasattr(oossim.numerics.economy_svd, "__wrapped__")
