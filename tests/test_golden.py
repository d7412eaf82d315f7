"""Pinned hashes of the sweep's outputs on a fixed set of specs.

A refactor moves none of them. A change that moves one on purpose (a
decision that flips at the rounding level, say) names the spec and why
in CHANGES.md. The hashes catch changed decisions, not rounding: a
rounding-level change that flips no bit decision leaves results.csv as
it was.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from oossim.experiments import (
    DETECTORS,
    default_spec,
    load_table,
    overloaded_interferers_spec,
    rows_to_csv,
    run_monte_carlo,
)
from oossim.scenario import SystemConfig


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def spec_of(build, trials, seed=0, **cfg_over):
    spec = build()
    # an empty AP order is the default one of the (possibly overridden) L
    cfg = replace(spec.cfg, trials=trials, seed=seed, ap_order=(), **cfg_over)
    return replace(spec, cfg=cfg)


def dzf(**kw):
    return lambda: default_spec(detector="distributed_zf", **kw)


# name -> (spec, sha256 of results.csv or None without rows, sha256 of the diagnostics)
SWEEPS = {
    "default_150": (
        spec_of(default_spec, 150),
        "109d63529071f36040e622caf12ce812b172d1fcf34d8ac20374f817bddf3147",
        "7c32b5dfc3982a202c16cb22158f420efab25db0d32d9dee09a4b6f2c3f02e20",
    ),
    "overloaded_dzf_40": (
        spec_of(lambda: overloaded_interferers_spec(detector="distributed_zf"), 40),
        "6c54c9509064cb39da1272123c80d114e1b1741c687f8415811cdd461b7f0d3d",
        "7c32b5dfc3982a202c16cb22158f420efab25db0d32d9dee09a4b6f2c3f02e20",
    ),
    "overloaded_czf_40": (
        spec_of(overloaded_interferers_spec, 40),
        "6c54c9509064cb39da1272123c80d114e1b1741c687f8415811cdd461b7f0d3d",
        "7c32b5dfc3982a202c16cb22158f420efab25db0d32d9dee09a4b6f2c3f02e20",
    ),
    "dzf_40_seed3": (
        spec_of(dzf(), 40, seed=3),
        "5fe76967ef3843fc113602cfd13c34c34a8d5fe31615246a2d680747a6873cc0",
        "7c32b5dfc3982a202c16cb22158f420efab25db0d32d9dee09a4b6f2c3f02e20",
    ),
    "L1_czf_12": (
        spec_of(default_spec, 12, L=1),
        "6ec43e3a0e95288f3951dffc4f9ee0d84cfc2fa1dc8a054ce5df85c59eedbce0",
        "7c32b5dfc3982a202c16cb22158f420efab25db0d32d9dee09a4b6f2c3f02e20",
    ),
    "L16_seq_ls_30": (
        spec_of(lambda: default_spec(detector="sequential_ls"), 30, L=16),
        "47071938105eded28172dd0138dd9ab83ce1ad0e0842e17ac244a70f2af247d0",
        "7c32b5dfc3982a202c16cb22158f420efab25db0d32d9dee09a4b6f2c3f02e20",
    ),
    "seq_ls_21_seed4": (
        spec_of(lambda: default_spec(detector="sequential_ls"), 21, seed=4),
        "19f7d5ffb3f6a3c2597fffdcaab8d029175c75f626fb820bea8a2a66c6b7588e",
        "7c32b5dfc3982a202c16cb22158f420efab25db0d32d9dee09a4b6f2c3f02e20",
    ),
    "K_I0_dzf_20": (
        spec_of(dzf(), 20, K_I=0),
        "4e19499887b1f7cb33ebb4e004570afa8a84b72d2184c8fccb51cebb10672884",
        "7c32b5dfc3982a202c16cb22158f420efab25db0d32d9dee09a4b6f2c3f02e20",
    ),
    # every (method, point) fails: L N = 4 < K + K_I, and no_suppression's
    # 4 x 5 Gramian is singular too; all failures go through the redraw path
    "L1_dzf_6": (
        spec_of(dzf(), 6, L=1),
        None,
        "3a38dfa589d4ac264f70b15325cc0d1d997e18f8e2ff380a52d599764b50fad3",
    ),
}

LOAD_TABLES = {
    "default": (SystemConfig(), "8352ebfd9651e4e8a66977a54db6498744f07c81083c402ce604cef3c678c7b6"),
    "K_I=5": (SystemConfig(K_I=5), "dd2c784d322b0aa10d7e50d9b24e986890db80407999557b6ff91442030c39d2"),
    "K_I=0": (SystemConfig(K_I=0), "f6cb06b0343f966070fc3acd22aa2826e27de992e5b4e4e190ce806a21476c6f"),
}


def diagnostics_text(d) -> str:
    return json.dumps([d.numerical_failures, d.degenerate_rotations, d.failures])


def load_tables_text(cfg) -> str:
    return json.dumps([load_table(cfg, detector) for detector in DETECTORS])


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_hashes(name):
    spec, csv_hash, diagnostics_hash = SWEEPS[name]
    out = run_monte_carlo(spec)
    assert (sha256(rows_to_csv(out.rows)) if out.rows else None) == csv_hash
    assert sha256(diagnostics_text(out.diagnostics)) == diagnostics_hash


@pytest.mark.parametrize("name", list(LOAD_TABLES))
def test_load_table_hashes(name):
    cfg, expected = LOAD_TABLES[name]
    assert sha256(load_tables_text(cfg)) == expected
