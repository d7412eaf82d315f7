import csv
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_cfg
from oossim import experiments, oos_estimation
from oossim.cli import apply_overrides, main
from oossim.experiments import (
    CSV_COLUMNS,
    ExperimentSpec,
    default_spec,
    emit_report,
    load_table,
    overloaded_interferers_spec,
    rows_to_csv,
    run_monte_carlo,
)
from oossim.numerics import NumericalFailure
from oossim.scenario import SystemConfig


def tiny_spec(**cfg_over):
    cfg = make_cfg(trials=3, **cfg_over)
    return ExperimentSpec(
        cfg=cfg, snr_grid_db=(0.0,), payload_symbols_per_block=10
    )


def fail_first_procrustes_fold(monkeypatch):
    """Make the sweep's first rotate-and-average step (block 0) fail."""
    original = oos_estimation.rotate_and_average_step
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise NumericalFailure("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(oos_estimation, "rotate_and_average_step", flaky)


def count_calls(monkeypatch, module, name, calls: Counter):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


class TestSpec:
    def test_default_mirrors_reference_setup(self):
        spec = default_spec()
        cfg = spec.cfg
        assert (cfg.L, cfg.N, cfg.K, cfg.K_I) == (4, 4, 5, 2)
        assert (cfg.tau_p, cfg.tau_c) == (50, 200)
        assert cfg.oos_snr == pytest.approx(10 ** (-0.3))
        assert spec.snr_grid_db == (-10.0, -8.0, -6.0, -4.0, -2.0, 0.0)
        assert len(spec.methods) == 5
        assert spec.payload_symbols_per_block == 150

    def test_methods_validated(self):
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=make_cfg(), methods=())
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=make_cfg(), methods=("wizardry",))

    def test_payload_budget(self):
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=make_cfg(tau_p=10, tau_c=20), payload_symbols_per_block=11)

    def test_round_trips_through_dict(self):
        spec = tiny_spec()
        again = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec


class TestRunMonteCarlo:
    def test_row_grid_arithmetic(self):
        spec = replace(tiny_spec(), snr_grid_db=(-4.0, 0.0))
        out = run_monte_carlo(spec)
        assert len(out.rows) == len(spec.methods) * 2

    def test_genie_noise_vanishing_gives_zero_ber(self):
        # crank the uplink power so noise is negligible
        spec = ExperimentSpec(
            cfg=make_cfg(trials=2, noise_floor_dbw=-124.0),
            snr_grid_db=(60.0,),
            methods=("centralized_genie",),
            payload_symbols_per_block=10,
        )
        out = run_monte_carlo(spec)
        assert out.rows[0].ber == 0.0

    def test_methods_share_block_draws(self):
        # a method's BER must not depend on which other methods run
        spec_all = tiny_spec()
        spec_one = replace(spec_all, methods=("seq_gramian",))
        ber_all = {
            (r.method, r.snr_db): r.ber for r in run_monte_carlo(spec_all).rows
        }
        ber_one = run_monte_carlo(spec_one).rows[0]
        assert ber_all[("seq_gramian", 0.0)] == ber_one.ber

    def test_fronthaul_column(self):
        spec = tiny_spec(K=5, K_I=2, tau_p=50, tau_c=100, L=4, ap_order=(4, 3, 2, 1))
        out = run_monte_carlo(spec)
        loads = {r.method: r.fronthaul_per_link_real_symbols for r in out.rows}
        assert loads["seq_procrustes"] == 180
        assert loads["seq_gramian"] == 2025
        assert loads["no_suppression"] == 0
        assert loads["centralized_genie"] == 0

    def test_gramian_matches_centralized_pipeline_decisions(self):
        # the distributed Gramian pass and the stacked-SVD pipeline give the
        # same bit decisions on every block
        from oossim import oos_estimation, pilot_phase, uplink
        from oossim.fronthaul import Chain
        from oossim.scenario import (
            CHANNEL_STREAM,
            GEOMETRY_STREAM,
            PAYLOAD_STREAM,
            block_rng,
            build_geometry,
            build_pilot_book,
            draw_block,
        )

        cfg = make_cfg(trials=10)
        pilots = build_pilot_book(cfg)
        for b in range(cfg.trials):
            geo = build_geometry(cfg, block_rng(cfg.seed, b, GEOMETRY_STREAM))
            block = draw_block(cfg, geo, block_rng(cfg.seed, b, CHANNEL_STREAM))
            obs = pilot_phase.simulate_pilot_rx(block, pilots, cfg)
            est = pilot_phase.ls_channel_estimate(obs, pilots, cfg)
            zpsi = pilot_phase.compute_projected_residual(obs, pilots)
            batch = uplink.simulate_uplink_rx(
                block, cfg, block_rng(cfg.seed, b, PAYLOAD_STREAM), 10
            )
            sbar_g = oos_estimation.run_gramian_method(zpsi, cfg, Chain.for_config(cfg))
            sbar_c, _ = oos_estimation.centralized_oos_oracle(zpsi, cfg.K_I)
            errs = []
            for sbar in (sbar_g, sbar_c):
                ghat = oos_estimation.estimate_oos_channels(zpsi, sbar)
                aug = np.concatenate([est, ghat], axis=2)
                xhat = uplink.detect_centralized(batch, aug)
                errs.append(uplink.count_bit_errors(xhat[: cfg.K], batch.x))
            assert np.array_equal(errs[0], errs[1])

    def test_fold_failure_counted_once_per_snr_point(self, monkeypatch):
        fail_first_procrustes_fold(monkeypatch)
        spec = replace(tiny_spec(), snr_grid_db=(-4.0, 0.0))
        out = run_monte_carlo(spec)
        failures = out.diagnostics.failures
        assert [f[:3] for f in failures] == [
            ("seq_procrustes", -4.0, 0), ("seq_procrustes", 0.0, 0)
        ]
        assert all("injected" in f[3] and "AP" in f[3] for f in failures)
        assert out.diagnostics.numerical_failures == 2
        assert len(out.rows) == len(spec.methods) * 2
        per_block = 2 * spec.cfg.K * spec.payload_symbols_per_block
        for row in out.rows:
            survivors = spec.cfg.trials - (row.method == "seq_procrustes")
            assert row.bit_count == survivors * per_block

    def test_snr_invariant_work_runs_once_per_block(self, monkeypatch):
        calls = Counter()
        count_calls(monkeypatch, experiments, "build_geometry", calls)
        count_calls(monkeypatch, oos_estimation, "run_gramian_method", calls)
        spec = replace(tiny_spec(), snr_grid_db=(-4.0, 0.0))
        run_monte_carlo(spec)
        trials = spec.cfg.trials
        assert calls == {"build_geometry": trials, "run_gramian_method": trials}

    def test_rows_independent_of_the_rest_of_the_grid(self):
        def zero_db_csv(grid):
            rows = run_monte_carlo(replace(tiny_spec(), snr_grid_db=grid)).rows
            return rows_to_csv([r for r in rows if r.snr_db == 0.0])

        reference = zero_db_csv((0.0,))
        assert zero_db_csv((-4.0, 0.0)) == reference
        assert zero_db_csv((0.0, -4.0)) == reference

    def test_deterministic_csv(self):
        spec = tiny_spec()
        rows1 = run_monte_carlo(spec).rows
        rows2 = run_monte_carlo(spec).rows
        assert rows_to_csv(rows1) == rows_to_csv(rows2)

    def test_overloaded_interferers_degrade_procrustes(self):
        # with K_I > N the rotate-and-average method falls measurably
        # behind the Gramian accumulation
        spec = overloaded_interferers_spec(snr_grid_db=(0.0,))
        spec = replace(spec, cfg=replace(spec.cfg, trials=60))
        assert spec.cfg.K_I > spec.cfg.N
        rows = {r.method: r for r in run_monte_carlo(spec).rows}
        assert rows["seq_procrustes"].ci_low > rows["seq_gramian"].ci_high


class TestEmitReport:
    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tiny_spec(), tmp_path)

    def test_csv_round_trip(self, tmp_path):
        spec = tiny_spec()
        out = run_monte_carlo(spec)
        csv_path, json_path = emit_report(out.rows, spec, tmp_path, out.diagnostics)
        with open(csv_path) as fh:
            parsed = list(csv.DictReader(fh))
        assert tuple(parsed[0].keys()) == CSV_COLUMNS
        for row, parsed_row in zip(out.rows, parsed):
            assert parsed_row["method"] == row.method
            assert int(parsed_row["bit_count"]) == row.bit_count
            assert int(parsed_row["seed"]) == row.seed
            assert int(parsed_row["fronthaul_per_link_real_symbols"]) == (
                row.fronthaul_per_link_real_symbols
            )
            for name, value in (("ber", row.ber), ("ci_low", row.ci_low), ("ci_high", row.ci_high)):
                assert abs(float(parsed_row[name]) - value) < 1e-12
        data = json.loads(json_path.read_text())
        assert data["spec"]["cfg"]["K"] == spec.cfg.K
        assert len(data["rows"]) == len(out.rows)


class TestLoadTable:
    def test_covers_all_methods(self):
        cfg = SystemConfig()
        table = load_table(cfg)
        assert table["seq_procrustes"]["oos_forward"] == 180
        assert table["seq_gramian"]["oos_forward"] == 2025
        assert "oos_forward" not in table["no_suppression"]
        for phases in table.values():
            assert phases.get("channel_gramian") in (25, 49)


class TestCli:
    def test_run_writes_outputs(self, tmp_path, capsys):
        rc = main(
            [
                "run",
                "--out", str(tmp_path),
                "--trials", "2",
                "--seed", "5",
                "--override", "snr_grid_db=[0.0]",
                "--override", "payload_symbols_per_block=10",
                "--override", "cfg.tau_p=10",
                "--override", "cfg.tau_c=30",
                "--override", "cfg.K=3",
                "--override", "cfg.K_I=2",
                "--override", "cfg.L=3",
                "--override", "cfg.N=4",
                "--override", "cfg.ap_order=[3,2,1]",
                "--override", "cfg.noise_floor_dbw=0.0",
            ]
        )
        assert rc == 0
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "results.json").exists()
        assert "seq_gramian" in capsys.readouterr().out

    def test_config_file_and_override(self, tmp_path):
        spec = tiny_spec()
        cfg_path = tmp_path / "spec.json"
        cfg_path.write_text(json.dumps(spec.to_dict()))
        rc = main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
             "--override", "methods=[\"centralized_genie\"]"]
        )
        assert rc == 0
        data = json.loads((tmp_path / "o" / "results.json").read_text())
        assert data["spec"]["methods"] == ["centralized_genie"]

    def test_report_subcommand(self, capsys):
        rc = main(["report"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2025" in out and "180" in out

    def test_strict_fails_on_fold_failure(self, tmp_path, monkeypatch):
        fail_first_procrustes_fold(monkeypatch)
        cfg_path = tmp_path / "spec.json"
        cfg_path.write_text(json.dumps(tiny_spec().to_dict()))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--strict"])
        assert rc == 1
        data = json.loads((tmp_path / "o" / "results.json").read_text())
        assert data["diagnostics"]["numerical_failures"] == 1

    def test_apply_overrides_rejects_garbage(self):
        with pytest.raises(ValueError):
            apply_overrides(tiny_spec(), ["notanassignment"])

    def test_seed_propagates_to_rows(self, tmp_path):
        rc = main(
            ["run", "--out", str(tmp_path), "--trials", "2", "--seed", "123",
             "--override", "snr_grid_db=[0.0]",
             "--override", "methods=[\"no_suppression\"]"]
        )
        assert rc == 0
        data = json.loads((tmp_path / "results.json").read_text())
        assert all(r["seed"] == 123 for r in data["rows"])
