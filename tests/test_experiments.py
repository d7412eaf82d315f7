import ast
import csv
import json
import math
import os
import re
import struct
import subprocess
import sys
import textwrap
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import crandn, make_cfg
import oossim
from oossim import cli, experiments, numerics, oos_estimation, scenario, uplink
from oossim.cli import main
from oossim.experiments import (
    CSV_COLUMNS,
    DETECTORS,
    GENIE,
    ExperimentSpec,
    MonteCarloOutcome,
    RunDiagnostics,
    default_spec,
    emit_report,
    load_report,
    load_table,
    overloaded_interferers_spec,
    rows_to_csv,
    run_monte_carlo,
)
from oossim.numerics import NumericalFailure, herm
from oossim.fronthaul import Chain, ChainError
from oossim.pilot_phase import (
    compute_projected_residual,
    ls_channel_estimate,
    pilot_interference,
    simulate_pilot_rx,
)
from oossim.scenario import (
    PAYLOAD_STREAM,
    SystemConfig,
    block_generators,
    build_geometry,
    build_pilot_book,
    draw_block,
)
from oossim.uplink import UplinkSymbolBatch

CHAIN_DETECTORS = [d for d in DETECTORS if d != "centralized_zf"]


def tiny_spec(**cfg_over):
    """Three blocks at 0 dB, each with 10 payload symbols (tau_c = tau_p + 10)."""
    cfg_over.setdefault("tau_p", 10)
    cfg = make_cfg(trials=3, tau_c=cfg_over["tau_p"] + 10, **cfg_over)
    return ExperimentSpec(cfg=cfg, snr_grid_db=(0.0,))


def with_payload(spec, n_symbols):
    """`spec` with `n_symbols` payload symbols per block: tau_c = tau_p + n_symbols."""
    return replace(spec, cfg=replace(spec.cfg, tau_c=spec.cfg.tau_p + n_symbols))


def holds(stack, mark) -> bool:
    """Whether one matrix of `stack` (a matrix or a stack of them) is `mark`."""
    return stack.shape[-2:] == mark.shape and bool(np.any(np.all(stack == mark, axis=(-2, -1))))


def fail_procrustes_fold(monkeypatch, cfg, block=0):
    """Make every rotate-and-average step fail whose incoming estimates
    hold `block`'s: the first AP's local estimate on that block, which
    the second AP receives."""
    zpsi = compute_projected_residual(
        pilot_interference(drawn_block(cfg, block)), build_pilot_book(cfg)
    )
    mark = oos_estimation.local_svd_estimate(zpsi[cfg.ap_order[0] - 1], cfg.K_I)[0]
    original = oos_estimation.rotate_and_average_step

    def flaky(S_prev, S_local, diagnostics=None):
        if holds(S_prev, mark):
            raise NumericalFailure("injected")
        return original(S_prev, S_local, diagnostics)

    monkeypatch.setattr(oos_estimation, "rotate_and_average_step", flaky)


def block_streams(cfg, block):
    """Block `block`'s generators, one per stream, as the sweep seeds them."""
    return [rngs[0] for rngs in block_generators(cfg.seed, [block])]


def drawn_block(cfg, block):
    geometry, channels, _ = block_streams(cfg, block)
    return draw_block(cfg, build_geometry(cfg, geometry), channels)


def fail_centralized_detection(monkeypatch, spec, block):
    """Make centralized ZF's apply step fail whenever its received vectors
    hold `block`'s (those of the block's first AP) at any SNR point."""
    marks = []
    for snr_db in spec.snr_grid_db:
        cfg = replace(spec.cfg, rho=experiments.uplink_power(snr_db))
        rng = block_streams(cfg, block)[PAYLOAD_STREAM]
        marks.append(uplink.simulate_uplink_rx(drawn_block(cfg, block), cfg, rng).y[0])
    original = uplink.apply_zf_filter

    def flaky(y, F):
        if any(holds(y, mark) for mark in marks):
            raise NumericalFailure("injected detection failure")
        return original(y, F)

    monkeypatch.setattr(uplink, "apply_zf_filter", flaky)


def fail_zf_channel_side(monkeypatch, ue_mark=None, interferer_mark=None):
    """Make centralized ZF's channel side fail whenever one of its methods
    detects over interferer channels too, its UE channels hold `ue_mark`
    and that method's interferer channels hold `interferer_mark` (each a
    matrix of one AP; None matches any)."""
    original = uplink.zf_filters

    def matches(stack, mark):
        return mark is None or holds(stack, mark)

    def flaky(ue, interferers, out=None):
        if matches(ue, ue_mark) and any(
            G is not None and matches(G, interferer_mark) for G in interferers
        ):
            raise NumericalFailure("injected channel-side failure")
        return original(ue, interferers, out)

    monkeypatch.setattr(uplink, "zf_filters", flaky)


def fail_genie_detection(monkeypatch, spec, block):
    """Make centralized ZF's channel side fail whenever its augmented
    channels hold the genie's on `block` (the true channels of the
    block's first AP), so only centralized_genie fails there."""
    drawn = drawn_block(spec.cfg, block)
    fail_zf_channel_side(monkeypatch, drawn.H[0], drawn.G[0])


def fail_gramian_detection(monkeypatch, spec, block):
    """Make centralized ZF's channel side fail whenever its augmented
    channels hold seq_gramian's interferer estimate of `block` (that of
    the block's first AP), at any SNR point. seq_gramian shares its
    channel-side call with the other methods of its width group, so only
    the reruns can tell it apart."""
    cfg = spec.cfg
    drawn = drawn_block(cfg, block)
    zpsi = compute_projected_residual(pilot_interference(drawn), build_pilot_book(cfg))
    fail_zf_channel_side(monkeypatch, interferer_mark=gramian_channels(drawn, zpsi, cfg)[0])


def gramian_channels(drawn, zpsi, cfg):
    """seq_gramian's interferer channels of the block `drawn`, by the
    sweep's own dispatch (on a stack of that one block)."""
    chain, counts = Chain.for_config(cfg), RunDiagnostics()
    G, zpsi = drawn.G[None], zpsi[None]
    return experiments._interferer_channels("seq_gramian", G, zpsi, cfg, chain, counts)[0]


def fail_estimates_at(monkeypatch, spec, snr_db, block):
    """Make centralized ZF's channel side fail whenever its augmented
    channels hold the first AP's pilot LS estimate of `block` at the SNR
    point `snr_db` and interferer columns too: every suppressing method
    but the genie fails on that (point, block) alone."""
    cfg = replace(spec.cfg, rho=experiments.uplink_power(snr_db))
    pilots = build_pilot_book(cfg)
    mark = ls_channel_estimate(simulate_pilot_rx(drawn_block(cfg, block), pilots, cfg), pilots, cfg)
    fail_zf_channel_side(monkeypatch, ue_mark=mark[0])


def fail_sequential_ls_solve(monkeypatch, spec, snr_db, block):
    """Make the sequential-LS inverse at the CPU fail whenever it takes
    the information matrix J = I/alpha + sum of A_l^H A_l (in visit
    order) of seq_gramian's augmented channels on `block` at the SNR point
    `snr_db`, so only seq_gramian fails there."""
    cfg = replace(spec.cfg, rho=experiments.uplink_power(snr_db))
    drawn, pilots = drawn_block(cfg, block), build_pilot_book(cfg)
    est = ls_channel_estimate(simulate_pilot_rx(drawn, pilots, cfg), pilots, cfg)
    zpsi = compute_projected_residual(pilot_interference(drawn), pilots)
    aug = np.concatenate([est, gramian_channels(drawn, zpsi, cfg)], axis=-1)
    mark = np.eye(aug.shape[-1], dtype=complex) / cfg.alpha
    for ap in cfg.ap_order:
        mark = mark + herm(aug[ap - 1]) @ aug[ap - 1]
    original = np.linalg.inv

    def flaky(a):
        if a.shape[-2:] == mark.shape and holds(a, mark):
            raise np.linalg.LinAlgError("injected")
        return original(a)

    monkeypatch.setattr(np.linalg, "inv", flaky)


def fail_local_svd(monkeypatch, cfg, block):
    """Make the local factorization fail whenever its residuals hold
    `block`'s."""
    mark = compute_projected_residual(
        pilot_interference(drawn_block(cfg, block)), build_pilot_book(cfg)
    )[0]
    original = oos_estimation.local_svd_estimate

    def flaky(zpsi, K_I):
        if holds(zpsi, mark):
            raise NumericalFailure("injected local SVD failure")
        return original(zpsi, K_I)

    monkeypatch.setattr(oos_estimation, "local_svd_estimate", flaky)


def sweep_record(spec):
    """Everything a sweep reports except wall times."""
    out = run_monte_carlo(spec)
    d = out.diagnostics
    csv_text = rows_to_csv(out.rows) if out.rows else ""
    return csv_text, d.numerical_failures, d.degenerate_rotations, d.failures


def span_records(spec, order):
    """sweep_record of a sweep whose spans run in the order `order` gives
    for their count, the failures as a multiset."""
    sweep = experiments._Sweep(spec)
    size, trials = experiments.SPAN_BLOCKS, spec.cfg.trials
    spans = [range(s, min(s + size, trials)) for s in range(0, trials, size)]
    for k in order(len(spans)):
        experiments._run_span(sweep, spans[k])
    out = sweep.outcome()
    d = out.diagnostics
    return rows_to_csv(out.rows), d.numerical_failures, d.degenerate_rotations, Counter(d.failures)


def with_trials(spec, trials):
    return replace(spec, cfg=replace(spec.cfg, trials=trials))


def spans_and_chunks(trials):
    """The blocks of each span of a sweep of `trials` blocks, and of each
    payload chunk of those spans, in the order the sweep runs them."""
    span, chunk = experiments.SPAN_BLOCKS, experiments.CHUNK_BLOCKS
    spans = [min(span, trials - start) for start in range(0, trials, span)]
    return spans, [min(chunk, n - start) for n in spans for start in range(0, n, chunk)]


# The benchmark's three workloads, at its seed (0) and at the default
# number of blocks
WORKLOADS = {
    "paper_default": default_spec(),
    "long_chain_seq_ls": default_spec(
        cfg=SystemConfig(L=16),
        snr_grid_db=(0.0,),
        methods=("no_suppression", "seq_procrustes", "seq_gramian"),
        detector="sequential_ls",
    ),
    "overloaded_dzf": overloaded_interferers_spec(detector="distributed_zf"),
}


# Blocks of a sweep that spans more than one span, its last span more
# than one chunk: SPAN_BLOCKS + 5 gives spans of 16 and 5 blocks, chunks
# of 4, 4, 4, 4, 4 and 1
MULTI_SPAN_TRIALS = experiments.SPAN_BLOCKS + experiments.CHUNK_BLOCKS + 1


def count_calls(monkeypatch, module, name, calls: Counter):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def ue_estimates(monkeypatch, spec):
    """Run `spec` and return each method's UE estimates (K, T) by
    (method, point index, block), read through a spy on _score, whose
    block-major estimates hold each block's rows method by method (those
    of the genie's per-chunk route too, which calls _apply per chunk)."""
    K, context, seen = spec.cfg.K, {}, {}
    draw_pilot, detect, score = experiments._draw_pilot, experiments._detect, experiments._score

    def drawing(sweep, blocks):
        context["span"] = blocks
        return draw_pilot(sweep, blocks)

    def detecting(sweep, payload, sides, rows, points, totals):
        # _detect scores each side in turn at each point
        context["calls"] = iter([(p, members) for p in points for members, _ in sides])
        context["blocks"] = context["span"][rows]
        return detect(sweep, payload, sides, rows, points, totals)

    def scoring(ue, truth, methods):  # ue (B, M K, T)
        p, members = next(context["calls"])
        assert len(members) == methods
        for i, m in enumerate(members):
            for b, estimates in zip(context["blocks"], ue[:, i * K : (i + 1) * K]):
                assert (spec.methods[m], p, b) not in seen
                seen[spec.methods[m], p, b] = estimates.copy()
        return score(ue, truth, methods)

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_draw_pilot", drawing)
        patch.setattr(experiments, "_detect", detecting)
        patch.setattr(experiments, "_score", scoring)
        run_monte_carlo(spec)
    return seen


def sweep_channels_and_estimates(monkeypatch, spec):
    """Run `spec`; returns the augmented channels (L, N, w) that the sweep
    handed its channel sides for each (method, point index, block), [E,
    G_hat] ([H, G] for the genie), and the sweep's UE estimates
    (ue_estimates), both by (method, point index, block)."""
    span_of, channels = {}, {}
    draw_pilot, channel_sides = experiments._draw_pilot, experiments._channel_sides

    def drawing(sweep, blocks):
        span_of["blocks"] = blocks
        return draw_pilot(sweep, blocks)

    def sides(sweep, span, est, ghats):
        # a rerun passes one point of the span's estimates
        points = range(len(est)) if len(est) == len(span.est) else [
            next(p for p, e in enumerate(span.est) if np.array_equal(e, est[0]))
        ]
        for m, ghat in ghats.items():
            for j, p in enumerate(points):
                for i, b in enumerate(span_of["blocks"]):
                    E = span.H[i] if spec.methods[m] == GENIE else est[j, i]
                    aug = E if ghat is None else np.concatenate([E, ghat[i]], axis=-1)
                    channels[spec.methods[m], p, b] = aug
        return channel_sides(sweep, span, est, ghats)

    monkeypatch.setattr(experiments, "_draw_pilot", drawing)
    monkeypatch.setattr(experiments, "_channel_sides", sides)
    return channels, ue_estimates(monkeypatch, spec)


def point_payload(spec, p, b):
    """The received vectors (L, N, T) of block `b` at the SNR point of
    index `p`, as simulate_uplink_rx draws them alone."""
    cfg = replace(spec.cfg, rho=experiments.uplink_power(spec.snr_grid_db[p]))
    rng = block_streams(cfg, b)[PAYLOAD_STREAM]
    return uplink.simulate_uplink_rx(drawn_block(cfg, b), cfg, rng).y


class TestSpec:
    def test_default_mirrors_reference_setup(self):
        spec = default_spec()
        cfg = spec.cfg
        assert (cfg.L, cfg.N, cfg.K, cfg.K_I) == (4, 4, 5, 2)
        assert (cfg.tau_p, cfg.tau_c) == (50, 200)
        assert cfg.oos_snr == pytest.approx(10 ** (-0.3))
        assert spec.snr_grid_db == (-10.0, -8.0, -6.0, -4.0, -2.0, 0.0)
        assert len(spec.methods) == 5

    def test_methods_validated(self):
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=make_cfg(), methods=())
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=make_cfg(), methods=("wizardry",))

    def test_round_trips_through_dict(self):
        spec = tiny_spec()
        again = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_local_processing_needs_K_I_at_most_N(self):
        with pytest.raises(ValueError, match="K_I <= N"):
            ExperimentSpec(cfg=SystemConfig(K_I=5))
        spec = overloaded_interferers_spec()
        assert "local_processing" not in spec.methods and spec.cfg.K_I > spec.cfg.N

    def test_duplicate_methods_rejected(self):
        with pytest.raises(ValueError, match=r"more than once: \['seq_gramian'\]"):
            ExperimentSpec(cfg=make_cfg(), methods=("seq_gramian", "no_suppression", "seq_gramian"))

    @pytest.mark.parametrize(
        "grid, repeated", [((0.0, 0.0), "[0.0]"), ((0.0, -0.0), "[0.0]"), ((-4, 3.0, -4.0), "[-4]")]
    )
    def test_repeated_snr_points_rejected(self, grid, repeated):
        # -0.0 is 0.0 in dB and in power: it would run the same point twice
        message = f"SNR points listed more than once: {repeated}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec(cfg=make_cfg(), snr_grid_db=grid)

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), -float("inf"), 4000.0, -4000.0])
    def test_snr_points_need_a_finite_positive_power(self, snr_db):
        with pytest.raises(ValueError, match="finite positive uplink power"):
            ExperimentSpec(cfg=make_cfg(), snr_grid_db=(0.0, snr_db))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cfg", make_cfg(rho=5.0)),  # snr_grid_db sets the uplink power
            ("snr_grid_db", 0.0),
            ("snr_grid_db", (True,)),
            ("methods", "seq_gramian"),
            ("out_dir", 5),
        ],
    )
    def test_malformed_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentSpec(**{"cfg": make_cfg(), field: value})

    def test_unknown_config_fields_rejected(self):
        with pytest.raises(ValueError, match=r"unknown config fields \['foo'\]"):
            ExperimentSpec.from_dict({"cfg": {"foo": 1}})

    @pytest.mark.parametrize(
        "d, kind", [([], "spec"), ("abc", "spec"), ({"cfg": None}, "config"), ({"cfg": []}, "config")]
    )
    def test_a_spec_or_config_that_is_no_object_is_rejected(self, d, kind):
        with pytest.raises(ValueError, match=f"{kind} must be a JSON object"):
            ExperimentSpec.from_dict(d)

    def test_default_ap_order_follows_an_overridden_L(self):
        def with_L(spec, L, **cfg):
            d = spec.to_dict()
            d["cfg"].update(L=L, **cfg)
            return ExperimentSpec.from_dict(d)

        assert with_L(default_spec(), 6).cfg.ap_order == (6, 5, 4, 3, 2, 1)
        explicit = with_L(default_spec(), 3, ap_order=[1, 3, 2])
        assert explicit.cfg.ap_order == (1, 3, 2)
        with pytest.raises(ValueError, match="permutation"):
            with_L(explicit, 4)


class TestRunMonteCarlo:
    def test_centralized_zf_takes_the_qr_route(self, monkeypatch):
        # every channel side of a default sweep passes zf_filters' screen,
        # so a silent fall back to the SVD route would show here only
        calls = Counter()
        count_calls(monkeypatch, numerics, "pseudo_inverse", calls)
        run_monte_carlo(with_trials(default_spec(), 5))
        assert calls["pseudo_inverse"] == 0
        # with L N = 4 below every augmented width the SVD route is the only one
        methods = ("no_suppression", "seq_gramian", "centralized_genie")
        run_monte_carlo(with_trials(default_spec(cfg=SystemConfig(L=1), methods=methods), 2))
        assert calls["pseudo_inverse"] > 0

    @pytest.mark.parametrize("tau_c", [15, 60])
    def test_payload_follows_tau_c(self, tau_c):
        # tiny_spec has tau_c = 20; a replaced tau_c sizes every block's payload
        spec = tiny_spec()
        cfg = replace(spec.cfg, tau_c=tau_c)
        rows = run_monte_carlo(replace(spec, cfg=cfg)).rows
        assert rows and all(
            row.bit_count == 2 * cfg.K * (tau_c - cfg.tau_p) * cfg.trials for row in rows
        )

    def test_row_grid_arithmetic(self):
        spec = replace(tiny_spec(), snr_grid_db=(-4.0, 0.0))
        out = run_monte_carlo(spec)
        assert len(out.rows) == len(spec.methods) * 2

    @pytest.mark.parametrize("detector", DETECTORS)
    def test_rows_independent_of_method_order(self, detector):
        # each side adds its counts at its members' indices in spec.methods;
        # with no_suppression's narrower width group between the others and
        # the genie first, in the middle or last, a chain detector's shared
        # side lists members that are neither sorted nor contiguous. Every
        # method's rows are those of its sweep alone.
        others = ("seq_gramian", "no_suppression", "local_processing", "seq_procrustes")
        orders = [(GENIE, *others), (*others[:2], GENIE, *others[2:]), (*others, GENIE)]
        spec = with_trials(default_spec(detector=detector, snr_grid_db=(-6.0, 0.0)), 5)

        def rows(methods):
            out = run_monte_carlo(replace(spec, methods=methods))
            return {(r.method, r.snr_db): rows_to_csv([r]) for r in out.rows}

        alone = {key: row for m in orders[0] for key, row in rows((m,)).items()}
        assert len(alone) == len(orders[0]) * len(spec.snr_grid_db)
        assert all(rows(methods) == alone for methods in orders)

    def test_genie_noise_vanishing_gives_zero_ber(self):
        # crank the uplink power so noise is negligible
        spec = ExperimentSpec(
            cfg=make_cfg(trials=2, noise_floor_dbw=-124.0, tau_c=20),
            snr_grid_db=(60.0,),
            methods=("centralized_genie",),
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
        spec = tiny_spec(K=5, K_I=2, tau_p=50, L=4, ap_order=(4, 3, 2, 1))
        out = run_monte_carlo(spec)
        loads = {r.method: r.fronthaul_per_link_real_symbols for r in out.rows}
        assert loads["seq_procrustes"] == 180
        assert loads["seq_gramian"] == 2025
        assert loads["no_suppression"] == 0
        assert loads["centralized_genie"] == 0

    @pytest.mark.parametrize(
        "build",
        [
            default_spec,
            lambda: overloaded_interferers_spec(detector="distributed_zf"),
            lambda: default_spec(cfg=SystemConfig(L=16), detector="sequential_ls"),
            lambda: default_spec(cfg=SystemConfig(K_I=0), detector="distributed_zf"),
        ],
        ids=["default", "overloaded_dzf", "L16_sequential_ls", "K_I0_dzf"],
    )
    def test_fronthaul_column_is_the_measured_load(self, build):
        # the CSV column is a closed form; load_report measures the same
        # method's chain passes and checks them against it
        spec = with_trials(build(), 2)
        for row in run_monte_carlo(spec).rows:
            report = load_report(row.method, spec.cfg, spec.detector)
            assert row.fronthaul_per_link_real_symbols == report.per_link_symbols("oos_forward")

    def test_gramian_matches_centralized_pipeline_decisions(self):
        # the distributed Gramian pass and the stacked-SVD pipeline give the
        # same bit decisions on every block
        from oossim import oos_estimation, pilot_phase, uplink
        from oossim.fronthaul import Chain
        from oossim.scenario import build_geometry, build_pilot_book, draw_block

        cfg = make_cfg(trials=10)
        pilots = build_pilot_book(cfg)
        for b in range(cfg.trials):
            geometry, channels, payload = block_streams(cfg, b)
            block = draw_block(cfg, build_geometry(cfg, geometry), channels)
            obs = pilot_phase.simulate_pilot_rx(block, pilots, cfg)
            est = pilot_phase.ls_channel_estimate(obs, pilots, cfg)
            zpsi = pilot_phase.compute_projected_residual(obs, pilots)
            batch = uplink.simulate_uplink_rx(block, cfg, payload, 10)
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
        spec = replace(tiny_spec(), snr_grid_db=(-4.0, 0.0))
        fail_procrustes_fold(monkeypatch, spec.cfg)
        out = run_monte_carlo(spec)
        failures = out.diagnostics.failures
        assert [f[:3] for f in failures] == [
            ("seq_procrustes", -4.0, 0), ("seq_procrustes", 0.0, 0)
        ]
        assert all("injected" in f[3] and "AP" in f[3] for f in failures)
        assert out.diagnostics.numerical_failures == 2
        assert len(out.rows) == len(spec.methods) * 2
        per_block = 2 * spec.cfg.K * (spec.cfg.tau_c - spec.cfg.tau_p)
        for row in out.rows:
            survivors = spec.cfg.trials - (row.method == "seq_procrustes")
            assert row.bit_count == survivors * per_block

    def test_snr_invariant_work_runs_once_per_block(self, monkeypatch):
        calls = Counter()
        count_calls(monkeypatch, experiments, "build_geometry", calls)
        count_calls(monkeypatch, oos_estimation, "run_gramian_method", calls)
        count_calls(monkeypatch, oos_estimation, "local_svd_estimate", calls)
        count_calls(monkeypatch, uplink, "simulate_uplink_rx", calls)
        spec = with_trials(replace(tiny_spec(), snr_grid_db=(-4.0, 0.0)), MULTI_SPAN_TRIALS)
        run_monte_carlo(spec)
        trials = spec.cfg.trials
        spans, chunks = spans_and_chunks(trials)
        assert (spans, chunks) == ([16, 5], [4, 4, 4, 4, 4, 1])
        # local_processing and seq_procrustes share one local factorization
        # per span; the Gramian pass and eigensolve run per chunk; a span's
        # geometry is drawn in one stacked call, each payload per block
        assert calls == {
            "build_geometry": 2, "run_gramian_method": 6,
            "local_svd_estimate": 2, "simulate_uplink_rx": trials,
        }

    def test_gramian_method_eigensolves_in_its_range(self, monkeypatch):
        # the CPU total adds L Gramians of rank N: with L N < tau_p - K no
        # eigensolve is wider than L N. At L = 16 (L N = 64) the subspace
        # route eigensolves K_I x K_I matrices, and a total that fails its
        # screen would add a full one; with seed 0 every total passes
        widths = Counter()
        original = np.linalg.eigh

        def spy(A, *args, **kwargs):
            widths[A.shape[-1]] += 1
            return original(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        spec = with_trials(default_spec(), 2)
        cfg = spec.cfg
        run_monte_carlo(spec)
        assert widths[cfg.L * cfg.N] > 0 and max(widths) <= cfg.L * cfg.N < cfg.tau_p - cfg.K
        widths.clear()
        assert cfg.seed == 0
        run_monte_carlo(replace(spec, cfg=replace(cfg, L=16, ap_order=()), methods=("seq_gramian",)))
        assert set(widths) == {cfg.K_I}

    def test_geometry_is_drawn_before_anything_else(self, monkeypatch):
        # the benchmark's setup_s probe patches experiments.build_geometry
        # and stops the sweep at its first call, before any other draw
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        calls = Counter()
        monkeypatch.setattr(experiments, "build_geometry", reached)
        count_calls(monkeypatch, experiments, "draw_block", calls)
        count_calls(monkeypatch, uplink, "simulate_uplink_rx", calls)
        with pytest.raises(Reached):
            run_monte_carlo(tiny_spec())
        assert not calls

    @pytest.mark.parametrize(
        ("build", "detector", "side", "apply", "groups", "applies"),
        [
            (default_spec, "centralized_zf", "zf_filters", "apply_zf_filter", 1, 1),
            (overloaded_interferers_spec, "distributed_zf", "inverse_gramian", "apply_chain", 1, 2),
            (default_spec, "sequential_ls", "sequential_ls_covariance", "apply_chain", 2, 2),
        ],
    )
    def test_detection_runs_once_per_width_group(
        self, monkeypatch, build, detector, side, apply, groups, applies
    ):
        # no_suppression detects over the K UE columns and every other
        # method over K + K_I, so the default spec has two width groups;
        # in the overloaded spec all three methods share one. A group's
        # channel side runs once per span whatever the number of SNR
        # points. The genie, whose channel side does not depend on the
        # point, has its own. Centralized ZF factors the pilot LS
        # estimates once for its four other methods, so they count as one
        # group whatever their widths. Under a chain detector the methods
        # that share the pilot LS estimates apply once per chunk and point
        # together, whatever their widths; the genie, the second of
        # `applies` sides, once more per chunk and point on a one-point
        # grid, and on a grid of several points twice per chunk (its H x
        # and its G s + n part), whatever their number. Centralized ZF's
        # methods, merged into one filter, apply once per chunk and point
        # together.
        spans, chunks = spans_and_chunks(MULTI_SPAN_TRIALS)
        assert (len(spans), len(chunks)) == (2, 6)
        for grid in ((0.0,), (-4.0, 0.0, 4.0)):
            calls = Counter()
            with monkeypatch.context() as patch:
                count_calls(patch, uplink, side, calls)
                count_calls(patch, uplink, apply, calls)
                spec = build(detector=detector, snr_grid_db=grid)
                run_monte_carlo(with_trials(with_payload(spec, 10), MULTI_SPAN_TRIALS))
            per_chunk = len(grid) + (applies - 1) * min(len(grid), 2)
            assert calls == {side: 2 * (groups + 1), apply: 6 * per_chunk}

    def test_genie_channel_side_runs_once_per_span(self, monkeypatch):
        spec = replace(tiny_spec(), snr_grid_db=(-4.0, 0.0, 4.0), methods=("centralized_genie",))
        spec, shapes = with_trials(spec, MULTI_SPAN_TRIALS), []
        original = uplink.zf_filters

        def spy(ue, interferers, out=None):
            shapes.append((ue.shape, [G.shape for G in interferers]))
            return original(ue, interferers, out)

        monkeypatch.setattr(uplink, "zf_filters", spy)
        run_monte_carlo(spec)
        cfg = spec.cfg
        assert shapes == [
            ((1, n, cfg.L, cfg.N, cfg.K), [(n, cfg.L, cfg.N, cfg.K_I)]) for n in (16, 5)
        ]

    def test_centralized_zf_factors_the_ue_estimates_once_per_span(self, monkeypatch):
        # one zf_filters call per span takes the pilot LS estimates of
        # every point and block with all methods but the genie, whose own
        # call takes the true channels on one point; a failed span's
        # reruns take each method alone. seq_procrustes fails on block 3,
        # so the first span (blocks 0-15) reruns block by block, point by
        # point; the second (16-20) does not.
        spec = with_trials(default_spec(snr_grid_db=(-4.0, 0.0, 4.0)), MULTI_SPAN_TRIALS)
        fail_procrustes_fold(monkeypatch, spec.cfg, block=3)
        calls, original = [], uplink.zf_filters

        def spy(ue, interferers, out=None):
            interferer_shapes = [None if G is None else G.shape for G in interferers]
            calls.append((ue.shape, interferer_shapes))
            return original(ue, interferers, out)

        monkeypatch.setattr(uplink, "zf_filters", spy)
        run_monte_carlo(spec)
        cfg = spec.cfg

        def call(points, blocks, methods):
            interferers = [
                None if m == "no_suppression" else (blocks, cfg.L, cfg.N, cfg.K_I)
                for m in methods
            ]
            return ((points, blocks, cfg.L, cfg.N, cfg.K), interferers)

        rerun = [
            call(1, 1, [m])
            for b in range(experiments.SPAN_BLOCKS) for m in spec.methods for _ in range(3)
            if (m, b) != ("seq_procrustes", 3)
        ]
        span = [call(3, 5, [m for m in spec.methods if m != GENIE]), call(1, 5, [GENIE])]
        assert calls == rerun + span

    def test_genie_pairs_each_point_and_block_with_its_own_detection(self, monkeypatch):
        # at every (point, block), the genie's UE estimates are centralized
        # ZF on the block's true [H, G] and its own payload at the point's
        # power, bit for bit, though its channel side is formed on one
        # point per span. Block 20 fails the genie, so the second of the
        # three spans (blocks 16-31) reruns block by block.
        methods = ("no_suppression", GENIE, "seq_gramian")
        spec = replace(tiny_spec(), snr_grid_db=(-4.0, 0.0, 4.0), methods=methods)
        spec = with_trials(spec, 2 * experiments.SPAN_BLOCKS + experiments.CHUNK_BLOCKS + 1)
        fail_genie_detection(monkeypatch, spec, 20)
        seen = {(p, b): ue for (m, p, b), ue in ue_estimates(monkeypatch, spec).items() if m == GENIE}
        cfg = spec.cfg
        assert sorted(seen) == [(p, b) for p in range(3) for b in range(cfg.trials) if b != 20]
        for (p, b), estimates in seen.items():
            cfg_pt = replace(cfg, rho=experiments.uplink_power(spec.snr_grid_db[p]))
            drawn = drawn_block(cfg, b)
            batch = uplink.simulate_uplink_rx(drawn, cfg_pt, block_streams(cfg, b)[PAYLOAD_STREAM])
            want = uplink.detect_centralized(batch, np.concatenate([drawn.H, drawn.G], axis=-1))
            assert np.array_equal(estimates, want[: cfg.K])

    def test_merged_filter_keeps_each_methods_bits(self, monkeypatch):
        # centralized ZF detects every method of a chunk and point with one
        # product per block; each method's UE estimates at every (point,
        # block) are those of a sweep of that method alone, bit for bit
        # (K >= 2: numerics' stack rule). Spans of 16 and 5 blocks, the
        # second with a partial chunk; seq_procrustes fails on block 3, so
        # the first span reruns block by block.
        spec = with_trials(default_spec(snr_grid_db=(-4.0, 0.0, 4.0)), MULTI_SPAN_TRIALS)
        assert len(spec.methods) == 5 and spec.cfg.K >= 2
        fail_procrustes_fold(monkeypatch, spec.cfg, block=3)
        together = ue_estimates(monkeypatch, spec)
        alone = {}
        for method in spec.methods:
            alone.update(ue_estimates(monkeypatch, replace(spec, methods=(method,))))
        blocks = range(spec.cfg.trials)
        keys = [(m, p, b) for m in spec.methods for p in range(3) for b in blocks]
        assert sorted(together) == sorted(alone) == sorted(set(keys) - {
            ("seq_procrustes", p, 3) for p in range(3)
        })
        for key, estimates in together.items():
            assert np.array_equal(estimates, alone[key]), key

    @staticmethod
    def mixed_chain_side(detector, rng):
        """A chain detector's shared side (_chain_side) of methods of every
        width: no_suppression at K and interferer widths 1, 2, 5 and 2
        again, on the pilot LS estimates of two points and three blocks;
        returns the sweep, the estimates, the interferer channels by
        method index, and the side's members and side."""
        spec = replace(tiny_spec(), detector=detector, snr_grid_db=(-4.0, 0.0))
        cfg, (P, B) = spec.cfg, (2, 3)
        assert cfg.K >= 2  # numerics' stack rule
        est = crandn(rng, P, B, cfg.L, cfg.N, cfg.K)
        widths = {0: 0, 1: 1, 2: 2, 3: 5, 4: 2}
        ghats = {m: crandn(rng, B, cfg.L, cfg.N, w) if w else None for m, w in widths.items()}
        sweep = experiments._Sweep(spec)
        return sweep, est, ghats, *experiments._chain_side(sweep, est, ghats)

    @pytest.mark.parametrize("detector", CHAIN_DETECTORS)
    def test_ue_row_apply_equals_the_detectors(self, detector):
        # what the sweep runs: the shared side, one combine per point for
        # every method, then each width group's UE rows; each method's
        # UE estimates are its own detect_* on its [E, G], bit for bit
        rng = np.random.default_rng(3)
        sweep, est, ghats, members, side = self.mixed_chain_side(detector, rng)
        cfg, K = sweep.spec.cfg, sweep.spec.cfg.K
        # grouped by width, in order of each width's first method
        assert members == [0, 1, 2, 4, 3]
        batch = UplinkSymbolBatch(x=None, s=None, y=crandn(rng, est.shape[1], cfg.L, cfg.N, 40))
        for p in range(len(est)):
            got = experiments._apply(detector, batch.y, side, p, sweep.chain)
            for i, m in enumerate(members):
                aug = est[p] if ghats[m] is None else np.concatenate([est[p], ghats[m]], axis=-1)
                if detector == "distributed_zf":
                    gamma = uplink.accumulate_channel_gramian(aug, Chain.for_config(cfg))
                    want = uplink.detect_distributed_zf(batch, aug, gamma, Chain.for_config(cfg))
                else:
                    want = uplink.detect_sequential_ls(batch, aug, cfg, Chain.for_config(cfg)).xhat
                assert np.array_equal(got[:, i * K : (i + 1) * K], want[:, :K]), m

    @pytest.mark.parametrize("detector", CHAIN_DETECTORS)
    def test_a_one_method_side_gathers_nothing(self, detector):
        # a side of one method (every genie side, a rerun's sides) has a
        # filter of its UE rows alone, over all of W, with no zero column;
        # it keeps its method's bits
        rng = np.random.default_rng(5)
        sweep, est, ghats, order, shared = self.mixed_chain_side(detector, rng)
        cfg, (P, B), K = sweep.spec.cfg, est.shape[:2], sweep.spec.cfg.K
        y = crandn(rng, B, cfg.L, cfg.N, 40)
        for m in (0, 1, 3):
            members, side = experiments._chain_side(sweep, est, {m: ghats[m]})
            W_h, F = side
            width = K + (0 if ghats[m] is None else ghats[m].shape[-1])
            assert members == [m] and F.shape == (P, B, K, width)
            assert W_h.shape == (P, B, cfg.L, width, cfg.N)
            assert np.all(np.any(F != 0, axis=-2))
            i = order.index(m)
            for p in range(P):
                alone = experiments._apply(detector, y, side, p, sweep.chain)
                among = experiments._apply(detector, y, shared, p, sweep.chain)
                assert np.array_equal(alone, among[:, i * K : (i + 1) * K])

    @pytest.mark.parametrize("detector", CHAIN_DETECTORS)
    def test_channel_side_keeps_only_the_ue_rows(self, detector):
        # a span's chunks share the side, which must not keep the whole
        # Gramian inverse or covariance alive, nor more than one copy of
        # the UE and interferer channels: F holds each method's K UE rows
        # at its columns of W and zeros elsewhere
        sweep, est, ghats, members, (W_h, F) = self.mixed_chain_side(
            detector, np.random.default_rng(3)
        )
        K, (P, B) = sweep.spec.cfg.K, est.shape[:2]
        width = K + sum(0 if g is None else g.shape[-1] for g in ghats.values())
        assert F.shape == (P, B, len(members) * K, width)
        assert W_h.shape == (*est.shape[:3], width, est.shape[-2])
        for x in (F, W_h):
            owner = x
            while owner.base is not None:
                owner = owner.base
            assert owner.size == x.size
        first = K
        for m in ghats:  # W's column order
            w = 0 if ghats[m] is None else ghats[m].shape[-1]
            own = F[:, :, members.index(m) * K : (members.index(m) + 1) * K]
            others = np.ones(width, dtype=bool)
            others[:K] = others[first : first + w] = False
            assert np.all(own[..., others] == 0) and np.all(own[..., ~others] != 0), m
            first += w

    def test_zf_side_apply_equals_detect_centralized(self):
        # what the sweep runs under centralized ZF: one block-major filter
        # of UE rows alone (P, B, M K, L N), formed on the pilot LS
        # estimates of two points and the genie's true H, then one product
        # per block; each method's rows give detect_centralized on its own
        # [E, G] ([H, G] for the genie) bit for bit
        methods = ("no_suppression", GENIE, "seq_gramian", "seq_procrustes")
        spec = replace(tiny_spec(), methods=methods, snr_grid_db=(-4.0, 0.0))
        cfg, rng = spec.cfg, np.random.default_rng(3)
        (P, B), K, n = (2, 3), cfg.K, cfg.L * cfg.N
        H, est = crandn(rng, B, cfg.L, cfg.N, K), crandn(rng, P, B, cfg.L, cfg.N, K)
        ghats = {0: None, **{m: crandn(rng, B, cfg.L, cfg.N, cfg.K_I) for m in (1, 2, 3)}}
        span = experiments._Span(range(B), H, None, None, est, None)
        sweep = experiments._Sweep(spec)
        F = experiments._zf_side(sweep, span, est, ghats)
        owner = F if F.base is None else F.base
        assert F.shape == (P, B, len(methods) * K, n) and owner.size == F.size
        batch = UplinkSymbolBatch(x=crandn(rng, B, K, 40), s=None, y=crandn(rng, B, cfg.L, cfg.N, 40))
        for p in range(P):
            got = experiments._apply("centralized_zf", batch.y, F, p, sweep.chain)
            for m, ghat in ghats.items():
                E = H if methods[m] == GENIE else est[p]
                aug = E if ghat is None else np.concatenate([E, ghat], axis=-1)
                want = uplink.detect_centralized(batch, aug)
                assert np.array_equal(got[:, m * K : (m + 1) * K], want[:, :K])

    @pytest.mark.parametrize(
        ("routine", "reason"),
        [
            ("inv", "channel Gramian is numerically singular"),
            ("eigvalsh", "eigenvalues of the channel Gramian did not converge"),
        ],
        ids=["inv", "eigvalsh"],
    )
    def test_eigensolver_failure_is_counted_not_raised(self, monkeypatch, routine, reason):
        spec = replace(tiny_spec(), snr_grid_db=(-4.0, 0.0), detector="distributed_zf")

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        # a failed inverse is a singular Gramian; a bound that no Gramian
        # clears sends every one to the eigvalsh screen
        monkeypatch.setattr(np.linalg, routine, no_convergence)
        monkeypatch.setattr(numerics, "GRAMIAN_RCOND", 1.0)
        out = run_monte_carlo(spec)
        d = out.diagnostics
        assert out.rows == []
        assert d.numerical_failures == len(spec.methods) * 2 * spec.cfg.trials
        assert all(f[3] == reason for f in d.failures if f[2] >= 0)

    @pytest.mark.parametrize("detector", DETECTORS)
    def test_rows_do_not_depend_on_the_other_methods(self, detector):
        # a method detected alone and inside a stacked group gets the
        # same rows, byte for byte
        spec = with_trials(replace(tiny_spec(), snr_grid_db=(-4.0, 0.0), detector=detector), 5)
        together = run_monte_carlo(spec).rows
        for method in spec.methods:
            alone = run_monte_carlo(replace(spec, methods=(method,))).rows
            assert rows_to_csv(alone) == rows_to_csv([r for r in together if r.method == method])

    def assert_payloads_seen(self, monkeypatch, spec, expected):
        """Run `spec` and check that centralized ZF's apply calls see, in
        order, the payloads of the (blocks, SNR point) pairs `expected`,
        each block's as simulate_uplink_rx draws it alone at that point's
        power, bit for bit."""
        cfg, seen, truths, drawn = spec.cfg, [], [], {}
        apply, draw_payload = uplink.apply_zf_filter, experiments._draw_payload

        def draw_spy(sweep, span, rows):
            drawn.update(draw_payload(sweep, span, rows))
            return drawn

        def spy(y, F):
            # scored against the truth of the payload drawn last
            seen.append(y.copy())
            truths.append(drawn["x"].copy())
            return apply(y, F)

        monkeypatch.setattr(experiments, "_draw_payload", draw_spy)
        monkeypatch.setattr(uplink, "apply_zf_filter", spy)
        run_monte_carlo(spec)
        assert len(truths) == len(seen) == len(expected)
        for x, y, (blocks, snr_db) in zip(truths, seen, expected):
            assert len(x) == len(y) == len(blocks)
            for i, b in enumerate(blocks):
                alone = uplink.simulate_uplink_rx(
                    drawn_block(cfg, b), replace(cfg, rho=10.0 ** (snr_db / 10.0)),
                    block_streams(cfg, b)[PAYLOAD_STREAM],
                )
                assert np.array_equal(x[i], alone.x) and np.array_equal(y[i], alone.y)

    def test_detection_sees_the_payload_simulate_uplink_rx_gives(self, monkeypatch):
        # the sweep draws each payload once but receives it at each point
        # exactly as a draw at that point's power would, bit for bit
        grid, size = (-4.0, 0.0), experiments.CHUNK_BLOCKS
        spec = with_trials(replace(tiny_spec(), snr_grid_db=grid, methods=(GENIE,)), 5)
        trials = spec.cfg.trials
        expected = [
            (range(start, min(start + size, trials)), snr_db)
            for start in range(0, trials, size) for snr_db in grid
        ]
        self.assert_payloads_seen(monkeypatch, spec, expected)

    def test_reruns_see_the_payload_simulate_uplink_rx_gives(self, monkeypatch):
        # so do the reruns of a failed span, which draw each block again:
        # in one span (of one chunk), seq_procrustes fails on block 1, so
        # every block reruns alone, each method at each point
        grid, methods = (-4.0, 0.0), ("seq_procrustes", GENIE)
        spec = with_trials(replace(tiny_spec(), snr_grid_db=grid, methods=methods), 3)
        assert spec.cfg.trials <= experiments.CHUNK_BLOCKS
        fail_procrustes_fold(monkeypatch, spec.cfg, block=1)
        expected = [
            (range(b, b + 1), snr_db)
            for b in range(spec.cfg.trials) for m in methods for snr_db in grid
            if (m, b) != ("seq_procrustes", 1)
        ]
        self.assert_payloads_seen(monkeypatch, spec, expected)

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


class TestScore:
    """_score counts, per method, what count_bit_errors counts, from the
    truth's positive parts formed once per chunk."""

    M, B, K, T = 3, 4, 5, 20

    def stacks(self, seed):
        """Payload symbols x (B, K, T) and estimates (M, B, K, T), some of
        them exact +-0.0 and NaN, which count as negative."""
        rng = np.random.default_rng(seed)
        x = np.stack([uplink.draw_qpsk(rng, self.K, self.T) for _ in range(self.B)])
        ue = crandn(rng, self.M, self.B, self.K, self.T)
        ue.real[0, 1, 2, :4] = [0.0, -0.0, np.nan, -np.nan]
        ue.imag[2, 3, 0, :3] = [-0.0, np.nan, 0.0]
        ue[1, 0] = 0.0
        return x, ue

    @pytest.mark.parametrize("seed", range(3))
    def test_counts_what_count_bit_errors_counts(self, seed):
        x, ue = self.stacks(seed)
        want = [uplink.count_bit_errors(ue[m], x).sum() for m in range(self.M)]
        ue = np.ascontiguousarray(ue.swapaxes(0, 1)).reshape(self.B, -1, self.T)  # (B, M K, T)
        got = experiments._score(ue, uplink.positive_parts(x), self.M)
        assert got.tolist() == want

    def test_zero_and_nan_estimates_count_as_negative(self):
        x, ue = self.stacks(0)
        # method 1 is zero on block 0: each of its positive parts is an error
        positive = int((uplink.positive_parts(x[0])).sum())
        assert uplink.count_bit_errors(ue[1, 0], x[0]).sum() == positive
        for estimate in (0.0, -0.0, np.nan):
            flat = np.full((1, 1, 1, 2), complex(estimate, estimate))
            truth = uplink.positive_parts(np.array([[[1 + 1j, -1 - 1j]]]))
            assert experiments._score(flat, truth, 1).tolist() == [2]


class TestChunking:
    """Blocks run in spans of SPAN_BLOCKS, each span's payload in chunks of
    CHUNK_BLOCKS; results must depend on neither."""

    # (span, chunk): per block, the default chunk, a span with a partial
    # chunk, and the default span, which holds all 7 blocks of the sweeps
    SIZES = [(span, chunk) for span in (1, 4, 7, 16) for chunk in (1, 4)]

    def records(self, monkeypatch, spec):
        out = []
        for span, chunk in self.SIZES:
            monkeypatch.setattr(experiments, "SPAN_BLOCKS", span)
            monkeypatch.setattr(experiments, "CHUNK_BLOCKS", chunk)
            out.append(sweep_record(spec))
        return out

    @pytest.mark.parametrize("detector", ["sequential_ls", "distributed_zf"])
    @pytest.mark.parametrize("build", [default_spec, overloaded_interferers_spec])
    def test_results_independent_of_chunk_size(self, monkeypatch, build, detector):
        spec = with_trials(with_payload(build(detector=detector), 40), 7)
        per_block, *others = self.records(monkeypatch, spec)
        assert per_block[0]
        assert all(other == per_block for other in others)

    @pytest.mark.parametrize("grid", [(-4.0, 0.0), (0.0,)], ids=["two_points", "one_point"])
    @pytest.mark.parametrize(
        ("N", "K_I"), [(4, 0), (4, 2), (4, 5), (1, 2)], ids=["K_I0", "K_I2", "K_I5", "N1"]
    )
    def test_stacked_draw_equals_single_block_draws(self, grid, N, K_I):
        # the golden hashes catch changed decisions, not rounding: a span's
        # channels, residuals and pilot estimates, and each chunk's payload,
        # must equal those of its blocks drawn alone, bit for bit (K_I > N
        # in the last two cases). The span of 7 blocks draws a full and a
        # partial chunk.
        size = experiments.CHUNK_BLOCKS + 3
        cfg = make_cfg(L=5, N=N, K_I=K_I, trials=size, noise_floor_dbw=-124.0)
        spec = ExperimentSpec(cfg=cfg, snr_grid_db=grid, methods=(GENIE,))
        sweep = experiments._Sweep(spec)
        span = experiments._draw_pilot(sweep, range(size))
        chunks = [slice(0, experiments.CHUNK_BLOCKS), slice(experiments.CHUNK_BLOCKS, size)]
        payloads = []  # copied, since each chunk's draw reuses the sweep's buffers
        for rows in chunks:
            payload = experiments._draw_payload(sweep, span, rows)
            payloads.append({term: buf.copy() for term, buf in payload.items()})
        # on a one-point grid the sweep keeps y; otherwise the terms of y
        kept = {"x", "y"} if len(grid) == 1 else {"x", "hx", "noise"} | ({"gs"} if K_I else set())
        assert all(kept <= set(payload) for payload in payloads)
        pilots = build_pilot_book(cfg)
        points = [replace(cfg, rho=experiments.uplink_power(snr_db)) for snr_db in grid]
        for b in range(size):
            geometry, channels, payload = block_streams(cfg, b)
            alone = draw_block(cfg, build_geometry(cfg, geometry), channels)
            batch = uplink.simulate_uplink_rx(alone, points[0], payload)
            assert np.array_equal(span.H[b], alone.H) and np.array_equal(span.G[b], alone.G)
            interference = pilot_interference(alone)
            zpsi = compute_projected_residual(interference, pilots)
            assert np.array_equal(span.zpsi[b], zpsi)
            for p, cfg_pt in enumerate(points):
                obs = simulate_pilot_rx(alone, pilots, cfg_pt)
                assert np.array_equal(span.est[p, b], ls_channel_estimate(obs, pilots, cfg_pt))
            payload, row = payloads[b // experiments.CHUNK_BLOCKS], b % experiments.CHUNK_BLOCKS
            for term in kept:
                assert np.array_equal(payload[term][row], getattr(batch, term)), term
            # and a block's y is its terms summed, each product formed per AP
            terms = alone.H @ batch.x, alone.G @ batch.s if K_I else None, batch.noise
            assert np.array_equal(batch.y, uplink.received_signal(points[0].rho, *terms))

    @pytest.mark.parametrize("span", [1, 4, 7, 16])
    def test_payload_buffers_hold_one_chunk(self, monkeypatch, span):
        # the payload is drawn and detected a chunk at a time, so neither
        # its buffers nor what the apply step receives grow with the span
        monkeypatch.setattr(experiments, "SPAN_BLOCKS", span)
        chunk, apply, seen = experiments.CHUNK_BLOCKS, experiments._apply, []

        def spy(detector, y, *args):
            seen.append(len(y))
            return apply(detector, y, *args)

        monkeypatch.setattr(experiments, "_apply", spy)
        for trials in (1, 3, 7, 20):
            for grid in ((0.0,), (-4.0, 0.0)):
                spec = with_trials(replace(tiny_spec(), snr_grid_db=grid), trials)
                sweep = experiments._Sweep(spec)
                rows = min(chunk, trials)
                assert {len(buf) for buf in sweep.payload.values()} == {rows}
                assert len(sweep.rows) == rows
                seen.clear()
                run_monte_carlo(spec)
                assert seen and max(seen) <= rows

    # on a one-point grid the sweep keeps no H x, G s and n terms
    @pytest.mark.parametrize("grid", [(-4.0, 0.0), (0.0,)])
    def test_failures_charged_to_their_block(self, monkeypatch, grid):
        spec = with_trials(replace(tiny_spec(), snr_grid_db=grid), 7)
        fail_procrustes_fold(monkeypatch, spec.cfg, block=5)
        fail_centralized_detection(monkeypatch, spec, block=2)
        first, *others = self.records(monkeypatch, spec)
        assert all(other == first for other in others)
        _, numerical_failures, _, failures = first
        expected = []
        for snr in spec.snr_grid_db:
            expected += [(m, snr, 2) for m in spec.methods] + [("seq_procrustes", snr, 5)]
        assert [f[:3] for f in failures] == expected
        assert numerical_failures == len(expected)
        rows = run_monte_carlo(spec).rows
        per_block = 2 * spec.cfg.K * (spec.cfg.tau_c - spec.cfg.tau_p)
        for row in rows:
            survivors = spec.cfg.trials - 1 - (row.method == "seq_procrustes")
            assert row.bit_count == survivors * per_block

    def assert_charged_to(self, monkeypatch, spec, method, block):
        """The sweep of `spec` fails for `method` on `block` at every SNR
        point and nowhere else, whatever the chunk size."""
        first, *others = self.records(monkeypatch, spec)
        assert all(other == first for other in others)
        _, numerical_failures, _, failures = first
        expected = [(method, snr, block) for snr in spec.snr_grid_db]
        assert [f[:3] for f in failures] == expected
        assert numerical_failures == len(expected)
        per_block = 2 * spec.cfg.K * (spec.cfg.tau_c - spec.cfg.tau_p)
        for row in run_monte_carlo(spec).rows:
            survivors = spec.cfg.trials - (row.method == method)
            assert row.bit_count == survivors * per_block

    def test_failure_in_a_stacked_group_charged_to_its_method(self, monkeypatch):
        # local_processing, seq_procrustes and seq_gramian share one
        # channel-side call; the failure must reach seq_gramian alone
        spec = with_trials(replace(tiny_spec(), snr_grid_db=(-4.0, 0.0)), 7)
        fail_gramian_detection(monkeypatch, spec, block=2)
        self.assert_charged_to(monkeypatch, spec, "seq_gramian", 2)

    def test_genie_channel_side_failure_charged_at_every_point(self, monkeypatch):
        # the genie's channel side runs once per chunk, for all points
        spec = with_trials(replace(tiny_spec(), snr_grid_db=(-4.0, 0.0)), 7)
        fail_genie_detection(monkeypatch, spec, block=2)
        self.assert_charged_to(monkeypatch, spec, "centralized_genie", 2)

    def test_channel_side_failure_charged_to_its_point_and_block(self, monkeypatch):
        spec = with_trials(replace(tiny_spec(), snr_grid_db=(-4.0, 0.0, 3.0)), 7)
        clean = run_monte_carlo(spec).rows
        fail_estimates_at(monkeypatch, spec, 0.0, block=5)
        first, *others = self.records(monkeypatch, spec)
        assert all(other == first for other in others)
        _, numerical_failures, _, failures = first
        suppressing = [m for m in spec.methods if m not in ("no_suppression", "centralized_genie")]
        assert [f[:3] for f in failures] == [(m, 0.0, 5) for m in suppressing]
        assert numerical_failures == len(suppressing)
        per_block = 2 * spec.cfg.K * (spec.cfg.tau_c - spec.cfg.tau_p)
        for row, want in zip(run_monte_carlo(spec).rows, clean, strict=True):
            if row.snr_db == 0.0 and row.method in suppressing:
                assert row.bit_count == want.bit_count - per_block
            else:
                assert rows_to_csv([row]) == rows_to_csv([want])

    def test_apply_failure_at_the_last_point_leaves_the_others_alone(self, monkeypatch):
        # the rerun of the failed chunk must receive every point's payload
        # afresh, the first included, although the failed stacked attempt
        # left the last point's y in the buffer
        spec = with_trials(replace(tiny_spec(), snr_grid_db=(-4.0, 0.0, 3.0)), 7)
        clean = run_monte_carlo(spec).rows
        cfg = replace(spec.cfg, rho=experiments.uplink_power(3.0))
        rng = block_streams(cfg, 2)[PAYLOAD_STREAM]
        mark = uplink.simulate_uplink_rx(drawn_block(cfg, 2), cfg, rng).y[0]
        original = uplink.apply_zf_filter

        def flaky(y, F):
            if holds(y, mark):
                raise NumericalFailure("injected apply failure")
            return original(y, F)

        monkeypatch.setattr(uplink, "apply_zf_filter", flaky)
        first, *others = self.records(monkeypatch, spec)
        assert all(other == first for other in others)
        _, numerical_failures, _, failures = first
        assert [f[:3] for f in failures] == [(m, 3.0, 2) for m in spec.methods]
        assert numerical_failures == len(spec.methods)
        per_block = 2 * spec.cfg.K * (spec.cfg.tau_c - spec.cfg.tau_p)
        for row, want in zip(run_monte_carlo(spec).rows, clean, strict=True):
            if row.snr_db == 3.0:
                assert row.bit_count == want.bit_count - per_block
            else:
                assert rows_to_csv([row]) == rows_to_csv([want])

    @pytest.mark.parametrize("size", [1, 4])
    def test_sequential_ls_solve_failure_charged_to_its_point_and_block(self, monkeypatch, size):
        # the covariance pass runs once per span on every (point, block)
        # stacked; its failure must reach seq_gramian at 0 dB on block 5 alone
        spec = replace(tiny_spec(), snr_grid_db=(-4.0, 0.0, 3.0), detector="sequential_ls")
        spec = with_trials(spec, 7)
        monkeypatch.setattr(experiments, "SPAN_BLOCKS", size)
        clean = run_monte_carlo(spec).rows
        fail_sequential_ls_solve(monkeypatch, spec, 0.0, block=5)
        out = run_monte_carlo(spec)
        failures = out.diagnostics.failures
        assert [f[:3] for f in failures] == [("seq_gramian", 0.0, 5)]
        assert "information matrix is singular" in failures[0][3]
        assert out.diagnostics.numerical_failures == 1
        per_block = 2 * spec.cfg.K * (spec.cfg.tau_c - spec.cfg.tau_p)
        for row, want in zip(out.rows, clean, strict=True):
            if (row.method, row.snr_db) == ("seq_gramian", 0.0):
                assert row.bit_count == want.bit_count - per_block
            else:
                assert rows_to_csv([row]) == rows_to_csv([want])

    def test_local_svd_failure_charged_to_both_methods(self, monkeypatch):
        spec = with_trials(replace(tiny_spec(), snr_grid_db=(-4.0, 0.0)), 7)
        fail_local_svd(monkeypatch, spec.cfg, block=2)
        first, *others = self.records(monkeypatch, spec)
        assert all(other == first for other in others)
        _, numerical_failures, _, failures = first
        expected = [
            (m, snr, 2) for snr in spec.snr_grid_db for m in ("local_processing", "seq_procrustes")
        ]
        assert [f[:3] for f in failures] == expected
        assert numerical_failures == len(expected)

    @pytest.mark.parametrize("size", [1, 2])
    def test_results_independent_of_block_order(self, monkeypatch, size):
        spec = with_trials(replace(tiny_spec(), snr_grid_db=(-4.0, 0.0)), 7)
        fail_procrustes_fold(monkeypatch, spec.cfg, block=5)
        fail_centralized_detection(monkeypatch, spec, block=2)
        monkeypatch.setattr(experiments, "SPAN_BLOCKS", size)
        in_order = span_records(spec, range)
        shuffled = span_records(spec, lambda n: np.random.default_rng(size).permutation(n))
        backwards = span_records(spec, lambda n: range(n - 1, -1, -1))
        assert in_order[1] == 2 * (len(spec.methods) + 1)
        assert shuffled == in_order and backwards == in_order
        csv_text, *_ = sweep_record(spec)
        assert csv_text == in_order[0]


    def test_rank_screen_svd_failure_charged_to_its_method_and_block(self, monkeypatch):
        # the SVD of estimate_oos_channels (its rank screen and its
        # pseudo-inverse) does not converge on seq_procrustes' estimate of
        # block 1: the sweep goes on, and only seq_procrustes loses that block
        spec = with_trials(default_spec(methods=("seq_procrustes", "no_suppression")), 3)
        clean = run_monte_carlo(spec).rows
        cfg = spec.cfg
        zpsi = compute_projected_residual(
            pilot_interference(drawn_block(cfg, 1)), build_pilot_book(cfg)
        )
        mark = oos_estimation.run_sequential_procrustes(zpsi, cfg, Chain.for_config(cfg))
        original = np.linalg.svd

        def flaky(a, *args, **kwargs):
            # the Procrustes cross-Gramians are K_I x K_I, so match the shape first
            if a.shape[-2:] == mark.shape and holds(a, mark):
                raise np.linalg.LinAlgError("SVD did not converge")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky)
        first, *others = self.records(monkeypatch, spec)
        assert all(other == first for other in others)
        _, numerical_failures, _, failures = first
        assert [f[:3] for f in failures] == [
            ("seq_procrustes", snr, 1) for snr in spec.snr_grid_db
        ]
        assert numerical_failures == len(spec.snr_grid_db)
        per_block = 2 * cfg.K * (cfg.tau_c - cfg.tau_p)
        for row, want in zip(run_monte_carlo(spec).rows, clean, strict=True):
            if row.method == "seq_procrustes":
                assert row.bit_count == want.bit_count - per_block
            else:
                assert rows_to_csv([row]) == rows_to_csv([want])


class TestDispatch:
    """The sweep runs detectors only through their two halves
    (_channel_side, _apply), never through a whole detector; load_report
    runs the sweep itself."""

    def test_no_whole_detector_calls(self):
        tree = ast.parse(Path(experiments.__file__).read_text())
        names = [
            node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and getattr(node.func.value, "id", None) == "uplink"
        ] + [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("uplink")
            for alias in node.names
        ]
        assert "apply_chain" in names
        assert [n for n in names if n.startswith("detect_")] == []

    def test_load_report_runs_the_sweeps_span_path(self, monkeypatch):
        calls, run_span = [], experiments._run_span

        def spy(sweep, blocks):
            calls.append((sweep, blocks))
            return run_span(sweep, blocks)

        monkeypatch.setattr(experiments, "_run_span", spy)
        cfg = SystemConfig()
        report = load_report("seq_gramian", cfg)
        [(sweep, blocks)] = calls
        assert len(blocks) == 1 and blocks[0] not in range(cfg.trials)
        assert sweep.chain.log is not None
        assert report is sweep.chain.log

    def test_load_report_failure_raises_numerical_failure(self, monkeypatch):
        # the partial log of a failed block is no load mismatch (ChainError)
        def fail(*args, **kwargs):
            raise NumericalFailure("injected")

        monkeypatch.setattr(oos_estimation, "rotate_and_average_step", fail)
        with pytest.raises(NumericalFailure):
            load_report("seq_procrustes", SystemConfig())


class TestScreenedRoutes:
    """End to end, the sweep's UE estimates on the screened routes (the
    numerics route list, zf_filters' block QR route and the K_I > N local
    bases' QR) match those that every matrix gets from the textbook call
    (a full SVD for the local bases), within ROUTE_RTOL, and results.csv
    is the same bytes."""

    ROUTE_RTOL = 1e-9
    SPECS = {
        **WORKLOADS,
        # K_I > N with L N >= tau_p - K: orthogonal iteration for k = 5 and
        # a 10-column [E, G] in zf_filters
        "overloaded_czf_L12": overloaded_interferers_spec(cfg=SystemConfig(L=12, K_I=5)),
    }

    @staticmethod
    def estimates(spec):
        """results.csv and every _apply result of a sweep of `spec`."""
        seen, apply = [], experiments._apply

        def spy(*args):
            seen.append(apply(*args))
            return seen[-1]

        with mock.patch.object(experiments, "_apply", spy):
            return rows_to_csv(run_monte_carlo(spec).rows), seen

    @staticmethod
    def stacked_pseudo_inverse(ue, interferers, out=None):
        """uplink.zf_filters by the UE rows of pseudo_inverse of each [E, G]."""
        *stack, L, N, K = ue.shape
        filters = []
        for G in interferers:
            G = np.zeros((*ue.shape[:-1], 0)) if G is None else G
            shape = np.broadcast_shapes(ue.shape[:-1], G.shape[:-1])
            aug = np.concatenate(
                [np.broadcast_to(ue, (*shape, K)), np.broadcast_to(G, (*shape, G.shape[-1]))],
                axis=-1,
            )
            A = aug.reshape(*shape[:-2], L * N, aug.shape[-1])
            filters.append(numerics.pseudo_inverse(A)[..., :K, :])
        for F, pinv in zip(out or (), filters):
            F[...] = pinv
        return filters if out is None else out

    @staticmethod
    def full_svd_basis(zpsi, K_I):
        """oos_estimation._local_signal_basis from the full SVD: the top
        right singular vectors, completed by the null space's."""
        if K_I <= zpsi.shape[-2]:
            return oos_estimation.local_svd_estimate(zpsi, K_I)[0]
        Vh = np.linalg.svd(zpsi, full_matrices=True)[2]
        return herm(Vh[..., :K_I, :])

    @pytest.mark.parametrize("name", list(SPECS))
    def test_matches_the_textbook_calls(self, name):
        spec = self.SPECS[name]
        spec = with_trials(replace(spec, cfg=replace(spec.cfg, seed=5)), 8)
        csv_text, screened = self.estimates(spec)
        with mock.patch.multiple(numerics, GRAM_RTOL=math.inf, RANGE_RTOL=0.0, SUBSPACE_RTOL=0.0):
            with (
                mock.patch.object(uplink, "zf_filters", self.stacked_pseudo_inverse),
                mock.patch.object(oos_estimation, "_local_signal_basis", self.full_svd_basis),
            ):
                textbook_csv, textbook = self.estimates(spec)
        assert textbook_csv == csv_text
        assert len(screened) == len(textbook) > 0
        worst = max(
            np.max(np.linalg.norm(a - b, axis=(-2, -1)) / np.linalg.norm(b, axis=(-2, -1)))
            for a, b in zip(screened, textbook)
        )
        # a zero difference would mean the textbook switch took no effect
        assert 0 < worst < self.ROUTE_RTOL

    @pytest.mark.parametrize("detector", DETECTORS)
    def test_an_overloaded_sweep_takes_no_full_svd(self, detector):
        svd, full = np.linalg.svd, []

        def spy(a, full_matrices=True, *args, **kwargs):
            full.append(full_matrices)
            return svd(a, full_matrices, *args, **kwargs)

        spec = with_trials(overloaded_interferers_spec(detector=detector), 2)
        with mock.patch.object(np.linalg, "svd", spy):
            run_monte_carlo(spec)
        assert full and not any(full)


class TestPhaseConvention:
    """oos_estimation._fix_column_phases has one reader, local_processing,
    which stacks the APs' local estimates as they are (local_svd_estimate).
    Every other method sees them through a subspace or a unitary change of
    basis, so without the convention only local_processing's rows move."""

    SHAPES = {
        "default": lambda detector: default_spec(detector=detector),
        "L16_one_point": lambda detector: default_spec(
            cfg=SystemConfig(L=16), snr_grid_db=(0.0,), detector=detector
        ),
        "overloaded": lambda detector: overloaded_interferers_spec(detector=detector),
    }

    @pytest.mark.parametrize("detector", DETECTORS)
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_only_local_processing_reads_it(self, shape, detector):
        spec = with_trials(self.SHAPES[shape](detector), 6)
        out = run_monte_carlo(spec)
        with mock.patch.object(oos_estimation, "_fix_column_phases", lambda U, V: (U, V)):
            bare = run_monte_carlo(spec)
        assert bare.diagnostics == out.diagnostics

        def rows_of(outcome, local):
            return [r for r in outcome.rows if (r.method == "local_processing") == local]

        assert rows_to_csv(rows_of(bare, local=False)) == rows_to_csv(rows_of(out, local=False))
        # the overloaded spec has no local_processing rows to move
        assert (rows_of(bare, local=True) != rows_of(out, local=True)) == (shape != "overloaded")


class TestLiteralCentralizedZf:
    """Centralized ZF against its definition: at every (method, point,
    block) the sweep's UE estimates are the first K rows of
    np.linalg.pinv of the augmented channels the sweep formed the
    method's filter from, [E, G_hat] ([H, G] for the genie), times that
    block's received vectors, within LITERAL_RTOL relatively."""

    LITERAL_RTOL = 1e-9
    SPECS = {
        "paper_default": (WORKLOADS["paper_default"], 6),
        # K_I = 5 > N = 4: a 5-column residual
        "overloaded": (overloaded_interferers_spec(), 4),
        # L N = 6 < K + K_I = 7: every method but no_suppression goes to
        # pseudo_inverse whole
        "wide": (default_spec(cfg=SystemConfig(L=1, N=6)), 4),
        # seq_procrustes fails on block 1, so the span reruns every block
        # alone, each method at each point
        "rerun": (default_spec(snr_grid_db=(-4.0, 0.0)), 4),
    }

    @pytest.mark.parametrize("name", list(SPECS))
    def test_matches_the_pseudo_inverse(self, monkeypatch, name):
        spec, trials = self.SPECS[name]
        spec = with_trials(spec, trials)
        if name == "rerun":
            fail_procrustes_fold(monkeypatch, spec.cfg, block=1)
        channels, seen = sweep_channels_and_estimates(monkeypatch, spec)
        blocks, points = range(spec.cfg.trials), range(len(spec.snr_grid_db))
        every = {(m, p, b) for m in spec.methods for p in points for b in blocks}
        failed = {("seq_procrustes", p, 1) for p in points} if name == "rerun" else set()
        assert set(channels) == set(seen) == every - failed
        worst = 0.0
        for (method, p, b), estimates in seen.items():
            aug, y = channels[method, p, b], point_payload(spec, p, b)
            filters = np.linalg.pinv(aug.reshape(-1, aug.shape[-1]))[: spec.cfg.K]
            want = filters @ y.reshape(-1, y.shape[-1])
            worst = max(worst, np.linalg.norm(estimates - want) / np.linalg.norm(want))
        assert worst < self.LITERAL_RTOL


class TestLiteralChainDetectors:
    """The chain detectors against their definitions, as
    TestLiteralCentralizedZf checks centralized ZF: at every (method,
    point, block) the sweep's UE estimates are the first K rows of a
    plain np.linalg.solve on the augmented channels A = [E, G_hat] ([H,
    G] for the genie) that the sweep formed the method's side from, and
    that block's received vectors y, within LITERAL_RTOL relatively:
    distributed ZF solve(sum A_l^H A_l, sum A_l^H y_l), sequential LS
    solve(I/alpha + sum A_l^H A_l, sum A_l^H y_l)."""

    LITERAL_RTOL = 1e-9
    SPECS = {
        "long_chain_seq_ls": (WORKLOADS["long_chain_seq_ls"], 4),
        # K_I = 5 > N = 4, one width group beside the genie
        "overloaded_dzf": (WORKLOADS["overloaded_dzf"], 4),
        # two width groups (no_suppression at K) beside the genie
        "default_sequential_ls": (default_spec(detector="sequential_ls"), 4),
        "default_distributed_zf": (default_spec(detector="distributed_zf"), 4),
        # seq_procrustes fails on block 1, so the span reruns every block
        # alone, each method at each point
        "rerun": (default_spec(snr_grid_db=(-4.0, 0.0), detector="distributed_zf"), 4),
    }

    @staticmethod
    def literal(aug, y, cfg, detector):
        """The first K rows of the chain detector's solution on one block:
        aug (L, N, w), y (L, N, T)."""
        A_h = herm(aug)
        gramian = sum(A_h[ap] @ aug[ap] for ap in range(cfg.L))
        if detector == "sequential_ls":
            gramian = gramian + np.eye(aug.shape[-1]) / cfg.alpha
        return np.linalg.solve(gramian, sum(A_h[ap] @ y[ap] for ap in range(cfg.L)))[: cfg.K]

    @pytest.mark.parametrize("name", list(SPECS))
    def test_matches_the_solve(self, monkeypatch, name):
        spec, trials = self.SPECS[name]
        spec = with_trials(spec, trials)
        if name == "rerun":
            fail_procrustes_fold(monkeypatch, spec.cfg, block=1)
        channels, seen = sweep_channels_and_estimates(monkeypatch, spec)
        blocks, points = range(spec.cfg.trials), range(len(spec.snr_grid_db))
        every = {(m, p, b) for m in spec.methods for p in points for b in blocks}
        failed = {("seq_procrustes", p, 1) for p in points} if name == "rerun" else set()
        assert set(channels) == set(seen) == every - failed
        worst = 0.0
        for (method, p, b), estimates in seen.items():
            y = point_payload(spec, p, b)
            want = self.literal(channels[method, p, b], y, spec.cfg, spec.detector)
            worst = max(worst, np.linalg.norm(estimates - want) / np.linalg.norm(want))
        assert worst < self.LITERAL_RTOL


class TestGenieChunkRoute:
    """Under a chain detector the genie's side is formed on one point, and
    on a grid of several points _detect applies it once per chunk to the
    payload's H x and G s + n parts, then scales and sums them per point.
    Its estimates equal _apply's on each point's own received vectors y,
    with the genie's side formed on each block alone, within GENIE_RTOL
    relatively; on a one-point grid the sweep takes that per-point route,
    bit for bit."""

    GENIE_RTOL = 1e-12
    BUILDS = {"default": default_spec, "overloaded": overloaded_interferers_spec}
    TRIALS = experiments.CHUNK_BLOCKS + 2  # a full chunk and a partial one

    @staticmethod
    def per_point(spec):
        """The genie's UE estimates (K, T) by (point index, block), from
        _apply on each point's y with a side formed on that block alone."""
        cfg, sweep, want = spec.cfg, experiments._Sweep(spec), {}
        genie = spec.methods.index(GENIE)
        for b in range(cfg.trials):
            drawn = drawn_block(cfg, b)
            _, side = experiments._chain_side(sweep, drawn.H[None, None], {genie: drawn.G[None]})
            for p in range(len(spec.snr_grid_db)):
                y = point_payload(spec, p, b)[None]
                want[p, b] = experiments._apply(spec.detector, y, side, 0, sweep.chain)[0]
        return want

    @pytest.mark.parametrize("detector", CHAIN_DETECTORS)
    @pytest.mark.parametrize("build", list(BUILDS))
    def test_per_chunk_route_equals_per_point_apply(self, monkeypatch, build, detector):
        spec = with_trials(self.BUILDS[build](detector=detector), self.TRIALS)
        assert len(spec.snr_grid_db) > 1
        seen = ue_estimates(monkeypatch, spec)
        got = {(p, b): ue for (m, p, b), ue in seen.items() if m == GENIE}
        want = self.per_point(spec)
        assert sorted(got) == sorted(want)
        worst = max(np.linalg.norm(got[k] - want[k]) / np.linalg.norm(want[k]) for k in want)
        assert worst < self.GENIE_RTOL

    @pytest.mark.parametrize("detector", CHAIN_DETECTORS)
    @pytest.mark.parametrize("build", list(BUILDS))
    def test_one_point_grid_takes_the_per_point_route(self, monkeypatch, build, detector):
        spec = with_trials(self.BUILDS[build](detector=detector, snr_grid_db=(-4.0,)), self.TRIALS)
        seen = ue_estimates(monkeypatch, spec)
        got = {(p, b): ue for (m, p, b), ue in seen.items() if m == GENIE}
        want = self.per_point(spec)
        assert sorted(got) == sorted(want)
        for key, estimates in want.items():
            assert np.array_equal(got[key], estimates), key


# The (workload, seed) pairs of TestOneZfEstimator whose results differ
# at oos_snr = 1e6
ZF_DIFFER_AT_1E6 = {
    ("paper_default", 0), ("paper_default", 2), ("long_chain_seq_ls", 0),
    ("long_chain_seq_ls", 1), ("overloaded_dzf", 0), ("overloaded_dzf", 1),
    ("overloaded_dzf", 2),
}


class TestOneZfEstimator:
    """Distributed ZF, Gamma^{-1} sum_l A_l^H y_l, and centralized ZF,
    pinv(A) y, are one estimator on the same augmented channels A, so
    their results.csv agree wherever neither fails. At oos_snr = 1e6
    distributed ZF's Gramian screen fails blocks that centralized ZF
    detects, which the xfail cases pin until the screen is mended."""

    CASES = [
        pytest.param(
            workload, seed, oos_snr,
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 7")
            if oos_snr == 1e6 and (workload, seed) in ZF_DIFFER_AT_1E6 else (),
        )
        for oos_snr in (SystemConfig().oos_snr, 1e4, 1e6)
        for workload in WORKLOADS
        for seed in range(3)
    ]

    @pytest.mark.parametrize("workload, seed, oos_snr", CASES)
    def test_distributed_zf_equals_centralized_zf(self, workload, seed, oos_snr):
        spec = WORKLOADS[workload]
        spec = replace(spec, cfg=replace(spec.cfg, trials=12, seed=seed, oos_snr=oos_snr))
        distributed, centralized = (
            rows_to_csv(run_monte_carlo(replace(spec, detector=detector)).rows)
            for detector in ("distributed_zf", "centralized_zf")
        )
        assert distributed == centralized


class TestStageTrace:
    """The sweep's one timing record: seconds and calls per stage, fed by
    _Sweep.lap."""

    @staticmethod
    def documented(spec):
        methods = [f"estimate.{m}" for m in spec.methods]
        return {"draw", "pilot", "estimate.local_svd", "score", *methods,
                f"channel_side.{spec.detector}", f"apply.{spec.detector}"}

    def test_stages_cover_the_sweep_wall_time(self):
        spec = with_trials(default_spec(), 24)
        run_monte_carlo(spec)  # warm up
        start = time.perf_counter()
        out = run_monte_carlo(spec)
        wall = time.perf_counter() - start
        traced = sum(stage["seconds"] for stage in out.stages.values())
        assert abs(traced - wall) <= 0.05 * wall

    @staticmethod
    def ticking_sweep(monkeypatch, spec):
        """A sweep of `spec` on a clock that ticks once per reading: its
        outcome, its traced seconds and the readings taken."""
        ticks = iter(range(10**6))
        monkeypatch.setattr(experiments.time, "perf_counter", lambda: float(next(ticks)))
        out = run_monte_carlo(spec)
        return out, sum(stage["seconds"] for stage in out.stages.values()), next(ticks) - 1

    def test_every_clock_reading_closes_a_lap(self, monkeypatch):
        # each reading of a clock that ticks once per call ends one unit,
        # so a gap between spans, or set-up no lap covers, would go missing
        spec = with_trials(tiny_spec(), MULTI_SPAN_TRIALS)
        _, traced, readings = self.ticking_sweep(monkeypatch, spec)
        assert traced == readings

    def test_a_failed_span_keeps_its_time(self, monkeypatch):
        # L = 1 leaves distributed ZF's channel Gramian singular, so every
        # span fails and reruns its blocks; the time it spent before
        # failing was spent all the same
        spec = with_trials(default_spec(cfg=SystemConfig(L=1), detector="distributed_zf"), 6)
        out, traced, readings = self.ticking_sweep(monkeypatch, spec)
        assert out.diagnostics.numerical_failures == 6 * len(spec.methods) * len(spec.snr_grid_db)
        assert traced == readings

    @pytest.mark.parametrize("detector", DETECTORS)
    def test_stage_names_are_the_documented_ones(self, detector):
        spec = with_trials(replace(tiny_spec(), snr_grid_db=(-4.0, 0.0), detector=detector), 5)
        stages = run_monte_carlo(spec).stages
        assert set(stages) == self.documented(spec)
        assert all(stage["calls"] > 0 and stage["seconds"] >= 0 for stage in stages.values())

    def test_a_failed_span_counts_every_call_made(self, monkeypatch):
        spec = with_trials(tiny_spec(), MULTI_SPAN_TRIALS)  # spans 0-15 and 16-20
        fail_procrustes_fold(monkeypatch, spec.cfg, block=1)
        out = run_monte_carlo(spec)
        assert out.diagnostics.numerical_failures == 1
        assert set(out.stages) <= self.documented(spec)
        # the second span's two chunks draw their channels and their
        # payloads once each; the failed span's four chunks drew their
        # channels before seq_procrustes failed, then its 16 blocks do alone
        assert out.stages["draw"]["calls"] == 2 * 2 + 4 + 16 * 2
        assert out.stages["pilot"]["calls"] == 2 + 4 + 16
        # one estimate per span; per span, one centralized-ZF channel side
        # of the methods that share the pilot LS estimates and one of the
        # genie, and one per rerun method; the failed span stopped before
        # seq_gramian and any channel side
        assert out.stages["estimate.seq_gramian"]["calls"] == 1 + 16
        assert out.stages["channel_side.centralized_zf"]["calls"] == 2 + 16 * 5 - 1
        # one merged side per chunk and point; a rerun block's methods
        # each alone
        per_block = len(spec.methods) * len(spec.snr_grid_db)
        assert out.stages["score"]["calls"] == 2 * 1 + 16 * per_block - 1
        assert out.stages["apply.centralized_zf"]["calls"] == 2 * 1 + 16 * per_block - 1

    def test_results_json_carries_the_trace(self, tmp_path):
        spec = replace(tiny_spec(), out_dir=tmp_path)
        out = run_monte_carlo(spec)
        _, json_path, _ = emit_report(out, spec)
        assert json.loads(json_path.read_text())["stages"] == out.stages

    def test_perf_counter_only_in_the_lap(self):
        tree = ast.parse(Path(experiments.__file__).read_text())
        laps = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "lap"
        ]
        inside = {id(n) for lap in laps for n in ast.walk(lap)}
        clocks = [  # time.perf_counter, or the bare name however imported
            node for node in ast.walk(tree)
            if "perf_counter" in (getattr(node, "attr", None), getattr(node, "id", None))
            or isinstance(node, ast.ImportFrom) and any(a.name == "perf_counter" for a in node.names)
        ]
        assert len(laps) == 1 and clocks
        assert [n.lineno for n in clocks if id(n) not in inside] == []


class TestMemoryCeiling:
    """The peak of the memory that tracemalloc traces (numpy's arrays
    included) while a sweep runs one full span of each benchmark workload.
    Each ceiling is the peak measured when it was set plus 10% headroom,
    so that a change that keeps span- or payload-sized arrays alive
    longer, or adds some, fails here before it shows in the benchmark's
    peak RSS."""

    SPECS = {
        # measured: 2282 KiB, in centralized ZF's channel side, as the
        # residual W = G - Q1 C of the methods' interferer estimates is
        # formed beside Q1 and the span's block-major filter (614 KiB)
        "default": (WORKLOADS["paper_default"], 2510),
        # measured: 2993 KiB; the span's residuals take 720 KiB of it
        "long_chain": (WORKLOADS["long_chain_seq_ls"], 3290),
        # measured: 2294 KiB, in distributed ZF's channel side, as the
        # Gramian pass runs on the augmented channels of the methods that
        # share the pilot LS estimates; herm(W) is formed after it
        "overloaded_dzf": (WORKLOADS["overloaded_dzf"], 2523),
    }

    @pytest.mark.parametrize("name", list(SPECS))
    def test_one_span_stays_under_its_ceiling(self, name):
        spec, ceiling_kib = self.SPECS[name]
        spec = with_trials(spec, experiments.SPAN_BLOCKS)
        run_monte_carlo(spec)  # warm up
        tracemalloc.start()
        try:
            run_monte_carlo(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= ceiling_kib * 1024


class TestBenchmarkReference:
    """The benchmark's stored reference CSVs (made at the seed commit on
    seed 0) are reproduced byte for byte. The specs mirror the
    benchmark's workloads."""

    REFERENCE = Path(__file__).resolve().parent.parent / "benchmark" / "reference"
    TRIALS = {"paper_default": 10, "long_chain_seq_ls": 30, "overloaded_dzf": 15}

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_reference_csv_bytes(self, workload):
        spec = with_trials(WORKLOADS[workload], self.TRIALS[workload])
        assert spec.cfg.seed == 0
        expected = (self.REFERENCE / f"{workload}.csv").read_text()
        assert rows_to_csv(run_monte_carlo(spec).rows) == expected


@st.composite
def tiny_valid_specs(draw):
    """A valid spec of a few blocks on a tiny network, in the default
    geometry, with any detector and any defined methods."""
    L, N, K, K_I = (draw(st.integers(lo, 3)) for lo in (1, 1, 1, 0))
    tau_p = draw(st.integers(K + K_I, K + K_I + 2))
    cfg = SystemConfig(
        L=L, N=N, K=K, K_I=K_I, tau_p=tau_p, tau_c=tau_p + draw(st.integers(1, 6)),
        oos_snr=10.0 ** draw(st.floats(-3, 8)), alpha=10.0 ** draw(st.floats(-2, 12)),
        ap_order=tuple(draw(st.permutations(range(1, L + 1)))),
        seed=draw(st.integers(0, 2**70)), trials=draw(st.integers(1, 4)),
        area_side_m=draw(st.floats(50, 1000)), noise_floor_dbw=draw(st.floats(-124, -60)),
    )
    defined = [m for m in experiments.METHODS if experiments.undefined_reason(m, cfg) is None]
    return ExperimentSpec(
        cfg=cfg,
        snr_grid_db=tuple(draw(st.lists(st.floats(-10, 10), min_size=1, max_size=2, unique=True))),
        methods=tuple(draw(st.lists(st.sampled_from(defined), min_size=1, unique=True))),
        detector=draw(st.sampled_from(DETECTORS)),
    )


SIZE_FIELDS = ("L", "N", "K", "K_I", "tau_p", "tau_c")
REAL_FIELDS = (
    "rho", "oos_snr", "alpha", "area_side_m", "ue_margin_m", "ap_height_m", "noise_floor_dbw"
)


def float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def bits_of_float(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


def accepted(name: str, value: float) -> bool:
    try:
        SystemConfig(**{name: value})
    except ValueError:
        return False
    return True


@cache
def accepted_bits(name: str, sign: int) -> tuple[int, int]:
    """The bit patterns of the smallest and largest magnitude x for which
    SystemConfig, its other fields at their defaults, accepts `name` =
    sign * x, found by bisection from the default's magnitude (which it
    accepts) out to the smallest subnormal and the largest float. The
    accepted magnitudes on each side of the default form one interval."""
    start = bits_of_float(abs(getattr(SystemConfig(), name)))
    ends = []
    for limit in (1, bits_of_float(sys.float_info.max)):
        inside, outside = start, limit
        if accepted(name, sign * float_of_bits(limit)):
            inside = outside
        while abs(outside - inside) > 1:
            middle = (inside + outside) // 2
            if accepted(name, sign * float_of_bits(middle)):
                inside = middle
            else:
                outside = middle
        ends.append(inside)
    return ends[0], ends[1]


# rho is not drawn: a spec holds it at 1.0 (its SNR points set the
# uplink power), and load_table sets it to 1.0
DRAWN_REAL_FIELDS = tuple(name for name in REAL_FIELDS if name != "rho")


@st.composite
def one_accepted_float_field(draw):
    """(name, value): one float field of SystemConfig drawn log-uniformly
    over the values it accepts with the other fields at their defaults,
    of either sign that it accepts. Positive floats are ordered as their
    bit patterns, whose high bits are the exponent, so a pattern drawn
    uniformly between those of the range's ends is uniform in the
    exponent over the whole range."""
    name = draw(st.sampled_from(DRAWN_REAL_FIELDS))
    magnitude = abs(getattr(SystemConfig(), name))
    sign = draw(st.sampled_from([s for s in (1, -1) if accepted(name, s * magnitude)]))
    return name, sign * float_of_bits(draw(st.integers(*accepted_bits(name, sign))))


@st.composite
def oversized_spec_dicts(draw):
    """default_spec()'s dict with one or two fields out of range: a size
    of 2^30 to 2^80 (tau_p and tau_c then raised so that the sizes stay
    consistent), a real field or SNR point too large for a float, or a
    float oos_snr, area side or AP height above its bound (drawn as in
    one_accepted_float_field). L starts at 2^63, which range() refuses at
    once, so that no code, with or without a size check, builds an AP
    order of L entries here."""
    d = default_spec().to_dict()
    cfg = d["cfg"]
    fields = st.sampled_from(SIZE_FIELDS + REAL_FIELDS + ("snr_grid_db", "bound"))
    for name in draw(st.lists(fields, min_size=1, max_size=2, unique=True)):
        if name in SIZE_FIELDS:
            cfg[name] = draw(st.integers(2**63 if name == "L" else 2**30, 2**80))
        elif name in REAL_FIELDS:
            cfg[name] = draw(st.integers(2**1024, 2**1100)) * draw(st.sampled_from((1, -1)))
        elif name == "bound":
            field = draw(st.sampled_from(("oos_snr", "area_side_m", "ap_height_m")))
            above = accepted_bits(field, 1)[1] + 1
            cfg[field] = float_of_bits(draw(st.integers(above, bits_of_float(sys.float_info.max))))
        else:
            d[name] = [-10.0, draw(st.integers(2**1024, 2**1100))]
    cfg["tau_p"] = max(cfg["tau_p"], cfg["K"] + cfg["K_I"])
    cfg["tau_c"] = max(cfg["tau_c"], cfg["tau_p"] + 1)
    return d


class TestSweepSize:
    """A config whose sweep arrays would pass scenario.MAX_SWEEP_BYTES is
    rejected as it is built. Nothing here allocates an array sized by the
    rejected values."""

    @pytest.mark.parametrize("n", [2**24, 2**40, 2**70])
    @pytest.mark.parametrize(
        "sizes, largest",
        [
            (lambda n: dict(N=n), "payload buffers"),
            (lambda n: dict(tau_c=n), "payload buffers"),
            (lambda n: dict(tau_p=n, tau_c=n + 1, K_I=0), "residual Gramians"),
            (lambda n: dict(K=n, tau_p=n + 2, tau_c=n + 3), "channel Gramians"),
            (lambda n: dict(K_I=n, tau_p=n + 5, tau_c=n + 6), "channel Gramians"),
        ],
        ids=["N", "tau_c", "tau_p", "K", "K_I"],
    )
    def test_a_config_the_sweep_cannot_hold_is_rejected_as_it_is_built(self, sizes, largest, n):
        message = rf"more than {2**30}; the largest are its {largest}, \d+ bytes"
        with pytest.raises(ValueError, match=message):
            SystemConfig(**sizes(n))

    @pytest.mark.parametrize("L", [2**63, 2**70])
    def test_an_ap_count_the_sweep_cannot_hold_is_rejected_before_its_ap_order(self, L):
        # L N enters every size as N does above; these L are ones that
        # range() refuses, so the AP order is never built at this size
        with pytest.raises(ValueError, match="the largest are its payload buffers"):
            SystemConfig(L=L)

    @settings(max_examples=200, deadline=None)
    @given(d=oversized_spec_dicts())
    @example(d={"cfg": {"L": 2**70}})
    @example(d={"cfg": {"tau_p": 2**70, "tau_c": 2**70 + 1, "K_I": 0}})
    @example(d={"cfg": {"area_side_m": 5e307}})
    @example(d={"cfg": {"oos_snr": 1e300}})
    @example(d={"cfg": {"ap_height_m": 1e200}})
    @example(d={"cfg": {"area_side_m": 1e160}})
    def test_an_oversized_spec_is_rejected_as_it_is_built(self, d):
        with pytest.raises(ValueError, match="bytes|too large for a float|dB over noise"):
            ExperimentSpec.from_dict(d)

    def test_the_bound_is_on_the_total(self, monkeypatch):
        cfg = SystemConfig()
        total = sum(scenario.check_sweep_size(cfg).values())
        monkeypatch.setattr(scenario, "MAX_SWEEP_BYTES", total)
        SystemConfig()
        monkeypatch.setattr(scenario, "MAX_SWEEP_BYTES", total - 1)
        with pytest.raises(ValueError, match=f"would take {total} bytes"):
            SystemConfig()

    def test_the_spec_checks_its_points_and_methods(self, monkeypatch):
        spec = default_spec()
        sizes = scenario.check_sweep_size(spec.cfg, len(spec.snr_grid_db), len(spec.methods))
        monkeypatch.setattr(scenario, "MAX_SWEEP_BYTES", sum(sizes.values()) - 1)
        SystemConfig()  # one point and one method fit
        with pytest.raises(ValueError, match="the largest are its augmented channels"):
            default_spec()

    def test_the_closed_forms_are_the_sweeps_arrays(self):
        spec = with_trials(replace(tiny_spec(), snr_grid_db=(-4.0, 0.0)), experiments.SPAN_BLOCKS)
        sizes = scenario.check_sweep_size(spec.cfg, len(spec.snr_grid_db), len(spec.methods))
        sweep = experiments._Sweep(spec)
        span = experiments._draw_pilot(sweep, range(experiments.SPAN_BLOCKS))
        assert sizes["pilot book"] == sweep.pilots.Phi.nbytes + sweep.pilots.Psi.nbytes
        assert sizes["span residuals"] == span.zpsi.nbytes
        assert sizes["span pilot estimates"] == span.est.nbytes
        terms = ("y", "hx", "gs", "noise")
        assert sizes["payload buffers"] == sum(sweep.payload[t].nbytes for t in terms)

    def test_no_size_in_use_comes_near_the_bound(self):
        # the benchmark's workloads, and README's commands and load-table loop
        specs = list(WORKLOADS.values())
        specs += [default_spec(cfg=SystemConfig(L=L)) for L in (2, 4, 6, 8, 16)]
        specs.append(default_spec(cfg=SystemConfig(K_I=3), snr_grid_db=(-6.0, -3.0, 0.0)))
        specs.append(overloaded_interferers_spec())
        for spec in specs:
            sizes = scenario.check_sweep_size(spec.cfg, len(spec.snr_grid_db), len(spec.methods))
            assert sum(sizes.values()) < scenario.MAX_SWEEP_BYTES / 100


class TestConfigEdges:
    @settings(max_examples=60, deadline=None)
    @given(field=one_accepted_float_field(), detector=st.sampled_from(DETECTORS))
    @example(field=("ap_height_m", 0.0), detector="distributed_zf")
    @example(field=("ue_margin_m", 0.0), detector="sequential_ls")
    @example(field=("noise_floor_dbw", 0.0), detector="centralized_zf")
    def test_an_accepted_float_field_runs_without_a_warning(self, field, detector):
        # a one-block sweep and the load table under the suite's
        # warnings-as-errors, where a numpy overflow raises
        name, value = field
        cfg = SystemConfig(trials=1, **{name: value})
        run_monte_carlo(default_spec(cfg=cfg, detector=detector))
        load_table(cfg, detector)

    @settings(max_examples=100, deadline=None)
    @given(spec=tiny_valid_specs())
    # a channel Gramian and a sequential LS information matrix that fail
    # on the ledger's block
    @example(
        spec=ExperimentSpec(
            cfg=SystemConfig(L=2, N=2, K=2, K_I=2, tau_p=5, tau_c=9, oos_snr=1e8, trials=2),
            detector="distributed_zf",
        )
    )
    @example(
        spec=ExperimentSpec(
            cfg=SystemConfig(L=1, N=2, K=2, K_I=1, tau_p=4, tau_c=8, alpha=1e12, oos_snr=1e8, trials=2),
            methods=("no_suppression", "seq_procrustes", "seq_gramian"),
            detector="sequential_ls",
        )
    )
    def test_sweep_and_load_table_never_raise(self, spec):
        cfg, detector = spec.cfg, spec.detector
        out = run_monte_carlo(spec)
        table = load_table(cfg, detector, spec.methods)
        points = [(r.method, r.snr_db) for r in out.rows] + [
            (f[0], f[1]) for f in out.diagnostics.failures if f[2] == -1
        ]
        assert Counter(points) == Counter((m, s) for m in spec.methods for s in spec.snr_grid_db)
        assert list(table) == list(spec.methods)
        for method, phases in table.items():
            if experiments.undefined_reason(method, cfg, detector):
                assert phases is None
            elif set(phases) == {"failed"}:
                assert isinstance(phases["failed"], str)
            else:
                assert phases == experiments.analytic_per_link(method, cfg, detector)

    @settings(max_examples=100, deadline=None)
    @given(spec=tiny_valid_specs(), span=st.integers(1, 3), chunk=st.integers(1, 3))
    def test_results_ignore_span_and_chunk_sizes(self, spec, span, chunk):
        # results.csv, the failure records and the degenerate-rotation
        # count are the same at the default sizes, per block and at a
        # drawn span and chunk size, anywhere in the valid config space
        record = sweep_record(spec)
        for sizes in ((1, 1), (span, chunk)):
            with mock.patch.multiple(experiments, SPAN_BLOCKS=sizes[0], CHUNK_BLOCKS=sizes[1]):
                assert sweep_record(spec) == record

    @settings(max_examples=25, deadline=None)
    @given(
        edge=st.sampled_from(["K_I=0", "L=1", "tau_p=K+K_I", "K_I>N"]),
        trials=st.integers(1, 9),
        detector=st.sampled_from(DETECTORS),
        seed=st.integers(0, 2**16),
    )
    def test_sweep_never_raises_and_ignores_chunking(self, edge, trials, detector, seed):
        cfg = dict(L=2, N=2, K=2, K_I=1, tau_p=6, trials=trials, seed=seed)
        methods = experiments.METHODS
        if edge == "K_I=0":
            cfg["K_I"] = 0
        elif edge == "L=1":
            cfg["L"] = 1
        elif edge == "tau_p=K+K_I":
            cfg["tau_p"] = cfg["K"] + cfg["K_I"]
        else:
            cfg.update(K_I=3, tau_p=5)
            methods = tuple(m for m in methods if m != "local_processing")
        spec = ExperimentSpec(
            cfg=make_cfg(**cfg), snr_grid_db=(-3.0, 6.0), methods=methods, detector=detector
        )
        spec = with_payload(spec, 8)
        chunked = sweep_record(spec)
        with mock.patch.multiple(experiments, SPAN_BLOCKS=1, CHUNK_BLOCKS=1):
            assert sweep_record(spec) == chunked
        csv_text, numerical_failures, _, failures = chunked
        rows = len(csv_text.splitlines()) - 1 if csv_text else 0
        no_survivors = [f for f in failures if f[2] == -1]
        assert rows + len(no_survivors) == len(methods) * len(spec.snr_grid_db)
        assert numerical_failures == len(failures) - len(no_survivors)


class TestEmitReport:
    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(MonteCarloOutcome([], RunDiagnostics(), {}), replace(tiny_spec(), out_dir=tmp_path))

    def test_csv_round_trip(self, tmp_path):
        spec = replace(tiny_spec(), out_dir=tmp_path)
        out = run_monte_carlo(spec)
        csv_path, json_path, _ = emit_report(out, spec)
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
        assert data["fronthaul"] == load_table(spec.cfg, spec.detector, spec.methods)
        assert data["fronthaul"]["seq_gramian"]["oos_forward"] == (spec.cfg.tau_p - spec.cfg.K) ** 2

    def test_a_failed_load_check_leaves_both_files(self, tmp_path, monkeypatch):
        spec = replace(tiny_spec(), out_dir=tmp_path)
        emit_report(run_monte_carlo(spec), spec)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert set(before) == {"results.csv", "results.json"}

        def broken(*args, **kwargs):
            raise ChainError("injected")

        monkeypatch.setattr(experiments, "load_table", broken)
        other = replace(spec, cfg=replace(spec.cfg, seed=1))  # other rows
        with pytest.raises(ChainError, match="injected"):
            emit_report(run_monte_carlo(other), other)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_failures_written_as_records(self, tmp_path, monkeypatch):
        spec = replace(tiny_spec(), out_dir=tmp_path)
        fail_procrustes_fold(monkeypatch, spec.cfg, block=1)
        out = run_monte_carlo(spec)
        _, json_path, _ = emit_report(out, spec)
        (record,) = json.loads(json_path.read_text())["diagnostics"]["failures"]
        assert record.pop("reason").startswith("injected")
        assert record == {"method": "seq_procrustes", "snr_db": 0.0, "block": 1}
        assert out.diagnostics.failures[0][:3] == ("seq_procrustes", 0.0, 1)


class TestLoadTable:
    def test_undefined_method_listed_not_raised(self):
        table = load_table(SystemConfig(K_I=5))
        assert table["local_processing"] is None
        assert table["seq_gramian"]["oos_forward"] == 2025

    @pytest.mark.parametrize("L, K_I, defined", [(1, 2, []), (2, 5, ["no_suppression"])])
    def test_singular_distributed_zf_listed_not_raised(self, L, K_I, defined):
        # L*N = 4 or 8 antennas leave the channel Gramian of K + K_I = 7 or
        # 10 augmented columns singular (K = 5 suffice for no_suppression)
        cfg = SystemConfig(L=L, K_I=K_I)
        table = load_table(cfg, "distributed_zf")
        assert [m for m, phases in table.items() if phases is not None] == defined
        reason = experiments.undefined_reason("seq_gramian", cfg, "distributed_zf")
        assert "L*N >= K + K_I" in reason
        assert load_table(cfg, "sequential_ls")["seq_gramian"] is not None

    def test_a_numerical_failure_is_recorded_and_a_load_mismatch_raised(self, monkeypatch):
        def fail(method, cfg, detector):
            if method == "seq_gramian":
                raise NumericalFailure("injected")
            return report(method, cfg, detector)

        report = experiments.load_report
        monkeypatch.setattr(experiments, "load_report", fail)
        table = load_table(SystemConfig())
        assert table["seq_gramian"] == {"failed": "injected"}
        assert table["seq_procrustes"]["oos_forward"] == 180

        def mismatch(method, cfg, detector):
            raise ChainError("injected")

        monkeypatch.setattr(experiments, "load_report", mismatch)
        with pytest.raises(ChainError):
            load_table(SystemConfig())

    def test_a_pass_that_sends_other_than_the_formula_raises(self, tmp_path, monkeypatch):
        spec = ExperimentSpec(cfg=make_cfg(trials=1), methods=("no_suppression",), detector="distributed_zf")
        outcome = run_monte_carlo(spec)
        cfg = SystemConfig()
        formula = experiments.analytic_per_link("no_suppression", cfg, "distributed_zf")
        measured = {**formula, "channel_gramian": formula["channel_gramian"] + 1}
        sent = uplink.hermitian_symbols  # the channel Gramian pass sends one real more
        monkeypatch.setattr(uplink, "hermitian_symbols", lambda M: sent(M) + 1)
        with pytest.raises(ChainError) as raised:
            experiments.load_report("no_suppression", cfg, "distributed_zf")
        for part in (f"measured per-link loads {measured}", f"formula {formula}", "no_suppression", "distributed_zf"):
            assert part in str(raised.value)
        with pytest.raises(ChainError, match="differ from formula"):
            load_table(cfg, "distributed_zf", ("no_suppression",))
        out = tmp_path / "out"
        with pytest.raises(ChainError, match="differ from formula"):
            emit_report(outcome, replace(spec, out_dir=out))
        assert not out.exists()

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
                "--override", "cfg.tau_p=10",
                "--override", "cfg.tau_c=20",
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

    @pytest.mark.parametrize("override", ["detector=sequential_ls", "detector=bogus", "methods=5"])
    def test_report_rejects_spec_level_overrides(self, tmp_path, capsys, override):
        # report reads only the system config; the detector is --detector
        assert main(["report", "--override", override, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert len(err.splitlines()) == 1 and "--detector" in err and "Traceback" not in err
        assert captured.out == "" and not any(tmp_path.iterdir())

    def test_report_takes_the_spec_files_detector(self, tmp_path, capsys):
        # as `oossim run` would; an explicit --detector still wins
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(default_spec(detector="sequential_ls").to_dict()))
        assert main(["report", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "seq_ls_covariance" in out and "uplink_seq_ls" in out
        assert "channel_gramian" not in out and "uplink_combine" not in out
        assert main(["report", "--config", str(path), "--detector", "distributed_zf"]) == 0
        out = capsys.readouterr().out
        assert "channel_gramian" in out and "seq_ls_covariance" not in out
        path.write_text(json.dumps({**default_spec().to_dict(), "detector": "bogus"}))
        assert main(["report", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown detector 'bogus'" in captured.err

    def test_strict_fails_on_fold_failure(self, tmp_path, monkeypatch):
        fail_procrustes_fold(monkeypatch, tiny_spec().cfg)
        cfg_path = tmp_path / "spec.json"
        cfg_path.write_text(json.dumps(tiny_spec().to_dict()))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--strict"])
        assert rc == 1
        data = json.loads((tmp_path / "o" / "results.json").read_text())
        assert data["diagnostics"]["numerical_failures"] == 1

    def test_a_failed_ledger_block_is_recorded_not_raised(self, tmp_path, capsys):
        # at oos_snr = 1e8 the channel Gramian is singular on most blocks,
        # the unscored block that each ledger runs among them
        reason = "channel Gramian is numerically singular"
        run = ["run", "--override", "cfg.oos_snr=1e8", "--override", "detector=distributed_zf",
               "--trials", "4", "--out", str(tmp_path)]
        assert main(run) == 0
        fronthaul = json.loads((tmp_path / "results.json").read_text())["fronthaul"]
        failed = [m for m, phases in fronthaul.items() if phases == {"failed": reason}]
        assert failed and fronthaul["centralized_genie"] == {"channel_gramian": 49, "uplink_combine": 14}
        err = capsys.readouterr().err
        assert all(f"fronthaul ledger of {m} failed: {reason}" in err for m in failed)
        assert main([*run, "--strict"]) == 1
        capsys.readouterr()
        assert main(["report", "--override", "cfg.oos_snr=1e8", "--detector", "distributed_zf"]) == 0
        assert f"(ledger block failed: {reason})" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "override", ["cfg.K_I=0", "cfg.K_I=5", "cfg.L=6", "cfg.L=1", "cfg.rho=2.0"]
    )
    def test_report_on_edge_configs(self, capsys, override):
        assert main(["report", "--override", override]) == 0
        out = capsys.readouterr().out
        assert "seq_gramian" in out
        assert ("(undefined for this config)" in out) == (override in ("cfg.K_I=5", "cfg.L=1"))

    def test_run_without_surviving_rows_exits_1(self, tmp_path, capsys):
        # one AP of 4 antennas cannot zero-force 5 UEs: every block fails
        rc = main(
            ["run", "--out", str(tmp_path), "--trials", "2", "--override", "cfg.L=1",
             "--override", "detector=distributed_zf"]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "60 numerical failures" in err
        assert not (tmp_path / "results.csv").exists()
        assert not (tmp_path / "results.json").exists()

    def test_run_rejects_an_undefined_method_before_running(self, tmp_path, capsys):
        rc = main(["run", "--out", str(tmp_path), "--override", "cfg.K_I=5"])
        assert rc == 2
        assert "K_I <= N" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_run_rejects_duplicate_methods_before_running(self, tmp_path, capsys):
        rc = main(
            ["run", "--out", str(tmp_path), "--override", 'methods=["seq_gramian","seq_gramian"]']
        )
        assert rc == 2
        assert "seq_gramian" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_run_with_an_overridden_L(self, tmp_path):
        rc = main(
            ["run", "--out", str(tmp_path), "--trials", "2", "--override", "cfg.L=6",
             "--override", "snr_grid_db=[0.0]", "--override", "cfg.tau_c=60"]
        )
        assert rc == 0
        data = json.loads((tmp_path / "results.json").read_text())
        assert data["spec"]["cfg"]["L"] == 6

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--override", "snr_grid_db=[NaN]"],
            ["run", "--override", "snr_grid_db=[-Infinity]"],
            ["run", "--override", "snr_grid_db=[4000.0]"],
            ["run", "--override", "cfg.alpha=NaN"],
            ["report", "--override", "cfg.rho=NaN"],
            ["report", "--override", "cfg.oos_snr=Infinity"],
        ],
    )
    def test_non_finite_powers_rejected_in_one_line(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "finite" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_noise_floor_beyond_the_gain_ceiling_rejected_in_one_line(
        self, tmp_path, capsys, command
    ):
        argv = [command, "--override", "cfg.noise_floor_dbw=-4000", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "noise_floor_dbw" in err
        assert not any(tmp_path.iterdir())

    def test_zero_nearest_distance_rejected_in_one_line(self, tmp_path, capsys):
        zero = ["--override", "cfg.ap_height_m=0", "--override", "cfg.ue_margin_m=0"]
        floor = ["--override", "cfg.noise_floor_dbw=-3200", "--trials", "4"]
        assert main(["run", *zero, *floor, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "ap_height_m and ue_margin_m" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--override", "cfg.rho=abc"],
            ["report", "--override", "cfg.L=two"],
            ["report", "--override", "cfg.L=2.5"],
            ["report", "--override", "cfg.alpha=[1]"],
            ["report", "--override", "cfg.trials=true"],
            ["run", "--override", "payload_symbols_per_block=10"],
            ["run", "--override", "snr_grid_db=5"],
            ["run", "--override", "methods=5"],
            ["run", "--override", "cfg=5"],
            ["run", "--override", "snr_grid=[0]"],
            ["run", "--override", 'method=["seq_gramian"]'],
            ["run", "--override", "notanassignment"],
            ["report", "--override", 'method=["seq_gramian"]'],
            ["report", "--override", "detectr=x"],
            ["run", "--override", "cfg.rho=5"],
            ["run", "--override", "cfg.ue_margin_m=250"],
            ["report", "--override", f"cfg.alpha={2**1100}"],
            ["run", "--override", f"snr_grid_db=[{2**1100}]"],
            ["run", "--override", "cfg.L=" + "[" * 100000],
            ["report", "--override", "cfg.L=" + "[" * 100000],
            ["run", "--override", "cfg.rho=1" + "0" * 5000],
            ["report", "--override", "cfg.rho=1" + "0" * 5000],
            ["run", "--trials", "2", "--override", "cfg.area_side_m=5e307"],
            ["report", "--override", "cfg.area_side_m=1e308"],
            ["run", "--trials", "2", "--override", "cfg.oos_snr=1e300"],
            ["report", "--override", "cfg.oos_snr=1e300"],
            ["run", "--trials", "2", "--override", "cfg.ap_height_m=1e200"],
            ["report", "--override", "cfg.ap_height_m=1e200"],
            ["run", "--trials", "2", "--override", "cfg.area_side_m=1e160"],
            ["report", "--override", "cfg.area_side_m=1e160"],
        ],
    )
    def test_malformed_overrides_rejected_in_one_line(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip()
        field = argv[-1].partition("=")[0].removeprefix("cfg.")
        assert len(err.splitlines()) == 1 and field in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--override", f"cfg.L={2**70}"], "the largest are its payload buffers"),
            (["report", "--override", f"cfg.L={2**70}"], "the largest are its payload buffers"),
            (
                ["run", "--override", f"cfg.tau_p={2**70}", "--override", f"cfg.tau_c={2**70 + 1}",
                 "--override", "cfg.K_I=0"],
                "the largest are its residual Gramians",
            ),
            (["run", "--override", "snr_grid_db=[0,0]"], "SNR points listed more than once: [0]"),
        ],
    )
    def test_an_oversized_config_or_a_repeated_point_rejected_in_one_line(
        self, tmp_path, capsys, argv, message
    ):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and message in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "content", ["[1, 2]", '{"cfg": 5}', "{", None, pytest.param("[" * 100000, id="deep")]
    )
    def test_malformed_config_file_rejected_in_one_line(self, tmp_path, capsys, content):
        path = tmp_path / "spec.json"
        if content is not None:
            path.write_text(content)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("override, payload", [("cfg.tau_c=100", 50), ("cfg.tau_p=60", 140)])
    def test_run_with_overridden_block_lengths(self, tmp_path, override, payload):
        # a block carries tau_c - tau_p payload symbols
        rc = main(
            ["run", "--out", str(tmp_path), "--trials", "1", "--override", override,
             "--override", "snr_grid_db=[0.0]", "--override", 'methods=["no_suppression"]']
        )
        assert rc == 0
        (row,) = json.loads((tmp_path / "results.json").read_text())["rows"]
        assert row["bit_count"] == 2 * SystemConfig().K * payload

    def test_unwritable_out_rejected_before_running(self, tmp_path, capsys, monkeypatch):
        calls = Counter()
        count_calls(monkeypatch, cli, "run_monte_carlo", calls)
        occupied = tmp_path / "file"
        occupied.write_text("")
        for out in (occupied, occupied / "sub"):
            assert main(["run", "--out", str(out), "--trials", "1"]) == 2
            err = capsys.readouterr().err.strip()
            assert len(err.splitlines()) == 1 and err.startswith("oossim run:")
        assert calls == {}

    def test_unwritable_report_out_rejected_before_the_table(self, tmp_path, capsys, monkeypatch):
        calls = Counter()
        count_calls(monkeypatch, cli, "load_table", calls)
        occupied = tmp_path / "file"
        occupied.write_text("")
        for out in (occupied, occupied / "sub"):
            assert main(["report", "--out", str(out)]) == 2
            captured = capsys.readouterr()
            err = captured.err.strip()
            assert len(err.splitlines()) == 1 and err.startswith("oossim report:")
            assert captured.out == ""
        assert calls == {}

    def test_seed_propagates_to_rows(self, tmp_path):
        rc = main(
            ["run", "--out", str(tmp_path), "--trials", "2", "--seed", "123",
             "--override", "snr_grid_db=[0.0]",
             "--override", "methods=[\"no_suppression\"]"]
        )
        assert rc == 0
        data = json.loads((tmp_path / "results.json").read_text())
        assert all(r["seed"] == 123 for r in data["rows"])


class TestImport:
    def test_no_scipy_on_the_run_path(self):
        # scipy is a test-only dependency: importing the package, one sweep
        # and a load report must run without it
        script = textwrap.dedent(
            """
            import sys
            import oossim, oossim.cli
            from dataclasses import replace
            from oossim.experiments import default_spec, load_report, run_monte_carlo
            spec = default_spec()
            run_monte_carlo(replace(spec, cfg=replace(spec.cfg, trials=1)))
            load_report("seq_gramian", spec.cfg)
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """
        )
        src = str(Path(oossim.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "[]"
