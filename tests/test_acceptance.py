"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single `ACCEPTANCE <n> ... PASS` line (visible with
pytest -s or in captured output) including its measured runtime, which is
also asserted against the criterion's budget.
"""

import time

import numpy as np
from scipy.linalg import subspace_angles

from conftest import crandn, make_cfg, unit_geometry
from oossim import default_spec, run_monte_carlo
from oossim.downlink import compute_partial_precoded, simulate_downlink
from oossim.fronthaul import Chain, load_report
from oossim.numerics import herm
from oossim.oos_estimation import (
    centralized_oos_oracle,
    estimate_oos_channels,
    procrustes_rotation,
    run_gramian_method,
    run_sequential_procrustes,
)
from oossim.pilot_phase import (
    compute_projected_residual,
    ls_channel_estimate,
    simulate_pilot_rx,
)
from oossim.scenario import SystemConfig, build_pilot_book, draw_block
from oossim.uplink import (
    accumulate_channel_gramian,
    count_bit_errors,
    detect_centralized,
    detect_distributed_zf,
    detect_sequential_ls,
    draw_qpsk,
    simulate_uplink_rx,
)

REFERENCE = dict(L=4, N=4, K=5, K_I=2, tau_p=50, tau_c=200, ap_order=(4, 3, 2, 1))


def reference_cfg(**over):
    base = dict(REFERENCE)
    base.update(over)
    return make_cfg(**base)


def pipeline(cfg, seed, noiseless=False):
    block = draw_block(cfg, unit_geometry(cfg), np.random.default_rng(seed))
    if noiseless:
        block.pilot_noise[:] = 0
    pilots = build_pilot_book(cfg)
    obs = simulate_pilot_rx(block, pilots, cfg)
    est = ls_channel_estimate(obs, pilots, cfg)
    zpsi = compute_projected_residual(obs, pilots)
    return block, pilots, est, zpsi


def report(n, label, t0, extra=""):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {n} ({label}): PASS [{elapsed:.2f}s]{extra}")
    return elapsed


def test_criterion_1_gramian_centralized_equivalence():
    t0 = time.perf_counter()
    cfg = reference_cfg()
    worst_angle = 0.0
    for seed in range(100):
        block, _, est, zpsi = pipeline(cfg, seed)
        chain = Chain.for_config(cfg)
        sbar_g = run_gramian_method(zpsi, cfg, chain)
        sbar_c, _ = centralized_oos_oracle(zpsi, cfg.K_I)
        worst_angle = max(worst_angle, float(np.max(subspace_angles(sbar_g, sbar_c))))
        assert worst_angle < 1e-8
        batch = simulate_uplink_rx(block, cfg, np.random.default_rng(10_000 + seed), 50)
        decisions = []
        for sbar in (sbar_g, sbar_c):
            aug = np.concatenate([est, estimate_oos_channels(zpsi, sbar)], axis=2)
            xhat = detect_centralized(batch, aug)
            decisions.append(count_bit_errors(xhat[: cfg.K], batch.x))
        assert np.array_equal(decisions[0], decisions[1])
    elapsed = report(1, "Gramian == centralized", t0, f" worst angle {worst_angle:.2e}")
    assert elapsed < 10.0


def test_criterion_2_distributed_zf_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        cfg = make_cfg(L=4, N=4, K=5, K_I=2, tau_p=50, tau_c=100, ap_order=(4, 3, 2, 1))
        aug = crandn(rng, cfg.L, cfg.N, cfg.K + cfg.K_I)
        block = draw_block(cfg, unit_geometry(cfg), rng)
        batch = simulate_uplink_rx(block, cfg, rng, 4)
        chain = Chain.for_config(cfg)
        gamma = accumulate_channel_gramian(aug, chain)
        dist = detect_distributed_zf(batch, aug, gamma, chain)
        cent = detect_centralized(batch, aug)
        rel = np.linalg.norm(dist - cent) / np.linalg.norm(cent)
        worst = max(worst, float(rel))
        assert rel <= 1e-9
    elapsed = report(2, "distributed ZF == centralized ZF", t0, f" worst {worst:.2e}")
    assert elapsed < 10.0


def test_criterion_3_sequential_ls_limit():
    t0 = time.perf_counter()
    for seed in range(20):
        gaps = []
        for alpha in (1e2, 1e4, 1e6, 1e8):
            cfg = reference_cfg(alpha=alpha)
            block = draw_block(cfg, unit_geometry(cfg), np.random.default_rng(seed))
            aug = np.concatenate([block.H, block.G], axis=2)
            batch = simulate_uplink_rx(
                block, cfg, np.random.default_rng(seed + 1), 10, include_noise=False
            )
            state = detect_sequential_ls(batch, aug, cfg, Chain.for_config(cfg))
            cent = detect_centralized(batch, aug)
            gaps.append(float(np.linalg.norm(state.xhat - cent) / np.linalg.norm(cent)))
        assert gaps[-1] < 1e-4
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
    elapsed = report(3, "sequential LS -> centralized LS as alpha grows", t0)
    assert elapsed < 10.0


def test_criterion_4_noise_free_exact_recovery():
    t0 = time.perf_counter()
    cfg = reference_cfg()
    for seed in range(10):
        block, pilots, est, zpsi = pipeline(cfg, seed, noiseless=True)
        sbar_true = herm(pilots.Psi) @ block.S
        product_true = block.G.reshape(-1, cfg.K_I) @ herm(sbar_true)
        for runner in (run_sequential_procrustes, run_gramian_method):
            sbar = runner(zpsi, cfg, Chain.for_config(cfg))
            assert np.max(subspace_angles(sbar, sbar_true)) < 1e-8
            ghat = estimate_oos_channels(zpsi, sbar)
            product = ghat.reshape(-1, cfg.K_I) @ herm(sbar)
            assert np.linalg.norm(product - product_true) <= 1e-9 * np.linalg.norm(
                product_true
            )
            batch = simulate_uplink_rx(
                block, cfg, np.random.default_rng(seed), 50, include_noise=False
            )
            aug = np.concatenate([est, ghat], axis=2)
            xhat = detect_centralized(batch, aug)
            assert int(count_bit_errors(xhat[: cfg.K], batch.x).sum()) == 0
    elapsed = report(4, "noise-free exact recovery", t0)
    assert elapsed < 5.0


def test_criterion_5_fronthaul_loads():
    t0 = time.perf_counter()
    cfg = SystemConfig()  # reference geometry and powers
    assert load_report("seq_procrustes", cfg).per_link_symbols("oos_forward") == 180
    assert load_report("seq_gramian", cfg).per_link_symbols("oos_forward") == 2025
    for L in (2, 4, 8, 16):
        cfg_l = SystemConfig(L=L, ap_order=tuple(range(L, 0, -1)))
        for method, expected in (("seq_procrustes", 180), ("seq_gramian", 2025)):
            rep = load_report(method, cfg_l)
            assert rep.per_link_symbols("oos_forward") == expected
            assert len(rep.link_totals("oos_forward")) == L
    elapsed = report(5, "fronthaul loads 180 / 2025, L-invariant", t0)
    assert elapsed < 5.0


def test_criterion_6_ber_ordering():
    t0 = time.perf_counter()
    spec = default_spec()
    out = run_monte_carlo(spec)
    assert out.diagnostics.numerical_failures == 0
    assert len(out.rows) == len(spec.methods) * len(spec.snr_grid_db) == 30
    rows = {(r.method, r.snr_db): r for r in out.rows}
    for snr in spec.snr_grid_db:
        r = {m: rows[(m, snr)] for m in spec.methods}
        assert r["no_suppression"].bit_count >= 2 * 10**5
        # strict orderings, separated at 95% confidence
        assert r["no_suppression"].ci_low > r["local_processing"].ci_high, snr
        assert r["local_processing"].ci_low > r["seq_procrustes"].ci_high, snr
        # non-strict orderings: no significant reversal
        assert not r["seq_gramian"].ci_low > r["seq_procrustes"].ci_high, snr
        assert not r["centralized_genie"].ci_low > r["seq_gramian"].ci_high, snr
    r0 = {m: rows[(m, 0.0)] for m in spec.methods}
    ratio = r0["no_suppression"].ber / r0["centralized_genie"].ber
    assert ratio >= 10.0
    elapsed = report(6, "BER ordering over the SNR grid", t0, f" 0 dB ratio {ratio:.0f}x")
    assert elapsed < 600.0


def test_criterion_7_downlink_nulling():
    t0 = time.perf_counter()
    cfg = reference_cfg(tau_c=200)
    # perfect CSI: exact nulling without noise
    block = draw_block(cfg, unit_geometry(cfg), np.random.default_rng(0))
    aug = np.concatenate([block.H, block.G], axis=2)
    gamma = accumulate_channel_gramian(aug, Chain.for_config(cfg))
    x = draw_qpsk(np.random.default_rng(1), cfg.K, 20)
    q = compute_partial_precoded(x, gamma)
    result = simulate_downlink(block, aug, q, cfg, include_noise=False)
    assert np.linalg.norm(result.oos_rx) < 1e-10
    assert np.allclose(result.ue_rx, x, atol=1e-10)

    # estimated CSI at pilot SNR 10 dB (all pilot-phase transmitters)
    cfg10 = reference_cfg(rho=10.0, oos_snr=10.0)
    leak_null, leak_blind = 0.0, 0.0
    rng = np.random.default_rng(2)
    for seed in range(20):
        block, pilots, est, zpsi = pipeline(cfg10, seed)
        sbar = run_gramian_method(zpsi, cfg10, Chain.for_config(cfg10))
        ghat = estimate_oos_channels(zpsi, sbar)
        x = draw_qpsk(rng, cfg10.K, 20)
        aug = np.concatenate([est, ghat], axis=2)
        gamma = accumulate_channel_gramian(aug, Chain.for_config(cfg10))
        q = compute_partial_precoded(x, gamma)
        leak_null += float(
            np.mean(np.abs(simulate_downlink(block, aug, q, cfg10, include_noise=False).oos_rx) ** 2)
        )
        gamma_b = accumulate_channel_gramian(est, Chain.for_config(cfg10))
        q_b = compute_partial_precoded(x, gamma_b)
        leak_blind += float(
            np.mean(np.abs(simulate_downlink(block, est, q_b, cfg10, include_noise=False).oos_rx) ** 2)
        )
    ratio_db = 10 * np.log10(leak_blind / leak_null)
    assert ratio_db >= 20.0
    elapsed = report(7, "downlink nulling", t0, f" estimated-CSI margin {ratio_db:.1f} dB")
    assert elapsed < 60.0


def test_criterion_8_procrustes_optimality():
    t0 = time.perf_counter()
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        k = 1 + seed % 3
        S_prev = crandn(rng, 12, k)
        S_local = crandn(rng, 12, k)
        Q = procrustes_rotation(S_prev, S_local)
        best = np.linalg.norm(S_local @ herm(Q) - S_prev)
        R, _ = np.linalg.qr(crandn(rng, 100, k, k))
        resid = np.linalg.norm(S_local[None] @ herm(R) - S_prev[None], axis=(1, 2))
        assert best <= resid.min() + 1e-12
    elapsed = report(8, "Procrustes rotation optimality", t0)
    assert elapsed < 30.0
