import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from conftest import crandn, make_cfg, unit_geometry
from oossim.fronthaul import Chain
from oossim.numerics import DegeneracyError, herm
from oossim.oos_estimation import (
    ChainDiagnostics,
    centralized_oos_oracle,
    estimate_oos_channels,
    local_svd_estimate,
    procrustes_rotation,
    rotate_and_average_step,
    run_gramian_method,
    run_sequential_procrustes,
)
from oossim.pilot_phase import (
    compute_projected_residual,
    simulate_pilot_rx,
)
from oossim.scenario import build_pilot_book, draw_block


def random_unitary(rng, n):
    Q, _ = np.linalg.qr(crandn(rng, n, n))
    return Q


def orthonormal_columns(rng, n, k):
    Q, _ = np.linalg.qr(crandn(rng, n, k))
    return Q


def noise_free_residuals(cfg, seed=0):
    block = draw_block(cfg, unit_geometry(cfg), np.random.default_rng(seed))
    block.pilot_noise[:] = 0
    pilots = build_pilot_book(cfg)
    obs = simulate_pilot_rx(block, pilots, cfg)
    zpsi = compute_projected_residual(obs, pilots)
    sbar_true = herm(pilots.Psi) @ block.S
    return block, zpsi, sbar_true


class TestLocalSvdEstimate:
    def test_exact_low_rank_factorization(self, rng):
        sbar = orthonormal_columns(rng, 8, 2)
        G = crandn(rng, 4, 2)
        zpsi = G @ herm(sbar)
        sbar_hat, g_hat = local_svd_estimate(zpsi, 2)
        assert np.linalg.norm(g_hat @ herm(sbar_hat) - zpsi) < 1e-10

    def test_zero_residual(self):
        sbar_hat, g_hat = local_svd_estimate(np.zeros((4, 8)), 2)
        assert np.allclose(g_hat, 0.0)
        assert sbar_hat.shape == (8, 2)

    def test_eckart_young_tail(self, rng):
        zpsi = crandn(rng, 4, 9)
        sbar_hat, g_hat = local_svd_estimate(zpsi, 2)
        err = np.linalg.norm(zpsi - g_hat @ herm(sbar_hat))
        s = np.linalg.svd(zpsi, compute_uv=False)
        assert err == pytest.approx(np.sqrt(np.sum(s[2:] ** 2)), abs=1e-10)

    def test_rank_bound_enforced(self, rng):
        with pytest.raises(ValueError):
            local_svd_estimate(crandn(rng, 3, 8), 4)


class TestProcrustesRotation:
    def test_aligned_input_gives_identity(self, rng):
        S = crandn(rng, 8, 3)
        Q = procrustes_rotation(S, S)
        assert np.linalg.norm(Q - np.eye(3)) < 1e-10

    def test_recovers_constructed_rotation(self, rng):
        S_prev = crandn(rng, 9, 3)
        Q0 = random_unitary(rng, 3)
        S_local = S_prev @ Q0
        Q = procrustes_rotation(S_prev, S_local)
        assert np.linalg.norm(Q - Q0) < 1e-9
        assert np.linalg.norm(S_local @ herm(Q) - S_prev) < 1e-9

    def test_single_interferer_reduces_to_phase(self, rng):
        theta = 1.234
        S_prev = crandn(rng, 6, 1)
        S_local = np.exp(1j * theta) * S_prev
        Q = procrustes_rotation(S_prev, S_local)
        assert Q.shape == (1, 1)
        assert Q[0, 0] == pytest.approx(np.exp(1j * theta), abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_always_unitary(self, k, seed):
        rng = np.random.default_rng(seed)
        Q = procrustes_rotation(crandn(rng, 8, k), crandn(rng, 8, k))
        assert np.linalg.norm(herm(Q) @ Q - np.eye(k)) < 1e-10

    def test_beats_random_unitaries(self, rng):
        S_prev = crandn(rng, 10, 3)
        S_local = crandn(rng, 10, 3)
        Q = procrustes_rotation(S_prev, S_local)
        best = np.linalg.norm(S_local @ herm(Q) - S_prev)
        for _ in range(100):
            R = random_unitary(rng, 3)
            assert best <= np.linalg.norm(S_local @ herm(R) - S_prev) + 1e-12

    def test_degenerate_cross_gramian_counted(self):
        diag = ChainDiagnostics()
        S_local = np.ones((6, 2), dtype=complex)  # rank one
        S_prev = np.ones((6, 2), dtype=complex)
        Q = procrustes_rotation(S_prev, S_local, diag)
        assert diag.degenerate_rotations == 1
        assert np.linalg.norm(herm(Q) @ Q - np.eye(2)) < 1e-10

    def test_degenerate_counted_per_stacked_block(self, rng):
        diag = ChainDiagnostics()
        rank_one = np.ones((6, 2), dtype=complex)
        S = np.stack([rank_one, crandn(rng, 6, 2), rank_one])
        procrustes_rotation(S, S.copy(), diag)
        assert diag.degenerate_rotations == 2


class TestRotateAndAverage:
    def test_fixed_point(self, rng):
        S = crandn(rng, 8, 2)
        assert np.allclose(rotate_and_average_step(S, S), S, atol=1e-10)

    def test_rotated_copy_averages_back(self, rng):
        S = crandn(rng, 8, 2)
        rotated = S @ random_unitary(rng, 2)
        assert np.allclose(rotate_and_average_step(S, rotated), S, atol=1e-9)

    def test_zero_previous_estimate(self, rng):
        diag = ChainDiagnostics()
        S_local = crandn(rng, 8, 2)
        out = rotate_and_average_step(np.zeros((8, 2), dtype=complex), S_local, diag)
        assert diag.degenerate_rotations == 1
        # output is half the (arbitrarily but deterministically rotated) local estimate
        assert np.linalg.norm(out) == pytest.approx(0.5 * np.linalg.norm(S_local), rel=1e-12)


class TestSequentialProcrustes:
    def test_single_ap_equals_local(self):
        cfg = make_cfg(L=1, ap_order=(1,))
        _, zpsi, _ = noise_free_residuals(cfg, seed=2)
        chain = Chain.for_config(cfg)
        sbar = run_sequential_procrustes(zpsi, cfg, chain)
        local, _ = local_svd_estimate(zpsi[0], cfg.K_I)
        assert np.allclose(sbar, local, atol=1e-12)

    def test_noise_free_recovers_subspace(self):
        cfg = make_cfg(L=4, ap_order=(4, 3, 2, 1))
        _, zpsi, sbar_true = noise_free_residuals(cfg, seed=3)
        chain = Chain.for_config(cfg)
        sbar = run_sequential_procrustes(zpsi, cfg, chain)
        assert np.max(subspace_angles(sbar, sbar_true)) < 1e-8

    def test_reference_per_link_load(self):
        cfg = make_cfg(L=4, ap_order=(4, 3, 2, 1), K=5, K_I=2, tau_p=50, tau_c=200)
        _, zpsi, _ = noise_free_residuals(cfg, seed=1)
        chain = Chain.for_config(cfg)
        run_sequential_procrustes(zpsi, cfg, chain)
        assert chain.log.per_link_symbols("oos_forward") == 180
        assert chain.log.per_link_symbols("oos_broadcast") == 180
        # forward pass: one message per link, L links total
        assert len(chain.log.link_totals("oos_forward")) == cfg.L

    def test_no_interferers_short_circuit(self):
        cfg = make_cfg(K_I=0)
        zpsi = np.zeros((cfg.L, cfg.N, cfg.tau_p - cfg.K))
        chain = Chain.for_config(cfg)
        sbar = run_sequential_procrustes(zpsi, cfg, chain)
        assert sbar.shape == (cfg.tau_p - cfg.K, 0)
        assert chain.log.records == []


class TestGramianMethod:
    def test_accumulation_matches_central_gramian(self):
        cfg = make_cfg()
        _, zpsi, _ = noise_free_residuals(cfg, seed=8)
        stacked = zpsi.reshape(cfg.L * cfg.N, -1)
        central = herm(stacked) @ stacked
        acc = np.zeros_like(central)
        for l in range(cfg.L):
            acc += herm(zpsi[l]) @ zpsi[l]
        assert np.linalg.norm(acc - central) < 1e-10 * np.linalg.norm(central)

    def test_single_ap_matches_local_svd_subspace(self):
        cfg = make_cfg(L=1, ap_order=(1,))
        block = draw_block(cfg, unit_geometry(cfg), np.random.default_rng(14))
        pilots = build_pilot_book(cfg)
        obs = simulate_pilot_rx(block, pilots, cfg)
        zpsi = compute_projected_residual(obs, pilots)
        chain = Chain.for_config(cfg)
        sbar = run_gramian_method(zpsi, cfg, chain)
        local, _ = local_svd_estimate(zpsi[0], cfg.K_I)
        assert np.max(subspace_angles(sbar, local)) < 1e-8

    def test_reference_per_link_load(self):
        cfg = make_cfg(L=4, ap_order=(4, 3, 2, 1), K=5, K_I=2, tau_p=50, tau_c=200)
        _, zpsi, _ = noise_free_residuals(cfg, seed=1)
        chain = Chain.for_config(cfg)
        run_gramian_method(zpsi, cfg, chain)
        assert chain.log.per_link_symbols("oos_forward") == 2025


class TestChannelRecovery:
    def test_exact_when_estimate_is_truth(self):
        cfg = make_cfg()
        block, zpsi, sbar_true = noise_free_residuals(cfg, seed=10)
        ghat = estimate_oos_channels(zpsi, sbar_true)
        assert np.allclose(ghat, block.G, atol=1e-9)

    def test_rotation_cancels_in_product(self, rng):
        cfg = make_cfg()
        _, zpsi, sbar_true = noise_free_residuals(cfg, seed=11)
        Q0 = random_unitary(rng, cfg.K_I)
        rotated = sbar_true @ Q0
        g_plain = estimate_oos_channels(zpsi, sbar_true)
        g_rot = estimate_oos_channels(zpsi, rotated)
        assert np.allclose(g_rot, g_plain @ Q0, atol=1e-9)
        assert np.allclose(
            g_rot @ herm(rotated), g_plain @ herm(sbar_true), atol=1e-9
        )

    def test_orthonormal_estimate_reduces_to_projection(self, rng):
        zpsi = crandn(rng, 3, 5, 8)
        sbar = orthonormal_columns(rng, 8, 2)
        assert np.allclose(
            estimate_oos_channels(zpsi, sbar), zpsi @ sbar, atol=1e-10
        )

    def test_rank_deficient_estimate_rejected(self):
        zpsi = np.zeros((2, 3, 6), dtype=complex)
        bad = np.ones((6, 2), dtype=complex)
        with pytest.raises(DegeneracyError):
            estimate_oos_channels(zpsi, bad)


class TestCentralizedOracle:
    def test_noise_free_exact_product(self):
        cfg = make_cfg()
        block, zpsi, sbar_true = noise_free_residuals(cfg, seed=20)
        sbar, ghat = centralized_oos_oracle(zpsi, cfg.K_I)
        stacked_true = block.G.reshape(-1, cfg.K_I) @ herm(sbar_true)
        stacked_est = ghat.reshape(-1, cfg.K_I) @ herm(sbar)
        assert np.allclose(stacked_est, stacked_true, atol=1e-9)

    def test_single_ap_equals_local(self, rng):
        zpsi = crandn(rng, 1, 4, 9)
        sbar_c, g_c = centralized_oos_oracle(zpsi, 2)
        sbar_l, g_l = local_svd_estimate(zpsi[0], 2)
        assert np.allclose(sbar_c, sbar_l, atol=1e-12)
        assert np.allclose(g_c[0], g_l, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gramian_equivalence(self, seed):
        # with noise: distributed Gramian pass spans the centralized solution
        cfg = make_cfg()
        block = draw_block(cfg, unit_geometry(cfg), np.random.default_rng(seed))
        pilots = build_pilot_book(cfg)
        obs = simulate_pilot_rx(block, pilots, cfg)
        zpsi = compute_projected_residual(obs, pilots)
        chain = Chain.for_config(cfg)
        sbar_g = run_gramian_method(zpsi, cfg, chain)
        sbar_c, _ = centralized_oos_oracle(zpsi, cfg.K_I)
        assert np.max(subspace_angles(sbar_g, sbar_c)) < 1e-8


class TestStackedBlocks:
    @pytest.mark.parametrize("K_I", [2, 5])  # 5 > N: local bases from the null space
    def test_chain_estimators_on_a_stack_match_each_block(self, K_I):
        cfg = make_cfg(K_I=K_I, tau_p=12, tau_c=40)
        zpsi = np.stack([noise_free_residuals(cfg, seed)[1] for seed in range(3)])
        zpsi += 0.1 * crandn(np.random.default_rng(9), *zpsi.shape)

        def estimates(z):
            diag = ChainDiagnostics()
            sbar_p = run_sequential_procrustes(z, cfg, Chain.for_config(cfg), diag)
            sbar_g = run_gramian_method(z, cfg, Chain.for_config(cfg))
            return sbar_p, sbar_g, estimate_oos_channels(z, sbar_g), diag.degenerate_rotations

        *stacked, degenerate = estimates(zpsi)
        alone = [estimates(z) for z in zpsi]
        for b, (*want, _) in enumerate(alone):
            for got, one in zip(stacked, want, strict=True):
                assert np.array_equal(got[b], one)
        assert degenerate == sum(a[-1] for a in alone)

    def test_rank_check_holds_per_block(self, rng):
        cfg = make_cfg()
        zpsi = crandn(rng, 2, cfg.L, cfg.N, cfg.tau_p - cfg.K)
        sbar = np.stack([orthonormal_columns(rng, cfg.tau_p - cfg.K, 2)] * 2)
        estimate_oos_channels(zpsi, sbar)
        sbar[1, :, 1] = sbar[1, :, 0]
        with pytest.raises(DegeneracyError):
            estimate_oos_channels(zpsi, sbar)
