import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import crandn, make_cfg, unit_geometry
from oossim.fronthaul import Chain
from oossim.numerics import DegeneracyError, herm
from oossim.scenario import draw_block
from oossim.uplink import (
    QPSK_POINTS,
    UplinkSymbolBatch,
    accumulate_channel_gramian,
    count_bit_errors,
    detect_centralized,
    detect_distributed_zf,
    detect_sequential_ls,
    draw_qpsk,
    evaluate_ber,
    simulate_uplink_rx,
    wilson_interval,
)


def make_batch(cfg, seed=0, include_noise=True, n_symbols=20):
    block = draw_block(cfg, unit_geometry(cfg), np.random.default_rng(seed))
    batch = simulate_uplink_rx(
        block, cfg, np.random.default_rng(seed + 1), n_symbols, include_noise
    )
    return block, batch


def genie_aug(block):
    return np.concatenate([block.H, block.G], axis=2)


class TestSimulateUplink:
    def test_qpsk_constellation(self, rng):
        x = draw_qpsk(rng, 4, 50)
        dists = np.min(np.abs(x[..., None] - QPSK_POINTS), axis=-1)
        assert np.allclose(dists, 0.0)
        assert np.allclose(np.abs(x), 1.0)

    def test_noise_free_channel_only(self):
        cfg = make_cfg(K_I=0)
        block, batch = make_batch(cfg, include_noise=False)
        expected = np.sqrt(cfg.rho) * (block.H @ batch.x)
        assert np.allclose(batch.y, expected, atol=1e-12)

    def test_interference_only(self):
        cfg = make_cfg()
        block = draw_block(cfg, unit_geometry(cfg), np.random.default_rng(2))
        block.H[:] = 0
        batch = simulate_uplink_rx(block, cfg, np.random.default_rng(3), 10, False)
        assert np.allclose(batch.y, block.G @ batch.s, atol=1e-12)

    def test_matches_direct_evaluation_oracle(self):
        cfg = make_cfg(rho=3.0)
        block, batch = make_batch(cfg, seed=5, include_noise=False, n_symbols=7)
        for l in range(cfg.L):
            for t in range(7):
                expected = np.zeros(cfg.N, dtype=complex)
                for k in range(cfg.K):
                    expected += np.sqrt(cfg.rho) * block.H[l, :, k] * batch.x[k, t]
                for j in range(cfg.K_I):
                    expected += block.G[l, :, j] * batch.s[j, t]
                assert np.linalg.norm(batch.y[l, :, t] - expected) < 1e-12


class TestSequentialLs:
    def test_zero_data_zero_estimate(self):
        cfg = make_cfg()
        block, batch = make_batch(cfg, include_noise=False)
        batch.y[:] = 0
        state = detect_sequential_ls(batch, genie_aug(block), cfg, Chain.for_config(cfg))
        assert np.allclose(state.xhat, 0.0)

    def test_large_prior_matches_pseudoinverse(self):
        cfg = make_cfg(alpha=1e8)
        block, batch = make_batch(cfg, seed=3, include_noise=False)
        state = detect_sequential_ls(batch, genie_aug(block), cfg, Chain.for_config(cfg))
        central = detect_centralized(batch, genie_aug(block))
        gap = np.linalg.norm(state.xhat - central) / np.linalg.norm(central)
        assert gap < 1e-4

    def test_gap_monotone_in_alpha(self):
        gaps = []
        for alpha in (1e2, 1e4, 1e6, 1e8):
            cfg = make_cfg(alpha=alpha)
            block, batch = make_batch(cfg, seed=4, include_noise=False)
            state = detect_sequential_ls(batch, genie_aug(block), cfg, Chain.for_config(cfg))
            central = detect_centralized(batch, genie_aug(block))
            gaps.append(np.linalg.norm(state.xhat - central) / np.linalg.norm(central))
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_covariance_psd_and_contracting(self):
        cfg = make_cfg()
        block, batch = make_batch(cfg, seed=6)
        aug = genie_aug(block)
        traces = [cfg.alpha * (cfg.K + cfg.K_I)]
        # re-run the recursion hop by hop via single-AP chains
        m = cfg.K + cfg.K_I
        xhat = np.zeros((m, batch.y.shape[2]), dtype=complex)
        C = cfg.alpha * np.eye(m, dtype=complex)
        for ap in cfg.ap_order:
            A = aug[ap - 1]
            inner = np.eye(cfg.N) + A @ C @ herm(A)
            gain = herm(np.linalg.solve(inner, A @ C))
            xhat = xhat + gain @ (batch.y[ap - 1] - A @ xhat)
            C = (np.eye(m) - gain @ A) @ C
            C = 0.5 * (C + herm(C))
            w = np.linalg.eigvalsh(C)
            assert w.min() > -1e-8 * max(1.0, w.max())
            traces.append(float(np.trace(C).real))
        assert all(t2 <= t1 + 1e-9 for t1, t2 in zip(traces, traces[1:]))
        state = detect_sequential_ls(batch, aug, cfg, Chain.for_config(cfg))
        assert np.allclose(state.xhat, xhat)

    def test_message_cost_per_hop(self):
        cfg = make_cfg()
        block, batch = make_batch(cfg, seed=7)
        chain = Chain.for_config(cfg)
        detect_sequential_ls(batch, genie_aug(block), cfg, chain)
        m = cfg.K + cfg.K_I
        assert chain.log.per_link_symbols("uplink_seq_ls") == 2 * m + m * m


class TestChannelGramian:
    def test_single_ap(self, rng):
        aug = crandn(rng, 1, 4, 3)
        gamma = accumulate_channel_gramian(aug, Chain(order=(1,)))
        assert np.allclose(gamma, herm(aug[0]) @ aug[0])

    def test_matches_stacked(self, rng):
        aug = crandn(rng, 3, 4, 5)
        gamma = accumulate_channel_gramian(aug, Chain(order=(3, 2, 1)))
        stacked = aug.reshape(12, 5)
        assert np.linalg.norm(gamma - herm(stacked) @ stacked) < 1e-10

    def test_per_link_load(self):
        cfg = make_cfg(K=5, K_I=2, tau_p=50, tau_c=100, L=4, ap_order=(4, 3, 2, 1))
        block, _ = make_batch(cfg, seed=8)
        chain = Chain.for_config(cfg)
        accumulate_channel_gramian(genie_aug(block), chain)
        assert chain.log.per_link_symbols("channel_gramian") == 49


class TestDistributedZf:
    def test_equals_pseudoinverse_detection(self):
        cfg = make_cfg()
        block, batch = make_batch(cfg, seed=9)
        aug = genie_aug(block)
        chain = Chain.for_config(cfg)
        gamma = accumulate_channel_gramian(aug, chain)
        xhat = detect_distributed_zf(batch, aug, gamma, chain)
        central = detect_centralized(batch, aug)
        assert np.linalg.norm(xhat - central) <= 1e-9 * np.linalg.norm(central)

    def test_noise_free_perfect_recovery(self):
        cfg = make_cfg()
        block, batch = make_batch(cfg, seed=10, include_noise=False)
        aug = genie_aug(block)
        chain = Chain.for_config(cfg)
        gamma = accumulate_channel_gramian(aug, chain)
        xhat = detect_distributed_zf(batch, aug, gamma, chain)
        assert np.allclose(xhat[: cfg.K], np.sqrt(cfg.rho) * batch.x, atol=1e-9)
        assert np.allclose(xhat[cfg.K :], batch.s, atol=1e-9)

    def test_single_ap_matches_local_solve(self, rng):
        cfg = make_cfg(L=1, N=8, ap_order=(1,))
        block, batch = make_batch(cfg, seed=11)
        aug = genie_aug(block)
        chain = Chain.for_config(cfg)
        gamma = accumulate_channel_gramian(aug, chain)
        xhat = detect_distributed_zf(batch, aug, gamma, chain)
        oracle = np.linalg.lstsq(aug[0], batch.y[0], rcond=None)[0]
        assert np.allclose(xhat, oracle, atol=1e-8)

    def test_singular_gramian_rejected(self):
        cfg = make_cfg()
        block, batch = make_batch(cfg, seed=12)
        aug = genie_aug(block).copy()
        aug[:, :, 1] = aug[:, :, 0]  # duplicate a UE column
        chain = Chain.for_config(cfg)
        gamma = accumulate_channel_gramian(aug, chain)
        with pytest.raises(DegeneracyError):
            detect_distributed_zf(batch, aug, gamma, chain)

    def test_message_cost_per_hop(self):
        cfg = make_cfg()
        block, batch = make_batch(cfg, seed=13)
        aug = genie_aug(block)
        chain = Chain.for_config(cfg)
        gamma = accumulate_channel_gramian(aug, chain)
        detect_distributed_zf(batch, aug, gamma, chain)
        assert chain.log.per_link_symbols("uplink_combine") == 2 * (cfg.K + cfg.K_I)


class TestCentralized:
    def test_rank_deficient_gives_minimum_norm(self, rng):
        cfg = make_cfg()
        block, batch = make_batch(cfg, seed=14)
        aug = genie_aug(block).copy()
        aug[:, :, 1] = aug[:, :, 0]
        stacked = aug.reshape(cfg.L * cfg.N, -1)
        assert np.linalg.matrix_rank(stacked) < cfg.K + cfg.K_I
        xhat = detect_centralized(batch, aug)
        oracle = np.linalg.lstsq(stacked, batch.y.reshape(cfg.L * cfg.N, -1), rcond=None)[0]
        assert np.allclose(xhat, oracle, atol=1e-8)

    def test_fictitious_users_absorb_strong_interference(self):
        # 30 dB interferer power above the UEs, perfect channels, no noise
        cfg = make_cfg(oos_snr=1000.0, rho=1.0)
        block, batch = make_batch(cfg, seed=15, include_noise=False)
        xhat = detect_centralized(batch, genie_aug(block))
        assert np.allclose(xhat[: cfg.K], np.sqrt(cfg.rho) * batch.x, atol=1e-8)


class TestBer:
    def test_exact_estimates(self, rng):
        x = draw_qpsk(rng, 3, 100)
        stats = evaluate_ber(x, x)
        assert stats.ber == 0.0
        assert stats.bit_count == 600

    def test_negated_estimates(self, rng):
        x = draw_qpsk(rng, 3, 100)
        assert evaluate_ber(-x, x).ber == 1.0

    def test_independent_noise_gives_half(self, rng):
        x = draw_qpsk(rng, 5, 1000)
        noise = crandn(rng, 5, 1000)
        stats = evaluate_ber(noise, x)
        sigma = 0.5 / np.sqrt(stats.bit_count)
        assert abs(stats.ber - 0.5) < 3 * sigma

    def test_ci_brackets_ber(self, rng):
        x = draw_qpsk(rng, 2, 500)
        est = x + 0.5 * crandn(rng, 2, 500)
        stats = evaluate_ber(est, x)
        assert stats.ci_low <= stats.ber <= stats.ci_high
        assert stats.per_ue.shape == (2,)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            evaluate_ber(np.zeros((0, 0)), np.zeros((0, 0)))

    def test_count_requires_matching_shapes(self, rng):
        with pytest.raises(ValueError):
            count_bit_errors(crandn(rng, 2, 3), crandn(rng, 3, 2))

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(0, 50), n=st.integers(1, 50))
    def test_wilson_interval_sane(self, k, n):
        k = min(k, n)
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0


class TestStackedBlocks:
    def test_detectors_on_a_stack_match_each_block(self):
        cfg = make_cfg()
        drawn = [make_batch(cfg, seed=10 * b) for b in range(3)]
        aug = np.stack([genie_aug(block) for block, _ in drawn])
        stack = UplinkSymbolBatch(*(np.stack(a) for a in zip(*((b.x, b.s, b.y) for _, b in drawn))))

        def detections(batch, aug):
            gamma = accumulate_channel_gramian(aug, Chain.for_config(cfg))
            return (
                detect_centralized(batch, aug),
                detect_distributed_zf(batch, aug, gamma, Chain.for_config(cfg)),
                detect_sequential_ls(batch, aug, cfg, Chain.for_config(cfg)).xhat,
            )

        stacked = detections(stack, aug)
        for b, (_, batch) in enumerate(drawn):
            for got, want in zip(stacked, detections(batch, aug[b]), strict=True):
                assert np.array_equal(got[b], want)
            errors = count_bit_errors(stacked[0][:, : cfg.K], stack.x)
            assert np.array_equal(errors[b], count_bit_errors(stacked[0][b, : cfg.K], batch.x))

    def test_one_singular_gramian_fails_the_stack(self):
        cfg = make_cfg()
        _, batch = make_batch(cfg)
        aug = crandn(np.random.default_rng(1), 2, cfg.L, cfg.N, cfg.K + cfg.K_I)
        aug[1] = 0.0
        gamma = accumulate_channel_gramian(aug, Chain.for_config(cfg))
        with pytest.raises(DegeneracyError):
            detect_distributed_zf(batch, aug, gamma, Chain.for_config(cfg))
