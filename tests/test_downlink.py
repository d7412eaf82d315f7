import numpy as np
import pytest

from conftest import crandn, make_cfg, unit_geometry
from oossim.downlink import compute_partial_precoded, simulate_downlink
from oossim.fronthaul import Chain
from oossim.numerics import DegeneracyError, herm, inverse_gramian
from oossim.pilot_phase import (
    compute_projected_residual,
    ls_channel_estimate,
    simulate_pilot_rx,
)
from oossim.scenario import build_pilot_book, draw_block
from oossim.uplink import accumulate_channel_gramian, draw_qpsk


def genie_setup(cfg, seed=0):
    block = draw_block(cfg, unit_geometry(cfg), np.random.default_rng(seed))
    aug = np.concatenate([block.H, block.G], axis=2)
    gamma = accumulate_channel_gramian(aug, Chain.for_config(cfg))
    return block, aug, gamma


class TestLocalPrecoders:
    def test_zf_identity(self):
        cfg = make_cfg()
        _, aug, gamma = genie_setup(cfg)
        wbar = aug @ inverse_gramian(gamma)
        stacked_a = aug.reshape(cfg.L * cfg.N, -1)
        stacked_w = wbar.reshape(cfg.L * cfg.N, -1)
        m = cfg.K + cfg.K_I
        assert np.linalg.norm(herm(stacked_a) @ stacked_w - np.eye(m)) < 1e-9

    def test_orthonormal_single_ap(self, rng):
        A, _ = np.linalg.qr(crandn(rng, 6, 3))
        aug = A[None]
        gamma = herm(A) @ A
        wbar = aug @ inverse_gramian(gamma)
        assert np.allclose(wbar[0], A, atol=1e-10)

    def test_matches_central_formula(self):
        cfg = make_cfg()
        _, aug, gamma = genie_setup(cfg, seed=2)
        wbar = aug @ inverse_gramian(gamma)
        stacked_a = aug.reshape(cfg.L * cfg.N, -1)
        central = stacked_a @ np.linalg.inv(herm(stacked_a) @ stacked_a)
        assert np.linalg.norm(wbar.reshape(cfg.L * cfg.N, -1) - central) < 1e-10

    def test_singular_gramian_rejected(self):
        with pytest.raises(DegeneracyError):
            np.zeros((1, 2, 2)) @ inverse_gramian(np.zeros((2, 2)))


class TestPartialPrecoding:
    def test_zero_symbols(self):
        cfg = make_cfg()
        _, _, gamma = genie_setup(cfg)
        q = compute_partial_precoded(np.zeros(cfg.K), gamma)
        assert np.allclose(q, 0.0)

    def test_identity_gramian(self):
        x = np.array([1.0, 2.0, 3.0])
        q = compute_partial_precoded(x, np.eye(5))
        assert np.allclose(q, np.concatenate([x, np.zeros(2)]))

    def test_two_path_equivalence(self, rng):
        # per-AP precoders applied to [x; 0] == per-AP channels applied to q
        cfg = make_cfg()
        _, aug, gamma = genie_setup(cfg, seed=3)
        x = draw_qpsk(rng, cfg.K, 1)[:, 0]
        q = compute_partial_precoded(x, gamma)
        wbar = aug @ inverse_gramian(gamma)
        padded = np.concatenate([x, np.zeros(cfg.K_I)])
        via_w = np.sum(wbar @ padded, axis=0)
        via_q = np.sum(aug @ q, axis=0)
        assert np.allclose(via_w, via_q, atol=1e-10)


class TestSimulateDownlink:
    def test_perfect_csi_nulls_interferers(self, rng):
        cfg = make_cfg()
        block, aug, gamma = genie_setup(cfg, seed=4)
        x = draw_qpsk(rng, cfg.K, 8)
        q = compute_partial_precoded(x, gamma)
        result = simulate_downlink(block, aug, q, cfg, include_noise=False)
        assert np.allclose(result.ue_rx, x, atol=1e-10)
        assert np.linalg.norm(result.oos_rx) < 1e-10
        assert result.per_ap_tx_power.shape == (cfg.L,)

    def test_zero_signal(self):
        cfg = make_cfg()
        block, aug, gamma = genie_setup(cfg, seed=5)
        q = compute_partial_precoded(np.zeros(cfg.K), gamma)
        result = simulate_downlink(block, aug, q, cfg, include_noise=False)
        assert np.allclose(result.ue_rx, 0.0)
        assert np.allclose(result.oos_rx, 0.0)

    def test_noise_requires_rng(self):
        cfg = make_cfg()
        block, aug, gamma = genie_setup(cfg, seed=6)
        q = compute_partial_precoded(np.zeros(cfg.K), gamma)
        with pytest.raises(ValueError):
            simulate_downlink(block, aug, q, cfg, rng=None, include_noise=True)

    def test_estimated_csi_beats_interference_blind_precoder(self):
        # nulling precoder leakage at least 20 dB below a precoder that
        # ignores the interferer channels, every pilot-phase transmitter
        # (UEs and interferers) received at 10 dB
        cfg = make_cfg(rho=10.0, oos_snr=10.0, L=4, N=4, K=5, K_I=2, tau_p=50,
                       tau_c=100, ap_order=(4, 3, 2, 1))
        pilots = build_pilot_book(cfg)
        rng = np.random.default_rng(77)
        leak_null, leak_blind = 0.0, 0.0
        for seed in range(10):
            block = draw_block(cfg, unit_geometry(cfg), np.random.default_rng(seed))
            obs = simulate_pilot_rx(block, pilots, cfg)
            est = ls_channel_estimate(obs, pilots, cfg)
            zpsi = compute_projected_residual(obs, pilots)
            from oossim.oos_estimation import centralized_oos_oracle

            _, ghat = centralized_oos_oracle(zpsi, cfg.K_I)
            x = draw_qpsk(rng, cfg.K, 20)

            aug = np.concatenate([est, ghat], axis=2)
            gamma = accumulate_channel_gramian(aug, Chain.for_config(cfg))
            q = compute_partial_precoded(x, gamma)
            leak_null += np.mean(
                np.abs(simulate_downlink(block, aug, q, cfg, include_noise=False).oos_rx) ** 2
            )

            gamma_blind = accumulate_channel_gramian(est, Chain.for_config(cfg))
            q_blind = compute_partial_precoded(x, gamma_blind)
            leak_blind += np.mean(
                np.abs(simulate_downlink(block, est, q_blind, cfg, include_noise=False).oos_rx) ** 2
            )
        assert leak_blind / leak_null >= 100.0
