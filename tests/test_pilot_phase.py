import numpy as np
import pytest

from conftest import crandn, make_cfg, unit_geometry
from oossim.numerics import herm
from oossim.pilot_phase import (
    compute_projected_residual,
    ls_channel_estimate,
    simulate_pilot_rx,
)
from oossim.scenario import build_pilot_book, draw_block


def make_block(cfg, seed=0):
    return draw_block(cfg, unit_geometry(cfg), np.random.default_rng(seed))


def test_clean_pilot_inversion():
    cfg = make_cfg(K_I=0)
    block = make_block(cfg)
    block.pilot_noise[:] = 0
    pilots = build_pilot_book(cfg)
    Y = simulate_pilot_rx(block, pilots, cfg)
    recovered = (Y @ pilots.Phi) / np.sqrt(cfg.rho * cfg.tau_p)
    assert np.allclose(recovered, block.H, atol=1e-12)


def test_pure_interference():
    cfg = make_cfg()
    block = make_block(cfg)
    block.H[:] = 0
    block.pilot_noise[:] = 0
    pilots = build_pilot_book(cfg)
    Y = simulate_pilot_rx(block, pilots, cfg)
    assert np.allclose(Y, block.G @ herm(block.S), atol=1e-12)


def test_matches_direct_evaluation_oracle():
    # independent slow evaluation, one AP and one sample at a time
    cfg = make_cfg(rho=2.5, noise_floor_dbw=0.0)
    block = make_block(cfg, seed=12)
    pilots = build_pilot_book(cfg)
    Y = simulate_pilot_rx(block, pilots, cfg)
    scale = np.sqrt(cfg.rho * cfg.tau_p)
    for l in range(cfg.L):
        expected = np.zeros((cfg.N, cfg.tau_p), dtype=complex)
        for t in range(cfg.tau_p):
            for k in range(cfg.K):
                expected[:, t] += scale * block.H[l, :, k] * np.conj(pilots.Phi[t, k])
            for j in range(cfg.K_I):
                expected[:, t] += block.G[l, :, j] * np.conj(block.S[t, j])
            expected[:, t] += block.pilot_noise[l, :, t]
        assert np.linalg.norm(Y[l] - expected) < 1e-12 * np.linalg.norm(expected)


def test_dimension_mismatch_rejected():
    cfg = make_cfg()
    block = make_block(cfg)
    pilots = build_pilot_book(make_cfg(tau_p=12, tau_c=40))
    with pytest.raises(ValueError):
        simulate_pilot_rx(block, pilots, cfg)


class TestLsEstimate:
    def test_noise_free_without_interference(self):
        cfg = make_cfg(K_I=0)
        block = make_block(cfg)
        block.pilot_noise[:] = 0
        pilots = build_pilot_book(cfg)
        est = ls_channel_estimate(simulate_pilot_rx(block, pilots, cfg), pilots, cfg)
        assert np.allclose(est, block.H, atol=1e-12)

    def test_interference_bias_formula(self):
        cfg = make_cfg()
        block = make_block(cfg, seed=5)
        block.pilot_noise[:] = 0
        pilots = build_pilot_book(cfg)
        est = ls_channel_estimate(simulate_pilot_rx(block, pilots, cfg), pilots, cfg)
        bias = (block.G @ herm(block.S) @ pilots.Phi) / np.sqrt(cfg.rho * cfg.tau_p)
        assert np.allclose(est - block.H, bias, atol=1e-12)

    def test_interference_in_complement_leaves_no_bias(self):
        cfg = make_cfg()
        block = make_block(cfg, seed=6)
        pilots = build_pilot_book(cfg)
        # force the interferer signal into the pilot null space: S^H Phi = 0
        block.S[:] = pilots.Psi[:, : cfg.K_I]
        block.pilot_noise[:] = 0
        est = ls_channel_estimate(simulate_pilot_rx(block, pilots, cfg), pilots, cfg)
        assert np.allclose(est, block.H, atol=1e-10)


class TestProjectedResidual:
    def run_pipeline(self, cfg, block):
        pilots = build_pilot_book(cfg)
        obs = simulate_pilot_rx(block, pilots, cfg)
        return pilots, obs, compute_projected_residual(obs, pilots)

    def test_noise_free_equals_projected_interference(self):
        cfg = make_cfg()
        block = make_block(cfg, seed=9)
        block.pilot_noise[:] = 0
        pilots, _, zpsi = self.run_pipeline(cfg, block)
        sbar = herm(pilots.Psi) @ block.S
        assert np.allclose(zpsi, block.G @ herm(sbar), atol=1e-10)

    def test_zero_without_interference_or_noise(self):
        cfg = make_cfg(K_I=0)
        block = make_block(cfg)
        block.pilot_noise[:] = 0
        _, _, zpsi = self.run_pipeline(cfg, block)
        assert np.allclose(zpsi, 0.0, atol=1e-10)

    def test_residual_lies_in_pilot_null_space(self):
        cfg = make_cfg()
        block = make_block(cfg, seed=4)
        pilots, _, zpsi = self.run_pipeline(cfg, block)
        assert np.linalg.norm(zpsi @ herm(pilots.Psi) @ pilots.Phi) < 1e-10

    def test_algebraic_identity_with_noise(self):
        cfg = make_cfg()
        block = make_block(cfg, seed=13)
        pilots, obs, zpsi = self.run_pipeline(cfg, block)
        proj = np.eye(cfg.tau_p) - pilots.Phi @ herm(pilots.Phi)
        direct = (block.G @ herm(block.S) + block.pilot_noise) @ proj @ pilots.Psi
        assert np.linalg.norm(zpsi - direct) < 1e-10 * max(1.0, np.linalg.norm(direct))

    def test_noise_statistics_preserved(self):
        # projecting unit-variance noise onto the orthonormal complement
        # keeps i.i.d. unit-variance entries
        cfg = make_cfg(L=2, N=6, K=2, K_I=0, tau_p=24, tau_c=60)
        pilots = build_pilot_book(cfg)
        rng = np.random.default_rng(21)
        samples = []
        for _ in range(60):
            noise = crandn(rng, cfg.L, cfg.N, cfg.tau_p)
            samples.append((noise @ pilots.Psi).ravel())
        samples = np.concatenate(samples)
        assert abs(np.mean(np.abs(samples) ** 2) - 1.0) < 0.05
        assert abs(np.mean(samples)) < 0.05

    def test_noise_free_rank_bound(self):
        cfg = make_cfg(N=6)
        block = make_block(cfg, seed=30)
        block.pilot_noise[:] = 0
        _, _, zpsi = self.run_pipeline(cfg, block)
        for l in range(cfg.L):
            s = np.linalg.svd(zpsi[l], compute_uv=False)
            assert np.all(s[cfg.K_I :] < 1e-10)
