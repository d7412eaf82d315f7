import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from conftest import crandn, make_cfg, unit_geometry
from oossim import numerics
from oossim.experiments import RunDiagnostics
from oossim.fronthaul import Chain
from oossim.numerics import (
    DegeneracyError,
    NumericalFailure,
    economy_svd,
    herm,
)
from oossim.oos_estimation import (
    _local_signal_basis,
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

    @staticmethod
    def with_spectrum(rng, sigma, r):
        """A len(sigma) x r matrix with singular values `sigma`."""
        n = len(sigma)
        return (random_unitary(rng, n) * sigma) @ herm(orthonormal_columns(rng, r, n))

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_agrees_with_economy_svd_within_the_stated_bound(self, rng, N):
        # the orders that top_singular_triplets states for its Gramian
        # route, times C; the largest factor over 4000 random spectra,
        # economy_svd's own error included, was 49. One member has
        # w_N = 2e-8 w_1 (w = sigma^2), just above the screen.
        C, eps = 100, np.finfo(float).eps
        zpsi = crandn(rng, 2, 3, N, 45)
        zpsi[1, 2] = self.with_spectrum(rng, np.geomspace(1.0, np.sqrt(2e-8), N), 45)
        U, sigma, V = economy_svd(zpsi)
        w = np.concatenate([sigma**2, np.zeros((2, 3, 1))], axis=-1)
        for K_I in range(1, N + 1):
            sbar, g = local_svd_estimate(zpsi, K_I)
            gap_bound = C * eps * w[..., 0] / (w[..., K_I - 1] - w[..., K_I])
            sigma_err = np.abs(np.linalg.norm(g, axis=-2) / sigma[..., :K_I] - 1)
            assert np.all(sigma_err <= C * eps * w[..., :1] / w[..., :K_I])
            want = (U[..., :K_I] * sigma[..., None, :K_I]) @ herm(V[..., :K_I])
            product_err = np.linalg.norm(g @ herm(sbar) - want, axis=(-2, -1))
            assert np.all(product_err <= gap_bound * np.linalg.norm(zpsi, axis=(-2, -1)))
            for b in np.ndindex(2, 3):
                assert np.max(subspace_angles(sbar[b], V[b][:, :K_I])) <= gap_bound[b]

    def test_screen_falls_back_to_the_svd_per_matrix(self, rng, monkeypatch):
        # a zero member and one below the screen at K_I = 2 (w_2 = 1e-10 w_1)
        # take the SVD route; each full-rank neighbour stays on the Gramian
        # route, and every member gets the bits it gets alone
        zpsi = crandn(rng, 2, 3, 4, 45)
        zpsi[0, 1] = 0.0
        zpsi[1, 0] = self.with_spectrum(rng, [1.0, 1e-5, 1e-6, 1e-7], 45)
        refits, svd = [], numerics.economy_svd

        def spy(M):
            refits.append(M)
            return svd(M)

        monkeypatch.setattr(numerics, "economy_svd", spy)
        sbar, g = local_svd_estimate(zpsi, 2)
        assert len(refits) == 1 and np.array_equal(refits[0], zpsi[[0, 1], [1, 0]])
        for b in np.ndindex(2, 3):
            alone = local_svd_estimate(zpsi[b], 2)
            assert np.array_equal(alone[0], sbar[b]) and np.array_equal(alone[1], g[b])

    def test_rejects_nonfinite_members(self, rng):
        zpsi = crandn(rng, 2, 4, 45)
        zpsi[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            local_svd_estimate(zpsi, 2)

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

    @settings(max_examples=15, deadline=None)
    @given(k=st.integers(1, 5), batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_an_independently_phased_svd(self, k, batch, seed):
        # V U^H from LAPACK's SVD with every column pair of U and V turned
        # by its own random unit phase, which cancels in V U^H
        rng = np.random.default_rng(seed)
        S_prev, S_local = crandn(rng, batch, 9, k), crandn(rng, batch, 9, k)
        U, _, Vh = np.linalg.svd(herm(S_local) @ S_prev)
        phases = np.exp(2j * np.pi * rng.random((batch, 1, k)))
        want = (herm(Vh) * phases) @ herm(U * phases)
        Q = procrustes_rotation(S_prev, S_local)
        gap = np.linalg.norm(Q - want, axis=(-2, -1))
        assert np.all(gap <= 1e-14 * np.linalg.norm(want, axis=(-2, -1)))
        assert np.linalg.norm(herm(Q) @ Q - np.eye(k), axis=(-2, -1)).max() < 1e-12

    def test_svd_failures_keep_their_types(self, rng, monkeypatch):
        S = crandn(rng, 3, 8, 2)
        broken = S.copy()
        broken[2, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            procrustes_rotation(S, broken)

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(NumericalFailure):
            procrustes_rotation(S, S)

    def test_beats_random_unitaries(self, rng):
        S_prev = crandn(rng, 10, 3)
        S_local = crandn(rng, 10, 3)
        Q = procrustes_rotation(S_prev, S_local)
        best = np.linalg.norm(S_local @ herm(Q) - S_prev)
        for _ in range(100):
            R = random_unitary(rng, 3)
            assert best <= np.linalg.norm(S_local @ herm(R) - S_prev) + 1e-12

    def test_degenerate_cross_gramian_counted(self):
        diag = RunDiagnostics()
        S_local = np.ones((6, 2), dtype=complex)  # rank one
        S_prev = np.ones((6, 2), dtype=complex)
        Q = procrustes_rotation(S_prev, S_local, diag)
        assert diag.degenerate_rotations == 1
        assert np.linalg.norm(herm(Q) @ Q - np.eye(2)) < 1e-10

    def test_degenerate_counted_per_stacked_block(self, rng):
        diag = RunDiagnostics()
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
        diag = RunDiagnostics()
        S_local = crandn(rng, 8, 2)
        out = rotate_and_average_step(np.zeros((8, 2), dtype=complex), S_local, diag)
        assert diag.degenerate_rotations == 1
        # output is half the (arbitrarily but deterministically rotated) local estimate
        assert np.linalg.norm(out) == pytest.approx(0.5 * np.linalg.norm(S_local), rel=1e-12)


class TestLocalSignalBasis:
    @pytest.mark.parametrize("K_I", [5, 9])  # above N = 4: null-space completion
    def test_completes_the_full_svd_basis(self, rng, K_I):
        # r = 9 >= floor(17 N / 9) = 7: the full SVD factors zpsi = L Q
        # first, so its completion columns are the Householder Q's
        zpsi = crandn(rng, 2, 3, 4, 9)
        got = _local_signal_basis(zpsi, K_I)
        want = herm(np.linalg.svd(zpsi, full_matrices=True)[2])[..., :K_I]
        # up to each column's phase
        overlap = np.sum(np.conj(want) * got, axis=-2, keepdims=True)
        want = want * overlap / np.abs(overlap)
        assert np.abs(got[..., 4:] - want[..., 4:]).max() < 1e-12
        # the first N columns span the row space: the same projector
        projector = [x[..., :4] @ herm(x[..., :4]) for x in (got, want)]
        assert np.abs(projector[0] - projector[1]).max() < 1e-12
        assert np.abs(herm(got) @ got - np.eye(K_I)).max() < 1e-12

    def test_a_stack_keeps_each_members_bits(self, rng):
        K_I, stack = 5, (5, 4)
        zpsi = crandn(rng, *stack, 4, 45)
        got = _local_signal_basis(zpsi, K_I)
        for b in np.ndindex(stack):
            alone = _local_signal_basis(zpsi[b], K_I)
            assert np.array_equal(alone.view(np.uint64), got[b].view(np.uint64))

    def test_failures_keep_their_types(self, rng, monkeypatch):
        broken = crandn(rng, 3, 4, 9)
        broken[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _local_signal_basis(broken, 5)
        with pytest.raises(ValueError, match="exceeds the residual dimension"):
            _local_signal_basis(crandn(rng, 4, 9), 10)

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(np.linalg, "qr", no_convergence)
        with pytest.raises(NumericalFailure, match="QR of the local residual did not converge"):
            _local_signal_basis(crandn(rng, 3, 4, 9), 5)


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

    def test_given_local_bases_give_its_own_estimate(self, rng):
        cfg = make_cfg(L=4, ap_order=(4, 3, 2, 1))
        _, zpsi, _ = noise_free_residuals(cfg, seed=3)
        zpsi = zpsi + 0.1 * crandn(rng, *zpsi.shape)
        own = run_sequential_procrustes(zpsi, cfg, Chain.for_config(cfg))
        bases = local_svd_estimate(zpsi, cfg.K_I)[0]
        given = run_sequential_procrustes(zpsi, cfg, Chain.for_config(cfg), local_bases=bases)
        assert np.array_equal(given, own)

    def test_reference_per_link_load(self):
        cfg = make_cfg(L=4, ap_order=(4, 3, 2, 1), K=5, K_I=2, tau_p=50, tau_c=200)
        _, zpsi, _ = noise_free_residuals(cfg, seed=1)
        chain = Chain.for_config(cfg)
        run_sequential_procrustes(zpsi, cfg, chain)
        assert chain.log.per_link_symbols("oos_forward") == 180
        assert chain.log.per_link_symbols("oos_broadcast") == 180
        # forward pass: one message per link, L links total
        assert len(chain.log.link_totals("oos_forward")) == cfg.L


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

    @pytest.mark.parametrize("r", [1e-4, 1e-6, 1e-8, 3e-9])
    def test_ill_conditioned_estimate_matches_the_pseudo_inverse(self, rng, r):
        # singular values (1, r) pass the 1e-9 rank screen, so the channels
        # must be Z (Sbar^+)^H to rounding; inverting the Gramian Sbar^H Sbar
        # (condition number 1/r^2) misses by up to 100% at r = 1e-8
        sbar = orthonormal_columns(rng, 45, 2) * np.array([1.0, r]) @ random_unitary(rng, 2)
        zpsi = crandn(rng, 4, 4, 45)
        want = zpsi @ herm(np.linalg.pinv(sbar))
        gap = np.linalg.norm(estimate_oos_channels(zpsi, sbar) - want) / np.linalg.norm(want)
        assert gap <= 1e-12

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
        # the same projector and the same rank-2 product, whatever the column phases
        assert np.allclose(sbar_c @ herm(sbar_c), sbar_l @ herm(sbar_l), atol=1e-12)
        assert np.allclose(g_c[0] @ herm(sbar_c), g_l @ herm(sbar_l), atol=1e-12)

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
            diag = RunDiagnostics()
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
