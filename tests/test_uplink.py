import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import crandn, make_cfg, unit_geometry
from oossim import numerics, uplink
from oossim.fronthaul import Chain
from oossim.numerics import DegeneracyError, NumericalFailure, herm, pseudo_inverse
from oossim.scenario import SystemConfig, build_geometry, draw_block
from oossim.uplink import (
    UplinkSymbolBatch,
    accumulate_channel_gramian,
    apply_chain,
    apply_zf_filter,
    count_bit_errors,
    detect_centralized,
    detect_distributed_zf,
    detect_sequential_ls,
    draw_qpsk,
    inverse_gramian,
    received_signal,
    sequential_ls_covariance,
    simulate_uplink_rx,
    wilson_interval,
    zf_filters,
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
        points = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
        dists = np.min(np.abs(x[..., None] - points), axis=-1)
        assert np.allclose(dists, 0.0)
        assert np.allclose(np.abs(x), 1.0)

    def test_qpsk_levels_are_the_complex_divide_bit_for_bit(self):
        b = np.random.default_rng(3).integers(0, 2, size=(2, 4, 50))
        want = np.empty((4, 50), dtype=complex)
        want.real, want.imag = 1 - 2 * b
        want /= np.sqrt(2.0)
        x = draw_qpsk(np.random.default_rng(3), 4, 50)
        assert np.array_equal(x.view(np.uint64), want.view(np.uint64))

    def test_received_signal_sums_in_a_fixed_order(self, rng):
        hx, gs, noise = crandn(rng, 3, 2, 4, 9)
        rho = 0.37
        want = ((np.sqrt(rho) * hx) + gs) + noise
        assert np.array_equal(received_signal(rho, hx, gs, noise), want)
        out = np.empty_like(hx)
        assert received_signal(rho, hx, gs, noise, out=out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(received_signal(rho, hx), np.sqrt(rho) * hx)

    def test_draw_keeps_the_terms_of_y(self):
        cfg = make_cfg(rho=2.5)
        block, batch = make_batch(cfg)
        assert np.array_equal(batch.hx, block.H @ batch.x)
        assert np.array_equal(batch.gs, block.G @ batch.s)
        assert np.array_equal(batch.y, received_signal(cfg.rho, batch.hx, batch.gs, batch.noise))
        cfg = make_cfg(K_I=0)
        _, clean = make_batch(cfg, include_noise=False)
        assert clean.gs.shape == (cfg.L, cfg.N, 20) and not np.any(clean.gs)
        assert clean.noise is None

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
        assert np.allclose(sequential_ls_covariance(aug, cfg, Chain.for_config(cfg)), C)
        state = detect_sequential_ls(batch, aug, cfg, Chain.for_config(cfg))
        assert np.allclose(state.xhat, xhat)

    @pytest.mark.parametrize(
        ("L", "alpha", "bound"),
        # L N = 8 >= K + K_I = 7: J is as well conditioned as A^H A at any alpha.
        # L N = 4 < K + K_I: cond(J) grows with alpha (sequential_ls_covariance
        # states the trade-off), about 6e-8 at the default alpha = 1e6.
        [(2, 1e2, 1e-10), (2, 1e6, 1e-10), (2, 1e8, 1e-10), (2, 1e10, 1e-10), (1, 1e6, 1e-6)],
    )
    def test_matches_the_stacked_ridge_solution(self, L, alpha, bound):
        # lstsq of [A; I/sqrt(alpha)] against [y; 0], on drawn geometries
        for seed in range(5):
            cfg = SystemConfig(L=L, alpha=alpha, seed=seed)
            rng = np.random.default_rng(seed)
            block = draw_block(cfg, build_geometry(cfg, rng), rng)
            batch = simulate_uplink_rx(block, cfg, rng, 30)
            aug = genie_aug(block)
            xhat = detect_sequential_ls(batch, aug, cfg, Chain.for_config(cfg)).xhat
            m = aug.shape[-1]
            stacked = np.concatenate([aug.reshape(L * cfg.N, m), np.eye(m) / np.sqrt(alpha)])
            rhs = np.concatenate([batch.y.reshape(L * cfg.N, -1), np.zeros((m, 30))])
            want = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
            assert np.linalg.norm(xhat - want) <= bound * np.linalg.norm(want)


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


class TestChainDetectors:
    @pytest.mark.parametrize("detector", list(uplink.CHAIN_PHASES))
    def test_message_cost_per_hop(self, detector):
        cfg = make_cfg()
        block, batch = make_batch(cfg, seed=13)
        aug = genie_aug(block)
        chain = Chain.for_config(cfg)
        if detector == "sequential_ls":
            detect_sequential_ls(batch, aug, cfg, chain)
        else:
            detect_distributed_zf(batch, aug, accumulate_channel_gramian(aug, chain), chain)
        m = cfg.K + cfg.K_I
        # the Gramian sum once per block, the combined vectors once per symbol
        per_block, per_symbol = uplink.CHAIN_PHASES[detector]
        assert chain.log.phases() == [per_block, per_symbol]
        assert chain.log.per_link_symbols(per_block) == m * m
        assert chain.log.per_link_symbols(per_symbol) == 2 * m


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

    @settings(max_examples=40, deadline=None)
    @given(
        L=st.integers(1, 4),
        N=st.integers(1, 4),
        m=st.integers(1, 8),
        members=st.integers(1, 4),
        decades=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_qr_route_matches_the_pseudo_inverse(self, L, N, m, members, decades, seed):
        # the QR route and the SVD route agree to within kappa * eps, also
        # on ill-conditioned matrices (columns scaled over `decades`)
        m = min(m, L * N)
        rng = np.random.default_rng(seed)
        aug = crandn(rng, members, L, N, m) * np.logspace(0, -decades, m)
        F = zf_filters(aug, [None])[0]
        A = aug.reshape(members, L * N, m)
        want = pseudo_inverse(A)
        gap = np.linalg.norm(F - want, axis=(-2, -1))
        kappa = np.linalg.cond(A)
        eps = np.finfo(float).eps
        assert np.all(gap <= 64 * kappa * eps * np.linalg.norm(want, axis=(-2, -1)))

    def test_each_member_of_a_mixed_stack_gets_its_own_filter(self, rng):
        # a zero member and one with a duplicated column sit beside
        # full-rank members; none may move another to the other route
        aug = crandn(rng, 5, 4, 4, 7)
        aug[1] = 0.0
        aug[3, :, :, 2] = aug[3, :, :, 5]
        F = zf_filters(aug[..., :5], [aug[..., 5:]])[0]
        for i in range(len(aug)):
            assert np.array_equal(F[i], zf_filters(aug[i, ..., :5], [aug[i, ..., 5:]])[0])
        for i in (1, 3):
            assert np.array_equal(F[i], pseudo_inverse(aug[i].reshape(16, 7))[:5])
        assert np.allclose(F[0] @ aug[0].reshape(16, 7), np.eye(5, 7), atol=1e-12)

    def test_wide_matrix_is_the_pseudo_inverse(self, rng):
        # L N = 4 < m = 7: the SVD route, bit for bit
        aug = crandn(rng, 3, 1, 4, 7)
        F = zf_filters(aug[..., :5], [aug[..., 5:]])[0]
        assert np.array_equal(F, pseudo_inverse(aug.reshape(3, 4, 7))[..., :5, :])

    @pytest.mark.parametrize(
        ("L", "N", "K", "K_I"),
        [(4, 4, 5, 2), (1, 6, 5, 2), (4, 4, 5, 0), (2, 2, 2, 3)],
        ids=["tall", "wide", "no_interferers", "more_interferers"],
    )
    def test_every_row_is_the_pseudo_inverse(self, rng, L, N, K, K_I):
        # all K + K_I rows of detect_centralized against np.linalg.pinv
        # (cut at pseudo_inverse's rtol), on full-rank members and on
        # members the screen refits: a zero one and a duplicated column
        aug = crandn(rng, 4, L, N, K + K_I)
        aug[1] = 0.0
        aug[2, ..., 1] = aug[2, ..., 0]
        batch = UplinkSymbolBatch(np.zeros((4, K, 9), dtype=complex), None, crandn(rng, 4, L, N, 9))
        got = detect_centralized(batch, aug)
        A = aug.reshape(4, L * N, K + K_I)
        want = np.linalg.pinv(A, rcond=numerics.PINV_RTOL) @ batch.y.reshape(4, L * N, 9)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_singular_values_beyond_rtol_take_the_pseudo_inverse(self, rng, monkeypatch):
        # full rank, but sigma_min / sigma_max = 1e-13 is below rtol, so
        # the SVD drops sigma_min, and the QR route must not keep it
        U, _ = np.linalg.qr(crandn(rng, 16, 7))
        V, _ = np.linalg.qr(crandn(rng, 7, 7))
        A = (U * np.logspace(0, -13, 7)) @ herm(V)
        aug = np.stack([crandn(rng, 4, 4, 7), A.reshape(4, 4, 7)])
        seen = []

        def spy(M, *args, **kwargs):
            seen.append(M.copy())
            return pseudo_inverse(M, *args, **kwargs)

        monkeypatch.setattr(numerics, "pseudo_inverse", spy)
        F = zf_filters(aug[..., :5], [aug[..., 5:]])[0]
        assert len(seen) == 1 and np.array_equal(seen[0], A[None])
        assert np.array_equal(F[1], pseudo_inverse(A)[:5])
        assert np.array_equal(F[0], zf_filters(aug[0, ..., :5], [aug[0, ..., 5:]])[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_channels_rejected(self, rng, bad):
        aug = crandn(rng, 2, 4, 4, 7)
        aug[1, 2, 0, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            zf_filters(aug[..., :5], [aug[..., 5:]])

    def test_inverse_failure_is_numerical(self, rng, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(NumericalFailure):
            zf_filters(crandn(rng, 2, 4, 4, 5), [crandn(rng, 2, 4, 4, 2)])


class TestSharedUeColumns:
    """zf_filters: the UE columns E factored once, each method's
    interferer columns G by the QR of its residual (the block QR)."""

    @settings(max_examples=40, deadline=None)
    @given(
        L=st.integers(1, 4),
        N=st.integers(1, 4),
        K=st.integers(1, 5),
        K_I=st.integers(1, 4),
        members=st.integers(1, 4),
        decades=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_route_matches_the_pseudo_inverse(self, L, N, K, K_I, members, decades, seed):
        # within kappa * eps of the SVD route, also on ill-conditioned
        # matrices (columns scaled over `decades`) and on wide ones
        rng = np.random.default_rng(seed)
        aug = crandn(rng, members, L, N, K + K_I) * np.logspace(0, -decades, K + K_I)
        F = zf_filters(aug[..., :K], [aug[..., K:]])[0]
        A = aug.reshape(members, L * N, K + K_I)
        want = pseudo_inverse(A)[..., :K, :]
        gap = np.linalg.norm(F - want, axis=(-2, -1))
        kappa = np.linalg.cond(A)
        eps = np.finfo(float).eps
        assert np.all(gap <= 64 * kappa * eps * np.linalg.norm(want, axis=(-2, -1)))

    def test_each_method_gets_the_filter_it_gets_alone(self, rng):
        # one call for E beside three methods, into block-major slots, and
        # each method's own call: the same bits; G broadcasts over points
        E, Gs = crandn(rng, 3, 5, 4, 4, 5), [crandn(rng, 5, 4, 4, 2) for _ in range(2)]
        interferers = [None, *Gs]
        F = np.empty((3, 5, 3, 5, 16), dtype=complex)
        out = zf_filters(E, interferers, [F[:, :, i] for i in range(3)])
        assert all(o.base is F for o in out)
        for i, G in enumerate(interferers):
            assert np.array_equal(F[:, :, i], zf_filters(E, [G])[0])
            aug = E if G is None else np.concatenate([E, np.broadcast_to(G, E.shape[:-1] + (2,))], -1)
            assert np.array_equal(F[:, :, i], zf_filters(aug[..., :5], [aug[..., 5:]])[0])

    def test_a_residual_in_the_ue_span_takes_the_pseudo_inverse(self, rng, monkeypatch):
        # G's second column lies in E's span in member 1: R22 is singular
        # there alone, and only that member is refit; the UE-only filter
        # of the same E keeps the QR route
        E, G = crandn(rng, 3, 4, 4, 5), crandn(rng, 3, 4, 4, 2)
        G[1, ..., 1] = E[1] @ crandn(rng, 5)
        seen, original = [], numerics.pseudo_inverse

        def spy(M):
            seen.append(M.shape)
            return original(M)

        monkeypatch.setattr(numerics, "pseudo_inverse", spy)
        alone, paired = zf_filters(E, [None, G])
        assert seen == [(1, 16, 7)]
        aug = np.concatenate([E, G], axis=-1)
        assert np.array_equal(paired[1], original(aug[1].reshape(16, 7))[:5])
        for i in (0, 2):
            assert np.array_equal(paired[i], zf_filters(E[i], [G[i]])[0])
        assert np.allclose(alone, original(E.reshape(3, 16, 5)), atol=1e-12)

    def test_a_wide_method_beside_tall_ones(self, rng):
        # L N = 6: E (5 columns) is tall, [E, G] (7) wide and whole to
        # pseudo_inverse, bit for bit
        E, G = crandn(rng, 2, 1, 6, 5), crandn(rng, 2, 1, 6, 2)
        alone, paired = zf_filters(E, [None, G])
        A = np.concatenate([E, G], axis=-1).reshape(2, 6, 7)
        assert np.array_equal(paired, pseudo_inverse(A)[..., :5, :])
        assert np.array_equal(alone, zf_filters(E, [None])[0])


class TestBer:
    """Bit scoring as the sweep does it: per-UE counts from
    count_bit_errors, and a Wilson interval on the totals."""

    def test_exact_estimates(self, rng):
        x = draw_qpsk(rng, 3, 100)
        errors = count_bit_errors(x, x)
        assert np.array_equal(errors, np.zeros(3, dtype=int))
        assert wilson_interval(0, 2 * x.size)[0] == 0.0

    def test_negated_estimates(self, rng):
        x = draw_qpsk(rng, 3, 100)
        assert np.array_equal(count_bit_errors(-x, x), np.full(3, 200))

    def test_independent_noise_gives_half(self, rng):
        x = draw_qpsk(rng, 5, 1000)
        bits = 2 * x.size
        ber = count_bit_errors(crandn(rng, 5, 1000), x).sum() / bits
        assert abs(ber - 0.5) < 3 * 0.5 / np.sqrt(bits)

    def test_ci_brackets_ber(self, rng):
        x = draw_qpsk(rng, 2, 500)
        errors = count_bit_errors(x + 0.5 * crandn(rng, 2, 500), x)
        assert errors.shape == (2,)
        total, bits = int(errors.sum()), 2 * x.size
        lo, hi = wilson_interval(total, bits)
        assert 0.0 < lo <= total / bits <= hi < 1.0

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    def test_count_requires_matching_shapes(self, rng):
        with pytest.raises(ValueError):
            count_bit_errors(crandn(rng, 2, 3), crandn(rng, 3, 2))

    def test_truth_of_the_trailing_shape_serves_every_leading_index(self, rng):
        estimates = crandn(rng, 3, 4, 5, 7)
        x = draw_qpsk(rng, 5, 7 * 4).reshape(5, 4, 7).swapaxes(0, 1)
        want = count_bit_errors(estimates, np.broadcast_to(x, estimates.shape))
        assert np.array_equal(count_bit_errors(estimates, x), want)
        assert np.array_equal(count_bit_errors(estimates, x[-1]), count_bit_errors(
            estimates, np.broadcast_to(x[-1], estimates.shape)
        ))
        for wrong in (x[:3], x[..., :6], x[None, None], x[:, None]):
            with pytest.raises(ValueError, match="shapes differ"):
                count_bit_errors(estimates, wrong)

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

    def test_method_axis_broadcasts_against_the_payload(self):
        # augmented channels of M methods (M, B, ...) against one payload
        # stack (B, ...): each method gets exactly its own call's result
        cfg = make_cfg()
        drawn = [make_batch(cfg, seed=10 * b) for b in range(3)]
        stack = UplinkSymbolBatch(*(np.stack(a) for a in zip(*((b.x, b.s, b.y) for _, b in drawn))))
        genie = np.stack([genie_aug(block) for block, _ in drawn])
        noisy = genie + 0.1 * crandn(np.random.default_rng(5), *genie.shape)
        augs = np.stack([genie, noisy, np.flip(noisy, axis=-1)])

        def detections(aug):
            gamma = accumulate_channel_gramian(aug, Chain.for_config(cfg))
            return (
                detect_centralized(stack, aug),
                detect_distributed_zf(stack, aug, gamma, Chain.for_config(cfg)),
                detect_sequential_ls(stack, aug, cfg, Chain.for_config(cfg)).xhat,
            )

        stacked = detections(augs)
        for m, aug in enumerate(augs):
            for got, want in zip(stacked, detections(aug), strict=True):
                assert got.shape == (len(augs), *want.shape)
                assert np.array_equal(got[m], want)
        ue = stacked[0][..., : cfg.K, :]
        errors = count_bit_errors(ue, np.broadcast_to(stack.x, ue.shape))
        for m in range(len(augs)):
            assert np.array_equal(errors[m], count_bit_errors(ue[m], stack.x))

    def test_ue_rows_of_the_halves_match_the_detectors(self):
        # the channel side on channels stacked over methods and blocks,
        # then the UE rows applied to one payload stack, give the UE rows
        # of each detector bit for bit (payload size as in the sweep)
        cfg = make_cfg()
        drawn = [make_batch(cfg, seed=10 * b, n_symbols=150) for b in range(4)]
        stack = UplinkSymbolBatch(*(np.stack(a) for a in zip(*((b.x, b.s, b.y) for _, b in drawn))))
        genie = np.stack([genie_aug(block) for block, _ in drawn])
        augs = np.stack([genie, genie + 0.1 * crandn(np.random.default_rng(5), *genie.shape)])
        K = cfg.K
        gamma = accumulate_channel_gramian(augs, Chain.for_config(cfg))
        got = apply_zf_filter(stack.y, zf_filters(augs[..., :K], [augs[..., K:]])[0])
        assert np.array_equal(got, detect_centralized(stack, augs)[..., :K, :])
        gamma_inv = inverse_gramian(gamma)[..., :K, :]
        got = apply_chain(stack.y, herm(augs), gamma_inv, Chain.for_config(cfg), "distributed_zf")
        want = detect_distributed_zf(stack, augs, gamma, Chain.for_config(cfg))[..., :K, :]
        assert np.array_equal(got, want)
        # so does sequential LS with the UE rows of its covariance; each
        # member of the (M, B) stack gets its own one-block call's UE rows
        cov = sequential_ls_covariance(augs, cfg, Chain.for_config(cfg))[..., :K, :]
        got = apply_chain(stack.y, herm(augs), cov, Chain.for_config(cfg), "sequential_ls")
        for m, aug in enumerate(augs):
            for b, (_, batch) in enumerate(drawn):
                alone = detect_sequential_ls(batch, aug[b], cfg, Chain.for_config(cfg))
                assert np.array_equal(got[m, b], alone.xhat[:K])

    @pytest.mark.parametrize("seed", range(5))
    def test_distributed_zf_matches_a_solve(self, seed):
        rng = np.random.default_rng(seed)
        cfg = make_cfg()
        aug = crandn(rng, 2, 3, cfg.L, cfg.N, cfg.K + cfg.K_I)
        batch = UplinkSymbolBatch(x=None, s=None, y=crandn(rng, 3, cfg.L, cfg.N, 20))
        gamma = accumulate_channel_gramian(aug, Chain.for_config(cfg))
        assert np.linalg.cond(gamma).max() < 1e3
        xhat = detect_distributed_zf(batch, aug, gamma, Chain.for_config(cfg))
        ybar = (herm(aug) @ batch.y).sum(axis=-3)
        want = np.linalg.solve(gamma, ybar)
        gap = np.linalg.norm(xhat - want, axis=(-2, -1)) / np.linalg.norm(want, axis=(-2, -1))
        assert gap.max() <= 1e-12
