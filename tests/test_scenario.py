import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_cfg, unit_geometry
from oossim.numerics import herm
from oossim.scenario import (
    MAX_GAIN_DB,
    MIN_GAIN_DB,
    STREAMS,
    SystemConfig,
    block_generators,
    build_geometry,
    build_pilot_book,
    crandn,
    draw_block,
    path_loss_db,
)


class TestSystemConfig:
    def test_defaults_are_reference_setup(self):
        cfg = SystemConfig()
        assert (cfg.L, cfg.N, cfg.K, cfg.K_I) == (4, 4, 5, 2)
        assert (cfg.tau_p, cfg.tau_c) == (50, 200)
        assert cfg.oos_snr == pytest.approx(10 ** (-0.3))
        assert cfg.ap_order == (4, 3, 2, 1)

    def test_pilot_length_identifiability(self):
        with pytest.raises(ValueError):
            make_cfg(tau_p=4, K=3, K_I=2)

    def test_block_length(self):
        with pytest.raises(ValueError):
            make_cfg(tau_p=10, tau_c=10)

    def test_ap_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            make_cfg(ap_order=(1, 1, 2))
        cfg = make_cfg(ap_order=(2, 1, 3))
        assert cfg.ap_order == (2, 1, 3)

    @pytest.mark.parametrize("field", ["rho", "oos_snr", "alpha"])
    def test_positive_scalars(self, field):
        with pytest.raises(ValueError):
            make_cfg(**{field: 0.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["rho", "oos_snr", "alpha"])
    def test_finite_scalars(self, field, value):
        with pytest.raises(ValueError, match="finite and positive"):
            make_cfg(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("L", 2.5, "L must be an integer"),
            ("trials", True, "trials must be an integer"),
            ("seed", -1, "seed must be nonnegative"),
            ("rho", "abc", "rho must be a real number"),
            ("oos_snr", False, "oos_snr must be a real number"),
            ("area_side_m", float("nan"), "must be finite"),
            ("noise_floor_dbw", float("inf"), "must be finite"),
            ("ap_order", 5, "ap_order must be a list"),
            ("ap_order", (1.5, 2, 3), "ap_order entry must be an integer"),
        ],
    )
    def test_malformed_fields(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            make_cfg(**{field: value})

    def test_numpy_scalars_are_numbers(self):
        cfg = make_cfg(L=np.int64(3), rho=np.float64(2.0), ap_order=(1, np.int64(3), 2))
        assert cfg.ap_order == (1, 3, 2)

    def test_noise_floor_bounds_the_largest_gain(self):
        # 1631 dB over noise at the nearest AP-node distance of the defaults
        with pytest.raises(ValueError, match="noise_floor_dbw"):
            SystemConfig(noise_floor_dbw=-1700.0)
        ceiling = float(path_loss_db(math.hypot(5.0, 10.0))) - MAX_GAIN_DB
        for floor in (ceiling, -124.0, 0.0):
            assert SystemConfig(noise_floor_dbw=floor).noise_floor_dbw == floor
        with pytest.raises(ValueError, match="noise_floor_dbw"):
            SystemConfig(noise_floor_dbw=ceiling - 1e-9)
        # at distance 0 the gain has no bound, whatever the floor
        for floor in (-1700.0, 0.0):
            with pytest.raises(ValueError, match="ap_height_m and ue_margin_m"):
                SystemConfig(ap_height_m=0.0, ue_margin_m=0.0, noise_floor_dbw=floor)
        SystemConfig(ap_height_m=0.0, ue_margin_m=1.0)

    def test_oos_snr_bounds_the_interferers_largest_gain(self):
        # the interferers' largest received power over noise, at the
        # nearest AP-node distance of the defaults, is held to MAX_GAIN_DB
        nearest_db = float(path_loss_db(math.hypot(5.0, 10.0))) + 124.0
        ceiling = 10 ** ((MAX_GAIN_DB - nearest_db) / 10)
        assert SystemConfig(oos_snr=0.999 * ceiling).oos_snr == 0.999 * ceiling
        for floor, oos_snr in ((-124.0, 1.001 * ceiling), (nearest_db - 124.0 - MAX_GAIN_DB, 2.0)):
            with pytest.raises(ValueError, match="oos_snr=.* dB over noise"):
                SystemConfig(oos_snr=oos_snr, noise_floor_dbw=floor)

    def test_the_farthest_distance_bounds_the_geometry(self):
        # its square stays finite, and its gain over noise a normal float
        floor = float(path_loss_db(math.hypot(500.0, 500.0, 5.0))) - MIN_GAIN_DB
        assert SystemConfig(noise_floor_dbw=floor - 1e-9).noise_floor_dbw == floor - 1e-9
        message = "area_side_m, ap_height_m and noise_floor_dbw give .* farthest AP-node distance"
        for fields in (
            dict(area_side_m=1e160), dict(ap_height_m=1e200), dict(area_side_m=5e307),
            dict(noise_floor_dbw=floor + 1e-9), dict(area_side_m=1e100),
        ):
            with pytest.raises(ValueError, match=message):
                SystemConfig(**fields)

    def test_noise_floor_scales_gains(self, rng):
        base = build_geometry(SystemConfig(noise_floor_dbw=0.0), np.random.default_rng(3))
        scaled = build_geometry(SystemConfig(noise_floor_dbw=-10.0), np.random.default_rng(3))
        assert np.allclose(scaled.beta_ue, 10.0 * base.beta_ue)


class TestPathLoss:
    def test_one_meter_reference(self):
        assert path_loss_db(1.0) == pytest.approx(-30.5)

    def test_five_meter_value(self):
        # horizontal distance 0 with a 5 m AP height
        assert path_loss_db(5.0) == pytest.approx(-56.15, abs=0.01)


class TestGeometry:
    def test_reference_perimeter_spacing(self, rng):
        cfg = SystemConfig()
        geo = build_geometry(cfg, rng)
        # independent perimeter arithmetic: 4 APs on a 2000 m border path,
        # 500 m apart, starting at the origin corner
        expected = np.array(
            [[0, 0, 5], [500, 0, 5], [500, 500, 5], [0, 500, 5]], dtype=float
        )
        assert np.allclose(geo.ap_positions, expected)

    def test_perimeter_spacing_generic(self, rng):
        cfg = SystemConfig(L=8, ap_order=tuple(range(8, 0, -1)))
        geo = build_geometry(cfg, rng)
        pts = geo.ap_positions[:, :2]
        # consecutive APs are one-eighth of the border path apart
        hops = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
        assert np.all(hops <= 500.0 + 1e-9)

    def test_height_enters_distance(self, rng):
        cfg = SystemConfig()
        geo = build_geometry(cfg, rng)
        d = np.linalg.norm(
            geo.ap_positions[:, None, :] - geo.ue_positions[None, :, :], axis=2
        )
        expected = 10 ** ((path_loss_db(d) - cfg.noise_floor_dbw) / 10)
        assert np.allclose(geo.beta_ue, expected)
        assert np.all(d >= cfg.ap_height_m)

    def test_ue_margin_respected(self, rng):
        cfg = SystemConfig()
        geo = build_geometry(cfg, rng)
        for pos in (geo.ue_positions, geo.oos_positions):
            assert np.all(pos[:, :2] >= cfg.ue_margin_m)
            assert np.all(pos[:, :2] <= cfg.area_side_m - cfg.ue_margin_m)
            assert np.allclose(pos[:, 2], 0.0)

    def test_degenerate_area_rejected(self):
        with pytest.raises(ValueError, match="ue_margin_m < area_side_m / 2"):
            SystemConfig(area_side_m=10.0, ue_margin_m=5.0)

    def test_beta_decreases_with_distance(self):
        d = np.linspace(5, 700, 50)
        beta = 10 ** (path_loss_db(d) / 10)
        assert np.all(np.diff(beta) < 0)

    def test_deterministic_given_seed(self):
        cfg = SystemConfig()
        g1 = build_geometry(cfg, np.random.default_rng(11))
        g2 = build_geometry(cfg, np.random.default_rng(11))
        assert np.array_equal(g1.ue_positions, g2.ue_positions)
        assert np.array_equal(g1.beta_ue, g2.beta_ue)

class TestPilotBook:
    def test_reference_shapes(self):
        book = build_pilot_book(SystemConfig())
        assert book.Phi.shape == (50, 5)
        assert book.Psi.shape == (50, 45)

    def test_complement_identity(self):
        book = build_pilot_book(SystemConfig())
        proj = np.eye(50) - book.Phi @ herm(book.Phi)
        assert np.linalg.norm(book.Psi @ herm(book.Psi) - proj) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(tau_p=st.integers(2, 32), K=st.integers(1, 16))
    @example(tau_p=50, K=5)
    @example(tau_p=1, K=1)
    @example(tau_p=200, K=5)
    def test_orthonormality_invariants(self, tau_p, K):
        if K > tau_p:
            K = tau_p
        book = build_pilot_book(SystemConfig(tau_p=tau_p, K=K, K_I=0, tau_c=tau_p + 1))
        # scipy is the reference only: the pilots keep their old values
        ref = scipy.linalg.dft(tau_p, scale="sqrtn")
        for ours, theirs in ((book.Phi, ref[:, :K]), (book.Psi, ref[:, K:])):
            assert np.array_equal(
                ours.view(np.float64), np.ascontiguousarray(theirs).view(np.float64)
            )
        assert np.linalg.norm(herm(book.Phi) @ book.Phi - np.eye(K)) < 1e-12
        assert (
            np.linalg.norm(herm(book.Psi) @ book.Psi - np.eye(tau_p - K)) < 1e-12
        )
        assert np.linalg.norm(herm(book.Phi) @ book.Psi) < 1e-12


class TestCrandn:
    @pytest.mark.parametrize("shape", [(16, 4, 150), (16, 4, 50), (4, 4, 150), (3,), (0,), (2, 0, 5)])
    def test_equals_the_two_call_formula(self, shape):
        ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(3):  # consecutive draws keep the stream in step
            re, im = theirs.standard_normal(shape), theirs.standard_normal(shape)
            z = crandn(ours, *shape)
            assert z.shape == shape and z.dtype == complex
            want = (re + 1j * im) / np.sqrt(2.0)  # the complex divide
            assert np.array_equal(z.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("generators, rows", [(2, 3), (3, 2)])
    def test_one_generator_per_row(self, generators, rows):
        rngs = [np.random.default_rng(seed) for seed in range(generators)]
        with pytest.raises(ValueError):
            crandn(rngs, rows, 2)

    def test_no_full_size_temporaries(self):
        rng = np.random.default_rng(0)
        crandn(rng, 16, 4, 150)  # warm up
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            z = crandn(rng, 16, 4, 150)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * z.nbytes


class TestDrawBlock:
    def test_shapes_and_determinism(self):
        cfg = make_cfg()
        geo = unit_geometry(cfg)
        b1 = draw_block(cfg, geo, np.random.default_rng(5))
        b2 = draw_block(cfg, geo, np.random.default_rng(5))
        assert b1.H.shape == (cfg.L, cfg.N, cfg.K)
        assert b1.G.shape == (cfg.L, cfg.N, cfg.K_I)
        assert b1.S.shape == (cfg.tau_p, cfg.K_I)
        assert b1.pilot_noise.shape == (cfg.L, cfg.N, cfg.tau_p)
        for a, b in [(b1.H, b2.H), (b1.G, b2.G), (b1.S, b2.S), (b1.pilot_noise, b2.pilot_noise)]:
            assert np.array_equal(a, b)

    def test_no_interferers(self):
        cfg = make_cfg(K_I=0)
        block = draw_block(cfg, unit_geometry(cfg), np.random.default_rng(0))
        assert block.G.shape[2] == 0 and block.S.shape[1] == 0

    def test_unit_gain_channel_variance(self):
        # sample variance of h entries over >= 1e4 draws within 5%
        cfg = make_cfg(L=2, N=5, K=10, tau_p=15, tau_c=30)
        geo = unit_geometry(cfg, beta=1.0)
        rng = np.random.default_rng(99)
        samples = np.concatenate(
            [draw_block(cfg, geo, rng).H.ravel() for _ in range(120)]
        )
        assert samples.size >= 10_000
        var = np.mean(np.abs(samples) ** 2)
        assert abs(var - 1.0) < 0.05

    def test_variance_tracks_beta(self):
        cfg = make_cfg(L=1, N=8, K=2, tau_p=8, tau_c=20, K_I=1)
        geo = unit_geometry(cfg)
        geo.beta_ue[:] = np.array([[4.0, 0.25]])
        rng = np.random.default_rng(3)
        draws = np.stack([draw_block(cfg, geo, rng).H for _ in range(400)])
        var = np.mean(np.abs(draws) ** 2, axis=(0, 1, 2))
        assert np.allclose(var, [4.0, 0.25], rtol=0.1)

    def test_oos_signal_power(self):
        cfg = make_cfg(oos_snr=0.5, tau_p=40, tau_c=80, K=3, K_I=2)
        rng = np.random.default_rng(17)
        geo = unit_geometry(cfg)
        power = np.mean(
            [np.mean(np.abs(draw_block(cfg, geo, rng).S) ** 2) for _ in range(200)]
        )
        assert power == pytest.approx(0.5, rel=0.05)

    def test_block_streams_independent(self):
        (a, c), (b, _), _ = block_generators(1, [0, 1])
        a, b, c = (rng.standard_normal(4) for rng in (a, b, c))
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)
        assert np.allclose(a, block_generators(1, [0])[0][0].standard_normal(4))


class TestBlockGenerators:
    """Every generator block_generators seeds is in numpy's own state for
    its (seed, block, stream), whatever the word counts of the seed and
    the blocks."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**200 - 1), more=st.lists(st.integers(0, 2**70), max_size=3))
    @example(seed=0, more=[])
    @example(seed=2**32 - 1, more=[5])
    @example(seed=2**64 + 5, more=[2**64])
    def test_every_state_is_numpys(self, seed, more):
        blocks = [0, 2**32 - 1, 2**32, *more]
        by_stream = block_generators(seed, blocks)
        assert STREAMS == (0, 1, 2) and len(by_stream) == len(STREAMS)
        for stream, rngs in zip(STREAMS, by_stream):
            for b, rng in zip(blocks, rngs, strict=True):
                numpys = np.random.default_rng(np.random.SeedSequence((seed, b, stream)))
                assert rng.bit_generator.state == numpys.bit_generator.state, (b, stream)
