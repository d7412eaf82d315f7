import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import crandn, make_cfg
from oossim import experiments, fronthaul, oos_estimation, uplink
from oossim.fronthaul import (
    CPU,
    Chain,
    ChainError,
    analytic_per_link,
    hermitian_symbols,
    load_report,
    matrix_symbols,
    vector_symbols,
)
from oossim.numerics import DegeneracyError, herm, hermitian_top_eigvectors
from oossim.scenario import SystemConfig


def scalar(value):
    return np.array([[value]])


# a per-AP array for chains of up to 4 APs: AP ap's slot is scalar(ap)
AP_IDS = np.arange(1.0, 5.0).reshape(4, 1, 1)


class TestMessageSizes:
    def test_general_matrix_costs_two_per_entry(self, rng):
        S = np.zeros((45, 2), dtype=complex)
        assert matrix_symbols(S) == 180

    def test_hermitian_costs_n_squared(self):
        assert hermitian_symbols(np.zeros((45, 45))) == 2025
        assert hermitian_symbols(np.zeros((7, 7))) == 49
        with pytest.raises(ValueError):
            hermitian_symbols(np.zeros((3, 4)))

    def test_per_symbol_vectors(self):
        assert vector_symbols(np.zeros((7, 150))) == 14

    def test_stacked_payloads_count_per_block(self):
        # a payload stacked over 4 blocks is sized by its trailing axes
        assert matrix_symbols(np.zeros((4, 45, 2), dtype=complex)) == 180
        assert hermitian_symbols(np.zeros((4, 45, 45))) == 2025
        assert vector_symbols(np.zeros((4, 7, 150))) == 14


class TestChainPass:
    def test_identity_fold(self):
        init = scalar(3.0)
        chain = Chain((1, 2, 3))
        assert chain.run("p", lambda x: x, matrix_symbols, init) is init
        records = chain.log.records
        assert [r.real_symbols for r in records] == [2, 2, 2]
        assert records[-1].receiver == CPU

    def test_summation_fold(self):
        final = Chain((1, 2, 3, 4)).run("p", lambda acc, v: acc + v, matrix_symbols, 0, AP_IDS)
        assert final[0, 0] == 10

    def test_gramian_fold_per_link_load(self):
        r = 45
        chain = Chain((1, 2, 3, 4))
        chain.run("p", lambda acc: acc + np.eye(r), hermitian_symbols, 0)
        assert all(rec.real_symbols == 2025 for rec in chain.log.records)

    def test_fold_failure_names_hop(self):
        def fold(x, v):
            if v[0, 0] == 3:
                raise RuntimeError("boom")
            return scalar(1.0)

        chain = Chain((1, 2, 3, 4))
        with pytest.raises(ChainError, match="AP 3"):
            chain.run("p", fold, matrix_symbols, None, AP_IDS)
        assert chain.log.records == []  # a failed pass logs none of its links

    def test_unsized_payload_names_hop(self):
        # a payload its pass's size rule rejects fails at the hop that sent it
        def fold(x, v):
            return np.zeros((3, 4)) if v[0, 0] == 2 else np.zeros((3, 3))

        with pytest.raises(ChainError, match="AP 2"):
            Chain((1, 2, 3)).run("p", fold, hermitian_symbols, None, AP_IDS)

    def test_numerical_failure_keeps_its_class(self):
        def fold(x, v):
            if v[0, 0] == 3:
                raise DegeneracyError("rank deficient")
            return scalar(1.0)

        with pytest.raises(DegeneracyError, match="rank deficient.*AP 3"):
            Chain((1, 2, 3, 4)).run("p", fold, matrix_symbols, None, AP_IDS)

    def test_duplicate_order_rejected(self):
        # checked once, when the chain is built
        for order in ((1, 1, 2), ()):
            with pytest.raises(ValueError):
                Chain(order)
        assert Chain([3, 1], log=None).order == (3, 1)

    def test_link_sequence(self):
        chain = Chain((4, 3, 2, 1))
        chain.run("p", lambda x: scalar(0.0), matrix_symbols)
        assert [(r.sender, r.receiver) for r in chain.log.records] == [
            (4, 3), (3, 2), (2, 1), (1, CPU)
        ]

    def test_broadcast_covers_links_in_reverse(self):
        chain = Chain((4, 3, 2, 1))
        chain.broadcast("bc", np.zeros((7, 1)), vector_symbols)
        records = chain.log.records
        assert [(r.sender, r.receiver) for r in records] == [
            (CPU, 1), (1, 2), (2, 3), (3, 4)
        ]
        assert [r.real_symbols for r in records] == [14] * 4
        assert {r.phase for r in records} == {"bc"}

    def test_unlogged_chain_does_no_accounting(self, monkeypatch):
        def size(payload):
            raise AssertionError("an unlogged chain sized a payload")

        def no_record(*args):
            raise AssertionError("an unlogged chain made a link record")

        monkeypatch.setattr(fronthaul, "LinkRecord", no_record)
        chain = Chain((2, 1, 3), log=None)
        assert chain.run("p", lambda acc, v: acc + v, size, 0, AP_IDS)[0, 0] == 6
        chain.broadcast("bc", scalar(1.0), size)
        assert chain.log is None

        def fold(x, v):
            if v[0, 0] == 1:
                raise RuntimeError("boom")
            return scalar(1.0)

        with pytest.raises(ChainError, match=r"AP 1 \(hop 2/3\)"):
            chain.run("p", fold, size, None, AP_IDS)

        def degenerate(x, v):
            if v[0, 0] == 1:
                raise DegeneracyError("rank deficient")
            return x

        with pytest.raises(DegeneracyError, match=r"AP 1 \(hop 2/3\)"):
            chain.run("p", degenerate, size, None, AP_IDS)

    def test_each_fold_gets_its_own_aps_slots(self):
        # per-AP arrays with leading stack axes; AP `ap` sees slot ap - 1
        # of each, in visit order, whatever the order
        order = (2, 4, 1, 3)
        first = np.arange(3 * 4 * 2 * 2).reshape(3, 4, 2, 2)
        second = -first
        seen = []

        def fold(payload, a, b):
            seen.append((a, b))
            return payload

        Chain(order, log=None).run("p", fold, matrix_symbols, None, first, second)
        for ap, (a, b) in zip(order, seen, strict=True):
            assert np.array_equal(a, first[:, ap - 1]) and np.array_equal(b, second[:, ap - 1])


class TestPerApSlots:
    """Each pipeline fold gets its own AP's slot of every per-AP array,
    under a visit order that is not the AP numbering."""

    ORDER = (2, 4, 1, 3)

    def test_detection_folds(self):
        rng = np.random.default_rng(5)
        cfg = make_cfg(L=4, ap_order=self.ORDER)
        N, m, T = cfg.N, cfg.K + cfg.K_I, 6
        aug, y = crandn(rng, 2, cfg.L, N, m), crandn(rng, 2, cfg.L, N, T)
        # the recursions written out in visit order: the Kalman form of
        # sequential LS, whose final C and estimate the information form gives
        C, xhat = cfg.alpha * np.eye(m), np.zeros((2, m, T))
        for ap in self.ORDER:
            A = aug[:, ap - 1]
            gain = herm(np.linalg.solve(np.eye(N) + A @ C @ herm(A), A @ C))
            xhat = xhat + gain @ (y[:, ap - 1] - A @ xhat)
            C = (np.eye(m) - gain @ A) @ C
            C = 0.5 * (C + herm(C))
        chain = Chain.for_config(cfg)
        # chain sums equal the visit-order sum bit for bit
        gamma = sum(herm(aug[:, ap - 1]) @ aug[:, ap - 1] for ap in self.ORDER)
        assert np.array_equal(uplink.accumulate_channel_gramian(aug, chain), gamma)
        combined = sum(herm(aug[:, ap - 1]) @ y[:, ap - 1] for ap in self.ORDER)
        every_row = [(slice(None), np.eye(m))]
        [got] = uplink.apply_chain(y, herm(aug), every_row, chain, "distributed_zf")
        assert np.array_equal(got, combined)
        got = uplink.sequential_ls_covariance(aug, cfg, chain)
        assert np.allclose(got, C)
        [got] = uplink.apply_chain(y, herm(aug), [(slice(None), got)], chain, "sequential_ls")
        assert np.allclose(got, xhat)

    @pytest.mark.parametrize("N", [1, 4])
    def test_gramian_passes_equal_the_per_hop_sum_bit_for_bit(self, N, monkeypatch):
        rng = np.random.default_rng(9)
        cfg = make_cfg(L=4, N=N, ap_order=self.ORDER)
        m = cfg.K + cfg.K_I
        aug, zpsi = crandn(rng, 2, cfg.L, N, m), crandn(rng, 2, cfg.L, N, cfg.tau_p - cfg.K)

        def per_hop_sum(x, total=None):
            for ap in self.ORDER:
                term = herm(x[:, ap - 1]) @ x[:, ap - 1]
                total = term if total is None else total + term
            return total

        def same_bits(a, b):
            return np.array_equal(a.view(np.uint64), b.view(np.uint64))

        chain = Chain.for_config(cfg)
        assert same_bits(uplink.accumulate_channel_gramian(aug, chain), per_hop_sum(aug))
        J = per_hop_sum(aug, np.eye(m) * (1 / cfg.alpha))
        assert same_bits(uplink.sequential_ls_covariance(aug, cfg, chain), np.linalg.inv(J))
        totals = []
        eigvectors = oos_estimation.hermitian_top_eigvectors

        def spy(A, *args, **kwargs):
            totals.append(A)
            return eigvectors(A, *args, **kwargs)

        monkeypatch.setattr(oos_estimation, "hermitian_top_eigvectors", spy)
        oos_estimation.run_gramian_method(zpsi, cfg, chain)
        assert same_bits(totals[0], per_hop_sum(zpsi))

    def test_interferer_folds(self):
        rng = np.random.default_rng(6)
        cfg = make_cfg(L=4, ap_order=self.ORDER)
        zpsi = crandn(rng, 2, cfg.L, cfg.N, cfg.tau_p - cfg.K)
        chain = Chain.for_config(cfg)
        total = sum(herm(zpsi[:, ap - 1]) @ zpsi[:, ap - 1] for ap in self.ORDER)
        want = hermitian_top_eigvectors(total, cfg.K_I)[0]
        assert np.array_equal(oos_estimation.run_gramian_method(zpsi, cfg, chain), want)
        local = oos_estimation.local_svd_estimate(zpsi, cfg.K_I)[0]
        S = local[:, self.ORDER[0] - 1]
        for ap in self.ORDER[1:]:
            S = oos_estimation.rotate_and_average_step(S, local[:, ap - 1])
        got = oos_estimation.run_sequential_procrustes(zpsi, cfg, chain, local_bases=local)
        assert np.allclose(got, S)


class TestChainSums:
    """Chain sums add in place into the first AP's term, which is a fresh
    array, so no pass writes into what the caller passed in."""

    def test_add_and_forward(self):
        first = np.array([1.0, -2.0])
        acc = fronthaul.add_and_forward(None, first)
        assert acc is first
        assert fronthaul.add_and_forward(acc, np.array([0.5, 0.5])) is first
        assert np.array_equal(first, [1.5, -1.5])

    @pytest.mark.parametrize("L", [1, 3])
    def test_no_pass_writes_into_its_inputs(self, L):
        rng = np.random.default_rng(8)
        cfg = make_cfg(L=L, N=8, ap_order=tuple(range(L, 0, -1)))
        m = cfg.K + cfg.K_I
        aug, y = crandn(rng, 2, L, cfg.N, m), crandn(rng, 2, L, cfg.N, 5)
        zpsi = crandn(rng, 2, L, cfg.N, cfg.tau_p - cfg.K)
        aug_h = herm(aug)
        inputs = (aug, aug_h, y, zpsi)
        copies = [x.copy() for x in inputs]
        chain = Chain.for_config(cfg)
        gamma = uplink.accumulate_channel_gramian(aug, chain)
        gamma_copy = gamma.copy()
        every_row = [(slice(None), np.eye(m))]
        [combined] = uplink.apply_chain(y, aug_h, every_row, chain, "distributed_zf")
        xhat = uplink.detect_distributed_zf(uplink.UplinkSymbolBatch(None, None, y), aug, gamma, chain)
        sbar = oos_estimation.run_gramian_method(zpsi, cfg, chain)
        for x, copy in zip(inputs, copies, strict=True):
            assert np.array_equal(x, copy)
        assert np.array_equal(gamma, gamma_copy)
        for out in (gamma, combined, xhat, sbar):
            assert not any(np.shares_memory(out, x) for x in inputs)
        # a second pass leaves the first one's sum alone
        uplink.accumulate_channel_gramian(aug, chain)
        assert np.array_equal(gamma, gamma_copy)


class TestLoadReportAggregation:
    def build(self):
        chain = Chain(order=(2, 1))
        chain.run("p", lambda x, v: v, matrix_symbols, None, AP_IDS)
        chain.broadcast("b", scalar(0.0), matrix_symbols)
        return chain.log

    def test_phase_listing_and_totals(self):
        log = self.build()
        assert log.phases() == ["p", "b"]

    def test_per_link_uniformity_check(self):
        log = self.build()
        assert log.per_link_symbols("p") == 2
        log.records.append(log.records[0])
        # duplicated record doubles one link -> no longer uniform
        with pytest.raises(ValueError):
            log.per_link_symbols("p")


class TestLoadFormulas:
    def test_reference_loads(self):
        cfg = SystemConfig()
        report = load_report("seq_procrustes", cfg)
        assert report.per_link_symbols("oos_forward") == 180
        report = load_report("seq_gramian", cfg)
        assert report.per_link_symbols("oos_forward") == 2025

    def test_no_interferers_no_oos_messages(self):
        cfg = SystemConfig(K_I=0)
        report = load_report("seq_procrustes", cfg)
        assert "oos_forward" not in report.phases()

    def test_local_processing_without_interferers(self):
        report = load_report("local_processing", SystemConfig(K_I=0))
        assert report.per_link_symbols("channel_gramian") == 25

    def test_detector_loads(self):
        cfg = SystemConfig()
        report = load_report("seq_procrustes", cfg, detector="distributed_zf")
        assert report.per_link_symbols("channel_gramian") == 49
        assert report.per_link_symbols("uplink_combine") == 14
        # the covariance once per block (m^2), the estimate per symbol (2m)
        report = load_report("no_suppression", cfg, detector="sequential_ls")
        assert report.per_link_symbols("seq_ls_covariance") == 25
        assert report.per_link_symbols("uplink_seq_ls") == 2 * 5

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            load_report("nonexistent", SystemConfig())

    @settings(max_examples=8, deadline=None)
    @given(L=st.sampled_from([2, 4, 8, 16]), method=st.sampled_from(["seq_procrustes", "seq_gramian"]))
    def test_per_link_load_independent_of_L(self, L, method):
        cfg = SystemConfig(L=L, ap_order=tuple(range(L, 0, -1)))
        report = load_report(method, cfg)
        expected = 180 if method == "seq_procrustes" else 2025
        assert report.per_link_symbols("oos_forward") == expected
        assert len(report.link_totals("oos_forward")) == L

    def test_analytic_table_matches_formulas(self):
        cfg = make_cfg(K=5, K_I=2, tau_p=50, tau_c=100, L=4, ap_order=(4, 3, 2, 1))
        table = analytic_per_link("seq_procrustes", cfg, "sequential_ls")
        assert table == {
            "oos_forward": 180,
            "oos_broadcast": 180,
            "seq_ls_covariance": 49,
            "uplink_seq_ls": 2 * 7,
        }


class TestLayering:
    """The transport knows no method or detector: the ledger that does
    lives in experiments and is only re-exported here."""

    TREE = ast.parse(Path(fronthaul.__file__).read_text())

    def test_no_method_or_detector_names(self):
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(self.TREE)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node) is not None
        }
        names = experiments.METHODS + experiments.DETECTORS
        strings = [
            node.value
            for node in ast.walk(self.TREE)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings
        ]
        assert [s for s in strings if any(name in s for name in names)] == []

    def test_imports_only_numerics_besides_the_ledger_re_export(self):
        package_imports = []
        for top in self.TREE.body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.level:
                    modules = [node.module] if node.module else [a.name for a in node.names]
                    package_imports += [(getattr(top, "name", None), m) for m in modules]
                elif isinstance(node, ast.ImportFrom):
                    assert not node.module.startswith("oossim")
                elif isinstance(node, ast.Import):
                    assert not any(a.name.startswith("oossim") for a in node.names)
        assert package_imports == [(None, "numerics"), ("__getattr__", "experiments")]

    def test_only_the_transport_maps_an_ap_to_its_slot(self):
        def slot_arithmetic(path):
            return [
                node.lineno
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and getattr(node.left, "id", None) == "ap"
                and getattr(node.right, "value", None) == 1
            ]

        package = Path(fronthaul.__file__).parent
        found = {path.name: slot_arithmetic(path) for path in package.glob("*.py")}
        assert found.pop("fronthaul.py")
        assert {name: lines for name, lines in found.items() if lines} == {}

    def test_ledger_is_re_exported(self):
        assert fronthaul.load_report is experiments.load_report
        assert fronthaul.analytic_per_link is experiments.analytic_per_link
        with pytest.raises(AttributeError):
            fronthaul.nonexistent
