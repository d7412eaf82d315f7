import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_cfg
from oossim import experiments, fronthaul
from oossim.fronthaul import (
    CPU,
    Chain,
    ChainError,
    FronthaulMessage,
    MessageKind,
    analytic_per_link,
    broadcast_message,
    broadcast_pass,
    chain_pass,
    channel_gramian_message,
    combined_uplink_message,
    detector_state_message,
    load_report,
    residual_gramian_message,
    sbar_message,
)
from oossim.numerics import DegeneracyError
from oossim.scenario import SystemConfig


def scalar_message(value):
    return FronthaulMessage(MessageKind.COMBINED_UPLINK, np.array([[value]]), 2)


class TestMessageSizes:
    def test_general_matrix_costs_two_per_entry(self, rng):
        S = np.zeros((45, 2), dtype=complex)
        assert sbar_message(S).real_symbols == 180

    def test_hermitian_costs_n_squared(self):
        assert residual_gramian_message(np.zeros((45, 45))).real_symbols == 2025
        assert channel_gramian_message(np.zeros((7, 7))).real_symbols == 49
        with pytest.raises(ValueError):
            residual_gramian_message(np.zeros((3, 4)))

    def test_detector_state_cost(self):
        msg = detector_state_message(np.zeros((7, 10)), np.zeros((7, 7)))
        assert msg.real_symbols == 2 * 7 + 49

    def test_per_symbol_vectors(self):
        assert combined_uplink_message(np.zeros((7, 150))).real_symbols == 14

    def test_stacked_payloads_count_per_block(self):
        # a payload stacked over 4 blocks is sized by its trailing axes
        assert sbar_message(np.zeros((4, 45, 2), dtype=complex)).real_symbols == 180
        assert residual_gramian_message(np.zeros((4, 45, 45))).real_symbols == 2025
        assert combined_uplink_message(np.zeros((4, 7, 150))).real_symbols == 14
        msg = detector_state_message(np.zeros((4, 7, 10)), np.zeros((4, 7, 7)))
        assert msg.real_symbols == 2 * 7 + 49

    def test_broadcast_preserves_size(self):
        inner = sbar_message(np.zeros((45, 2), dtype=complex))
        wrapped = broadcast_message(inner)
        assert wrapped.real_symbols == inner.real_symbols
        assert wrapped.kind is MessageKind.BROADCAST


class TestChainPass:
    def test_identity_fold(self):
        init = scalar_message(3.0)
        final, records = chain_pass((1, 2, 3), lambda ap, msg: msg, init)
        assert final is init
        assert [r.real_symbols for r in records] == [2, 2, 2]
        assert records[-1].receiver == CPU

    def test_summation_fold(self):
        def fold(ap, msg):
            total = ap if msg is None else msg.payload[0, 0] + ap
            return scalar_message(total)

        final, _ = chain_pass((1, 2, 3, 4), fold)
        assert final.payload[0, 0] == 10

    def test_gramian_fold_per_link_load(self):
        r = 45

        def fold(ap, msg):
            acc = np.zeros((r, r)) if msg is None else msg.payload
            return residual_gramian_message(acc + np.eye(r))

        _, records = chain_pass((1, 2, 3, 4), fold)
        assert all(rec.real_symbols == 2025 for rec in records)

    def test_fold_failure_names_hop(self):
        def fold(ap, msg):
            if ap == 3:
                raise RuntimeError("boom")
            return scalar_message(1.0)

        with pytest.raises(ChainError, match="AP 3"):
            chain_pass((1, 2, 3, 4), fold)

    def test_numerical_failure_keeps_its_class(self):
        def fold(ap, msg):
            if ap == 3:
                raise DegeneracyError("rank deficient")
            return scalar_message(1.0)

        with pytest.raises(DegeneracyError, match="rank deficient.*AP 3"):
            chain_pass((1, 2, 3, 4), fold)

    def test_duplicate_order_rejected(self):
        with pytest.raises(ValueError):
            chain_pass((1, 1, 2), lambda ap, msg: scalar_message(0.0))

    def test_link_sequence(self):
        _, records = chain_pass((4, 3, 2, 1), lambda ap, msg: scalar_message(0.0))
        assert [(r.sender, r.receiver) for r in records] == [
            (4, 3), (3, 2), (2, 1), (1, CPU)
        ]

    def test_broadcast_covers_links_in_reverse(self):
        records = broadcast_pass((4, 3, 2, 1), scalar_message(0.0), "bc")
        assert [(r.sender, r.receiver) for r in records] == [
            (CPU, 1), (1, 2), (2, 3), (3, 4)
        ]


class TestLoadReportAggregation:
    def build(self):
        chain = Chain(order=(2, 1))
        chain.run("p", lambda ap, msg: scalar_message(ap))
        chain.broadcast("b", scalar_message(0.0))
        return chain.log

    def test_phase_listing_and_totals(self):
        log = self.build()
        assert log.phases() == ["p", "b"]

    def test_per_link_uniformity_check(self):
        log = self.build()
        assert log.per_link_symbols("p") == 2
        log.records.append(log.records[0]._replace() if False else log.records[0])
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
        report = load_report("no_suppression", cfg, detector="sequential_ls")
        assert report.per_link_symbols("uplink_seq_ls") == 2 * 5 + 25

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
            "uplink_seq_ls": 2 * 7 + 49,
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

    def test_ledger_is_re_exported(self):
        assert fronthaul.load_report is experiments.load_report
        assert fronthaul.analytic_per_link is experiments.analytic_per_link
        with pytest.raises(AttributeError):
            fronthaul.nonexistent
