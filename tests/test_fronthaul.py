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
    analytic_per_link,
    broadcast_pass,
    chain_pass,
    hermitian_symbols,
    load_report,
    matrix_symbols,
    vector_symbols,
)
from oossim.numerics import DegeneracyError
from oossim.scenario import SystemConfig


def scalar(value):
    return np.array([[value]])


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
        final, records = chain_pass((1, 2, 3), lambda ap, x: x, matrix_symbols, init)
        assert final is init
        assert [r.real_symbols for r in records] == [2, 2, 2]
        assert records[-1].receiver == CPU

    def test_summation_fold(self):
        final, _ = chain_pass((1, 2, 3, 4), lambda ap, acc: acc + scalar(ap), matrix_symbols, 0)
        assert final[0, 0] == 10

    def test_gramian_fold_per_link_load(self):
        r = 45
        _, records = chain_pass((1, 2, 3, 4), lambda ap, acc: acc + np.eye(r), hermitian_symbols, 0)
        assert all(rec.real_symbols == 2025 for rec in records)

    def test_fold_failure_names_hop(self):
        def fold(ap, x):
            if ap == 3:
                raise RuntimeError("boom")
            return scalar(1.0)

        with pytest.raises(ChainError, match="AP 3"):
            chain_pass((1, 2, 3, 4), fold, matrix_symbols)

    def test_unsized_payload_names_hop(self):
        # a payload its pass's size rule rejects fails at the hop that sent it
        def fold(ap, x):
            return np.zeros((3, 4)) if ap == 2 else np.zeros((3, 3))

        with pytest.raises(ChainError, match="AP 2"):
            chain_pass((1, 2, 3), fold, hermitian_symbols)

    def test_numerical_failure_keeps_its_class(self):
        def fold(ap, x):
            if ap == 3:
                raise DegeneracyError("rank deficient")
            return scalar(1.0)

        with pytest.raises(DegeneracyError, match="rank deficient.*AP 3"):
            chain_pass((1, 2, 3, 4), fold, matrix_symbols)

    def test_duplicate_order_rejected(self):
        with pytest.raises(ValueError):
            chain_pass((1, 1, 2), lambda ap, x: scalar(0.0), matrix_symbols)

    def test_link_sequence(self):
        _, records = chain_pass((4, 3, 2, 1), lambda ap, x: scalar(0.0), matrix_symbols)
        assert [(r.sender, r.receiver) for r in records] == [
            (4, 3), (3, 2), (2, 1), (1, CPU)
        ]

    def test_broadcast_covers_links_in_reverse(self):
        records = broadcast_pass((4, 3, 2, 1), 7, "bc")
        assert [(r.sender, r.receiver) for r in records] == [
            (CPU, 1), (1, 2), (2, 3), (3, 4)
        ]
        assert [r.real_symbols for r in records] == [7] * 4


class TestLoadReportAggregation:
    def build(self):
        chain = Chain(order=(2, 1))
        chain.run("p", lambda ap, x: scalar(ap), matrix_symbols)
        chain.broadcast("b", 2)
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

    def test_ledger_is_re_exported(self):
        assert fronthaul.load_report is experiments.load_report
        assert fronthaul.analytic_per_link is experiments.analytic_per_link
        with pytest.raises(AttributeError):
            fronthaul.nonexistent
