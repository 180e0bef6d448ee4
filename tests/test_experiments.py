"""Tests for the experiment registry (quick-scaled runs of E1–E11)."""

import pytest

from repro.harness.experiments import (
    EXPERIMENTS,
    e1_failstop_protocol,
    e11_overbound_violations,
    e3_markov_failstop,
    e4_markov_malicious,
    e5_failstop_lowerbound,
    e6_malicious_lowerbound,
    e9_benor_comparison,
)
from repro.obs import collector


class TestRegistry:
    def test_all_eleven_registered(self):
        assert set(EXPERIMENTS) == {f"e{i}" for i in range(1, 12)}

    def test_registry_values_are_callables_with_docs(self):
        for key, fn in EXPERIMENTS.items():
            assert callable(fn)
            assert fn.__doc__, f"{key} lacks a docstring"


class TestReportsRender:
    def test_e1_quick(self):
        report = e1_failstop_protocol(cells=[(5, 2)], runs=3)
        text = report.render()
        assert "[E1]" in text
        assert len(report.rows) == 1
        assert report.rows[0][4] == "100%"

    def test_e3_quick(self):
        report = e3_markov_failstop(ns=[12], simulate_runs=50)
        assert len(report.rows) == 1
        (n, exact, exact_zero, mc, lockstep, collapsed, bound,
         w_edge, cheb) = report.rows[0]
        assert bound < 7
        assert exact < bound
        assert abs(lockstep - exact) / exact < 0.4
        assert "Chebyshev" in report.render()

    def test_e4_quick(self):
        report = e4_markov_malicious(cells=[(60, 6)])
        assert len(report.rows) == 1
        assert report.rows[0][2] == pytest.approx(2 * 6 / 60**0.5)

    def test_e4_skips_odd_cells(self):
        report = e4_markov_malicious(cells=[(61, 6), (60, 6)])
        assert len(report.rows) == 1  # the odd-n cell silently skipped

    def test_e5_outcomes(self):
        report = e5_failstop_lowerbound(n=6)
        outcomes = {(row[0], row[2]): row[3] for row in report.rows}
        assert "SPLIT" in outcomes[("naive", "k>bound")]
        assert "SPLIT" not in outcomes[("fig1", "k>bound")]

    def test_e6_outcomes(self):
        report = e6_malicious_lowerbound(k=1)
        outcomes = {row[0]: row[4] for row in report.rows}
        assert "SPLIT" in outcomes["naive"]
        assert "SPLIT" not in outcomes["echo"]

    def test_render_includes_notes(self):
        report = e5_failstop_lowerbound(n=6)
        assert "note:" in report.render()

    def test_e11_quick(self):
        report = e11_overbound_violations(runs=12)
        text = report.render()
        assert "[E11]" in text
        by_label = {}
        for row in report.rows:
            by_label.setdefault(row[0], []).append(row)
        for label, rows in by_label.items():
            for row in rows:
                violations, replay = row[4], row[7]
                if "at-bound" in label:
                    assert violations == 0, (label, violations)
                else:
                    assert violations >= 1, (label, violations)
                    assert replay == "exact"

    def test_e9_collects_both_halves(self):
        """Ben-Or's runs reach the collector too: 3 seeds each side."""
        collector.begin()
        try:
            report = e9_benor_comparison(ns=[5], runs=3)
        finally:
            merged, runs = collector.finish()
        assert runs == 6
        coins_mean = report.rows[0][4]
        assert merged.counters.get("benor.coin_flips", 0) == coins_mean * 3
