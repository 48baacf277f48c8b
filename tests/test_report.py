"""Analysis reports, serialization stability, regime comparison verdicts."""

from __future__ import annotations

import json
import random

import pytest

from recipnet.graph import WeightedDigraph
from recipnet.report import (
    _ordering_verdict,
    analyze,
    comparison_to_dict,
    json_bytes,
    report_bytes,
    report_csv,
    report_to_dict,
    run_regime_comparison,
)
from recipnet.synth import DegreeSpec, SynthConfig, generate

from conftest import random_digraph


def toy_reciprocal_graph() -> WeightedDigraph:
    """Mutual 4-cycle, every vertex degree 2, equal weights: all scores 0."""
    arcs = []
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        arcs += [(a, b, 2.0), (b, a, 2.0)]
    return WeightedDigraph.from_dense_arcs(4, arcs)


class TestAnalyze:
    def test_histogram_accounts_for_every_mutual_dyad(self):
        g = random_digraph(random.Random(3), 40, mutual_bias=0.7)
        rep = analyze(g)
        assert sum(rep.histogram.counts) == rep.census.mutual
        assert sum(rep.class_proportions) == pytest.approx(1.0, abs=1e-9)

    def test_empty_graph_report(self):
        g = WeightedDigraph.from_dense_arcs(3, [])
        rep = analyze(g)
        assert rep.mean_r is None
        assert rep.census.mutual == 0
        payload = report_to_dict(rep)
        parsed = json.loads(json_bytes(payload))
        assert parsed["census"]["mutual"] == 0
        assert parsed["reciprocity"]["mean"] is None

    def test_degenerate_assortativity_reported_as_null(self):
        rep = analyze(toy_reciprocal_graph())
        assert rep.assortativity is None
        assert report_to_dict(rep)["assortativity"] is None

    def test_provenance_fields(self):
        g = toy_reciprocal_graph()
        rep = analyze(g, regime="rewired", seed=9)
        assert rep.provenance.regime == "rewired"
        assert rep.provenance.seed == 9
        assert rep.provenance.input_digest == g.content_digest()


class TestSerialization:
    def test_json_parse_reemit_is_byte_identical(self):
        g = random_digraph(random.Random(8), 30, mutual_bias=0.8)
        payload = report_to_dict(analyze(g, seed=1))
        first = json_bytes(payload)
        second = json_bytes(json.loads(first))
        assert first == second

    def test_identical_inputs_identical_bytes(self):
        g = random_digraph(random.Random(8), 30, mutual_bias=0.8)
        assert json_bytes(report_to_dict(analyze(g, seed=1))) == json_bytes(
            report_to_dict(analyze(g, seed=1))
        )

    def test_csv_row_structure(self):
        g = random_digraph(random.Random(5), 25, mutual_bias=0.8)
        rep = analyze(g)
        lines = report_csv(rep).splitlines()
        split = lines.index("")
        header_rows = lines[:split]
        hist_rows = lines[split + 1 :]
        assert header_rows[0] == "metric,value"
        assert hist_rows[0] == "bin_low,bin_high,count"
        assert len(hist_rows) - 1 == len(rep.histogram.counts)

    def test_emit_report_files(self, tmp_path):
        g = random_digraph(random.Random(5), 20, mutual_bias=0.8)
        rep = analyze(g)
        (tmp_path / "r.json").write_bytes(report_bytes(rep, "json"))
        (tmp_path / "r.csv").write_bytes(report_bytes(rep, "csv"))
        assert json.loads((tmp_path / "r.json").read_bytes())["schema"] == 2
        assert (tmp_path / "r.csv").read_text().startswith("metric,value")
        with pytest.raises(ValueError):
            report_bytes(rep, "xml")


class TestRegimeComparison:
    def test_degenerate_ties_verdict(self):
        [cmp] = run_regime_comparison(toy_reciprocal_graph(), [1], swap_multiplier=3)
        assert cmp.verdict.degenerate
        assert cmp.verdict.description == "degenerate: ties"
        assert all(m == 0.0 for m in cmp.verdict.means.values())

    @pytest.mark.parametrize(
        "eq, rw_eq, obs, rw, partial, final, description",
        [
            (0.1, 0.2, 0.3, 0.4, True, True, "final ordering holds"),
            (0.1, 0.3, 0.2, 0.4, True, False, "partial ordering holds; final ordering does not"),
            (0.1, 0.2, 0.4, 0.3, False, False, "ordering violated"),
            (0.5, 0.5, 0.5, 0.5, False, False, "degenerate: ties"),
        ],
        ids=["final", "partial", "violated", "ties"],
    )
    def test_verdict_outcomes(self, eq, rw_eq, obs, rw, partial, final, description):
        means = {"observed": obs, "observed_equidispersed": eq, "rewired": rw, "rewired_equidispersed": rw_eq}
        verdict = _ordering_verdict(means)
        assert verdict.means == means
        assert (verdict.partial_ordering, verdict.final_ordering) == (partial, final)
        assert verdict.degenerate == (description == "degenerate: ties")
        assert verdict.description == description

    def test_synthetic_graph_orders_correctly(self):
        g = generate(SynthConfig(1200, DegreeSpec("powerlaw", 2.5), 0.33, 0.3, seed=4))
        [cmp] = run_regime_comparison(g, [4], swap_multiplier=10)
        assert not cmp.verdict.degenerate
        assert cmp.verdict.partial_ordering
        assert set(cmp.reports) == {
            "observed",
            "observed_equidispersed",
            "rewired",
            "rewired_equidispersed",
        }
        payload = comparison_to_dict(cmp)
        assert payload["verdict"]["description"] in (
            "final ordering holds",
            "partial ordering holds; final ordering does not",
        )

    def test_comparison_deterministic_per_seed(self):
        g = generate(SynthConfig(400, DegreeSpec("poisson", 6.0), 0.3, 0.3, seed=2))
        b1 = json_bytes(comparison_to_dict(run_regime_comparison(g, [5])[0]))
        b2 = json_bytes(comparison_to_dict(run_regime_comparison(g, [5])[0]))
        assert b1 == b2

    def test_different_seed_changes_rewired_histogram(self):
        g = generate(SynthConfig(400, DegreeSpec("poisson", 6.0), 0.3, 0.3, seed=2))
        [c1] = run_regime_comparison(g, [5])
        [c2] = run_regime_comparison(g, [6])
        assert (
            c1.reports["rewired"].histogram.counts
            != c2.reports["rewired"].histogram.counts
        )
        # The observed cell is untouched by the seed.
        assert (
            c1.reports["observed"].histogram.counts
            == c2.reports["observed"].histogram.counts
        )

    def test_only_first_seed_keeps_its_graphs(self):
        g = generate(SynthConfig(400, DegreeSpec("poisson", 6.0), 0.3, 0.3, seed=2))
        comparisons = run_regime_comparison(g, [5, 6, 7])
        assert set(comparisons[0].graphs) == set(comparisons[0].reports)
        assert [c.graphs for c in comparisons[1:]] == [{}, {}]
        # The later seeds' statistics survive without their graphs.
        assert all(c.rewire["accepted_swaps"] > 0 for c in comparisons)
