"""Analysis reports, serialization stability, regime comparison verdicts."""

from __future__ import annotations

import json
import random

import pytest

from recipnet.graph import WeightedDigraph
from recipnet.report import (
    _ordering_verdict,
    analyze,
    json_bytes,
    report_bytes,
    report_csv,
    run_regime_comparison,
)
from recipnet.synth import DegreeSpec, SynthConfig, generate

from conftest import digraph, random_digraph


def toy_reciprocal_graph() -> WeightedDigraph:
    """Mutual 4-cycle, every vertex degree 2, equal weights: all scores 0."""
    arcs = []
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        arcs += [(a, b, 2.0), (b, a, 2.0)]
    return digraph(4, arcs)


#: The document path of each ``metric,value`` row of :func:`report_csv` but the
#: ``share_*`` and ``h_star_q*`` rows.
CSV_PATHS = {
    "schema": "schema",
    **{key: f"provenance.{key}" for key in ("regime", "seed", "input_digest", "tool")},
    "vertex_count": "vertex_count",
    **{key: f"census.{key}" for key in ("mutual", "asymmetric", "null_dyads", "total_arcs")},
    "mean_r": "reciprocity.mean",
    "median_r": "reciprocity.median",
    "assortativity_r": "assortativity.r",
    "assortativity_pairs": "assortativity.pair_count",
}


def _at(doc, path: str):
    """The value at a dotted path of a document; None below a None."""
    for key in path.split("."):
        doc = None if doc is None else doc[key]
    return doc


class TestAnalyze:
    def test_histogram_accounts_for_every_mutual_dyad(self):
        g = random_digraph(random.Random(3), 40, mutual_bias=0.7)
        rep = analyze(g)
        assert sum(c for _, _, c in rep["histogram"]["bins"]) == rep["census"]["mutual"]
        assert sum(rep["reciprocity"]["class_proportions"].values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_graph_report(self):
        g = digraph(3, [])
        rep = analyze(g)
        assert rep["reciprocity"]["mean"] is None
        assert rep["census"]["mutual"] == 0
        parsed = json.loads(json_bytes(rep))
        assert parsed["census"]["mutual"] == 0
        assert parsed["reciprocity"]["mean"] is None

    def test_degenerate_assortativity_reported_as_null(self):
        rep = analyze(toy_reciprocal_graph())
        assert rep["assortativity"] is None
        assert json.loads(json_bytes(rep))["assortativity"] is None

    def test_provenance_fields(self):
        g = toy_reciprocal_graph()
        rep = analyze(g, regime="rewired", seed=9)
        assert rep["provenance"]["regime"] == "rewired"
        assert rep["provenance"]["seed"] == 9
        assert rep["provenance"]["input_digest"] == g.content_digest()


class TestSerialization:
    def test_json_parse_reemit_is_byte_identical(self):
        g = random_digraph(random.Random(8), 30, mutual_bias=0.8)
        payload = analyze(g, seed=1)
        first = json_bytes(payload)
        second = json_bytes(json.loads(first))
        assert first == second

    def test_identical_inputs_identical_bytes(self):
        g = random_digraph(random.Random(8), 30, mutual_bias=0.8)
        assert json_bytes(analyze(g, seed=1)) == json_bytes(analyze(g, seed=1))

    def test_csv_row_structure(self):
        g = random_digraph(random.Random(5), 25, mutual_bias=0.8)
        rep = analyze(g)
        lines = report_csv(rep).splitlines()
        split = lines.index("")
        header_rows = lines[:split]
        hist_rows = lines[split + 1 :]
        assert header_rows[0] == "metric,value"
        assert hist_rows[0] == "bin_low,bin_high,count"
        assert len(hist_rows) - 1 == len(rep["histogram"]["bins"])

    @pytest.mark.parametrize(
        "graph",
        [
            random_digraph(random.Random(5), 25, mutual_bias=0.8),
            toy_reciprocal_graph(),  # zero degree variance: assortativity is None
            digraph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]),  # no mutual dyad
        ],
        ids=["typical", "zero_degree_variance", "no_mutual_dyad"],
    )
    def test_csv_rows_are_the_document_values(self, graph):
        doc = analyze(graph, seed=3)
        summary, histogram = report_csv(doc).split("\n\n")
        rows = dict(line.split(",") for line in summary.splitlines()[1:])
        expected = {key: _at(doc, path) for key, path in CSV_PATHS.items()}
        expected |= {f"share_{name}": v for name, v in doc["reciprocity"]["class_proportions"].items()}
        expected |= {f"h_star_q{round(q * 100):02d}": v for q, v in doc["h_star_quantiles"]}
        assert sorted(rows) == sorted(expected)
        for key, text in rows.items():
            want = expected[key]
            assert (text == "") if want is None else (type(want)(text) == want), key
        lines = histogram.splitlines()
        assert lines[0] == "bin_low,bin_high,count"
        assert [[float(lo), float(hi), int(c)] for lo, hi, c in (line.split(",") for line in lines[1:])] == (
            doc["histogram"]["bins"]
        )

    def test_emit_report_files(self, tmp_path):
        g = random_digraph(random.Random(5), 20, mutual_bias=0.8)
        rep = analyze(g)
        (tmp_path / "r.json").write_bytes(report_bytes(rep, "json"))
        (tmp_path / "r.csv").write_bytes(report_bytes(rep, "csv"))
        assert json.loads((tmp_path / "r.json").read_bytes())["schema"] == 3
        assert (tmp_path / "r.csv").read_text().startswith("metric,value")
        with pytest.raises(ValueError):
            report_bytes(rep, "xml")


class TestRegimeComparison:
    def test_degenerate_ties_verdict(self):
        [cmp], _ = run_regime_comparison(toy_reciprocal_graph(), [1], swap_multiplier=3)
        assert cmp["verdict"]["degenerate"]
        assert cmp["verdict"]["description"] == "degenerate: ties"
        assert all(m == 0.0 for m in cmp["verdict"]["means"].values())

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
        assert verdict["means"] == means
        assert (verdict["partial_ordering"], verdict["final_ordering"]) == (partial, final)
        assert verdict["degenerate"] == (description == "degenerate: ties")
        assert verdict["description"] == description

    def test_synthetic_graph_orders_correctly(self):
        g = generate(SynthConfig(1200, DegreeSpec("powerlaw", 2.5), 0.33, 0.3, seed=4))
        [cmp], _ = run_regime_comparison(g, [4], swap_multiplier=10)
        assert not cmp["verdict"]["degenerate"]
        assert cmp["verdict"]["partial_ordering"]
        assert set(cmp["reports"]) == {
            "observed",
            "observed_equidispersed",
            "rewired",
            "rewired_equidispersed",
        }
        assert json.loads(json_bytes(cmp))["verdict"]["description"] in (
            "final ordering holds",
            "partial ordering holds; final ordering does not",
        )

    def test_comparison_deterministic_per_seed(self):
        g = generate(SynthConfig(400, DegreeSpec("poisson", 6.0), 0.3, 0.3, seed=2))
        b1 = json_bytes(run_regime_comparison(g, [5])[0][0])
        b2 = json_bytes(run_regime_comparison(g, [5])[0][0])
        assert b1 == b2

    def test_different_seed_changes_rewired_histogram(self):
        g = generate(SynthConfig(400, DegreeSpec("poisson", 6.0), 0.3, 0.3, seed=2))
        [c1], _ = run_regime_comparison(g, [5])
        [c2], _ = run_regime_comparison(g, [6])
        assert c1["reports"]["rewired"]["histogram"]["bins"] != c2["reports"]["rewired"]["histogram"]["bins"]
        # The observed cell is untouched by the seed.
        assert c1["reports"]["observed"]["histogram"]["bins"] == c2["reports"]["observed"]["histogram"]["bins"]

    def test_only_first_seed_keeps_its_graphs(self):
        g = generate(SynthConfig(400, DegreeSpec("poisson", 6.0), 0.3, 0.3, seed=2))
        comparisons, graphs = run_regime_comparison(g, [5, 6, 7])
        assert set(graphs) == set(comparisons[0]["reports"])
        # The graphs kept are the first seed's: each is the graph its first-seed report was made from.
        for label, graph in graphs.items():
            assert graph.content_digest() == comparisons[0]["reports"][label]["provenance"]["input_digest"]
        assert graphs["rewired"].content_digest() != comparisons[1]["reports"]["rewired"]["provenance"]["input_digest"]
        # The later seeds' statistics survive without their graphs.
        assert all(c["rewire"]["accepted_swaps"] > 0 for c in comparisons)
