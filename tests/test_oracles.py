"""Array kernels against independent oracles: networkx, and the scalar formulas."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipnet.graph import WeightedDigraph
from recipnet.metrics import (
    DyadClass,
    classify,
    degree_assortativity,
    dyad_scores,
    histogram,
    reciprocity_value,
)

from conftest import random_digraph

TOL = 1e-12


def to_networkx(nx, g: WeightedDigraph):
    G = nx.DiGraph()
    G.add_nodes_from(range(g.vertex_count))
    G.add_weighted_edges_from(g.arcs())
    return G


class TestNetworkxOracle:
    def test_census(self):
        nx = pytest.importorskip("networkx")
        rnd = random.Random(43)
        for _ in range(15):
            v = rnd.randint(2, 60)
            fraction, bias = rnd.uniform(0.01, 0.3), rnd.random()
            g = random_digraph(rnd, v, arc_fraction=fraction, mutual_bias=bias)
            G = to_networkx(nx, g)
            mutual = G.to_undirected(reciprocal=True).number_of_edges()
            linked = G.to_undirected().number_of_edges()
            c = g.dyad_census()
            assert (c.mutual, c.asymmetric, c.null_dyads) == (
                mutual,
                linked - mutual,
                v * (v - 1) // 2 - linked,
            )

    def test_backbone_assortativity(self):
        nx = pytest.importorskip("networkx")
        rnd = random.Random(47)
        checked = 0
        for _ in range(15):
            g = random_digraph(rnd, rnd.randint(20, 120), arc_fraction=0.06, mutual_bias=0.7)
            backbone = to_networkx(nx, g).to_undirected(reciprocal=True)
            backbone.remove_nodes_from([n for n, d in backbone.degree() if d == 0])
            expected = nx.degree_assortativity_coefficient(backbone)
            if expected != expected:  # NaN: zero degree variance
                continue
            assert degree_assortativity(g)["r"] == pytest.approx(expected, abs=1e-9)
            checked += 1
        assert checked >= 10


@st.composite
def float_weighted_graphs(draw, max_vertices: int = 9):
    v = draw(st.integers(min_value=2, max_value=max_vertices))
    pairs = [(a, b) for a in range(v) for b in range(v) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    weights = draw(
        st.lists(st.floats(min_value=1e-6, max_value=1e9), min_size=len(chosen), max_size=len(chosen)),
    )
    return WeightedDigraph.from_dense_arcs(v, [(a, b, w) for (a, b), w in zip(chosen, weights)])


@given(float_weighted_graphs(), st.sampled_from([0.05, 0.1, 0.37, 1.0]))
@settings(max_examples=200, deadline=None)
def test_array_sweep_matches_scalar_formulas(g, bin_width):
    scores = dyad_scores(g)
    classes = list(DyadClass)
    scalar = []
    columns = (scores.a, scores.b, scores.dyad_class, scores.r_value)
    for a, b, c, r in zip(*(col.tolist() for col in columns)):
        s_a, s_b = g.out_strength(a), g.out_strength(b)
        expected = reciprocity_value(g.weight(a, b), g.weight(b, a), s_a, s_b)
        assert abs(r - expected) <= TOL
        assert classes[c] is classify(expected)
        scalar.append(expected)
    counts = [0] * (1 + max((int(r // bin_width) for r in scalar), default=-1))
    for r in scalar:
        counts[int(r // bin_width)] += 1
    hist = histogram(scores, bin_width)
    assert hist["bins"] == [[i * bin_width, (i + 1) * bin_width, c] for i, c in enumerate(counts) if c]
    assert hist["total"] == len(scalar) == g.dyad_census().mutual
    if scalar:
        shares = {c.value: sum(classify(r) is c for r in scalar) / len(scalar) for c in classes}
        assert hist["class_proportions"] == shares
