"""Array kernels against independent oracles: networkx, the scalar formulas, and brute force over a dict of arcs."""

from __future__ import annotations

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipnet import graph, metrics
from recipnet.graph import WeightedDigraph
from recipnet.metrics import (
    DyadClass,
    classify,
    concentration_arrays,
    degree_assortativity,
    dyad_r_values,
    dyad_scores,
    histogram,
    reciprocity_value,
)

from conftest import digraph, random_digraph, small_graphs

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
    return digraph(v, [(a, b, w) for (a, b), w in zip(chosen, weights)])


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
    hist = histogram(scores.r_value, bin_width)
    assert hist["bins"] == [[i * bin_width, (i + 1) * bin_width, c] for i, c in enumerate(counts) if c]
    assert hist["total"] == len(scalar) == g.dyad_census().mutual
    if scalar:
        shares = {c.value: sum(classify(r) is c for r in scalar) / len(scalar) for c in classes}
        assert hist["class_proportions"] == shares


def brute_force(g: WeightedDigraph) -> dict[str, list]:
    """The blockwise passes' results from a dict of arcs, ``math.log`` and ``math.fsum``."""
    arcs = {(a, b): w for a, b, w in g.arcs()}
    keys = sorted(arcs)
    position = {key: i for i, key in enumerate(keys)}
    rows: dict[int, list[float]] = {}
    for a, b in keys:
        rows.setdefault(a, []).append(arcs[a, b])
    strength = {a: math.fsum(ws) for a, ws in rows.items()}
    ends = [(a, b, position[a, b]) for a, b in keys if a < b and (b, a) in arcs]
    r = [abs(math.log(arcs[a, b] / strength[a]) - math.log(arcs[b, a] / strength[b])) for a, b, _ in ends]
    concentration = []
    for v, ws in sorted(rows.items()):
        k = len(ws)
        if k < 2:
            continue
        if min(ws) == max(ws):
            concentration.append((v, 1 / k, 0.0))
            continue
        h = math.fsum((w / strength[v]) * (w / strength[v]) for w in ws)
        concentration.append((v, h, (h - 1 / k) / (1 - 1 / k)))
    return {
        "reverse": [position.get((b, a), -1) for a, b in keys],
        "ends": ends,
        "r": r,
        "class": [0 if x <= math.log(1.5) else 1 if x <= math.log(9.0) else 2 for x in r],
        "concentration": concentration,
    }


def blockwise(g: WeightedDigraph, block: int) -> dict[str, list]:
    """:func:`brute_force`'s results from the graph's own passes, run in blocks of ``block``."""
    with mock.patch.object(graph, "_SUM_BLOCK", block), mock.patch.object(metrics, "_SUM_BLOCK", block):
        g = WeightedDigraph(g._indptr, g._indices, g._weights, g.external_ids)  # no reverse index yet
        r = dyad_r_values(g)
        return {
            "reverse": g._reverse_arcs().tolist(),
            "ends": list(zip(*(col.tolist() for col in (*g._mutual_ends(), g._mutual_arcs())))),
            "r": r.tolist(),
            "class": metrics._classes(r).tolist(),
            "concentration": list(zip(*(col.tolist() for col in concentration_arrays(g)))),
        }


class TestBlockBoundaries:
    """Where the blocks of the reverse index, the mutual dyads, the scores and the concentration sums fall changes nothing."""

    @given(st.one_of(small_graphs(), float_weighted_graphs()), st.sampled_from([1, 3, graph._SUM_BLOCK]))
    @settings(max_examples=200, deadline=None)
    def test_blockwise_passes_equal_the_brute_force(self, g, block):
        assert blockwise(g, block) == brute_force(g)

    @pytest.mark.parametrize("block", [1, 3, graph._SUM_BLOCK])
    def test_a_graph_of_exactly_one_block(self, block):
        rng = np.random.default_rng(block)
        v = max(3, int(math.isqrt(4 * block)))
        a, b = np.nonzero(~np.eye(v, dtype=bool))
        pick = rng.choice(len(a), size=block, replace=False)
        g = digraph(v, zip(a[pick].tolist(), b[pick].tolist(), (rng.random(block) + 0.5).tolist()))
        assert g.arc_count == block
        want = brute_force(g)
        assert blockwise(g, block) == want
        assert dyad_scores(g).r_value.tolist() == want["r"]
