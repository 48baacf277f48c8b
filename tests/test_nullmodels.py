"""Equidispersion transform, backbone rewiring, weight reattachment, regimes."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from recipnet.errors import DomainError, IntegrityError
from recipnet.graph import WeightedDigraph
from recipnet.metrics import degree_assortativity, equidispersion_prediction, reciprocity
from recipnet.nullmodels import _swap_chain, equidisperse, maslov_sneppen_rewire, reattach_weights
from recipnet.report import analyze, run_regime_comparison
from recipnet.synth import DegreeSpec, SynthConfig, generate

from conftest import mutual_graphs, mutual_pairs, random_digraph


def backbone_degrees(g: WeightedDigraph) -> list[int]:
    deg = [0] * g.vertex_count
    for a, b in mutual_pairs(g):
        deg[a] += 1
        deg[b] += 1
    return deg


def mutual_weight_multisets(g: WeightedDigraph) -> list[Counter]:
    out = [Counter() for _ in range(g.vertex_count)]
    for a, b, w_ab, w_ba in zip(*(col.tolist() for col in g._mutual_arrays())):
        out[a][w_ab] += 1
        out[b][w_ba] += 1
    return out


class TestEquidisperse:
    def test_integer_division(self):
        g = WeightedDigraph.from_dense_arcs(5, [(0, v, 3.0) for v in range(1, 5)])
        eq = equidisperse(g)
        assert all(w == 3.0 for _, _, w in eq.arcs())

    def test_fractional_share(self):
        g = WeightedDigraph.from_dense_arcs(3, [(0, 1, 3.0), (0, 2, 4.0)])
        eq = equidisperse(g)
        assert [w for _, _, w in eq.arcs()] == [3.5, 3.5]

    def test_topology_unchanged(self):
        g = random_digraph(random.Random(1), 30)
        eq = equidisperse(g)
        assert [(a, b) for a, b, _ in eq.arcs()] == [(a, b) for a, b, _ in g.arcs()]

    @given(mutual_graphs())
    @settings(max_examples=60)
    def test_strength_preserved(self, g):
        eq = equidisperse(g)
        for v in range(g.vertex_count):
            assert eq.out_strength(v) == pytest.approx(g.out_strength(v), rel=1e-9, abs=1e-9)

    @given(mutual_graphs())
    @settings(max_examples=60)
    def test_idempotent(self, g):
        once = equidisperse(g)
        twice = equidisperse(once)
        w1 = [w for _, _, w in once.arcs()]
        w2 = [w for _, _, w in twice.arcs()]
        assert w1 == pytest.approx(w2, rel=1e-12)
        assert [(a, b) for a, b, _ in once.arcs()] == [(a, b) for a, b, _ in twice.arcs()]

    @given(mutual_graphs())
    @settings(max_examples=60)
    def test_every_dyad_hits_degree_closed_form(self, g):
        eq = equidisperse(g)
        for a, b in mutual_pairs(eq):
            predicted = equidispersion_prediction(eq.out_degree(a), eq.out_degree(b))
            assert abs(reciprocity(eq, a, b) - predicted) <= 1e-9

    def test_reweighted_graph_shares_the_reverse_arc_index(self):
        g = random_digraph(random.Random(5), 40, mutual_bias=0.6)
        eq = equidisperse(g)
        rw, _ = maslov_sneppen_rewire(g, np.random.default_rng(3), swap_multiplier=2)
        rw_eq = equidisperse(rw)
        assert eq._reverse_arcs() is g._reverse_arcs()
        assert rw_eq._reverse_arcs() is rw._reverse_arcs()
        for graph in (eq, rw, rw_eq):  # reports match those of an unshared copy
            copy = WeightedDigraph(*(a.copy() for a in (graph._indptr, graph._indices, graph._weights)))
            assert analyze(graph, "x") == analyze(copy, "x")


class _ScriptedGenerator:
    """Stand-in for np.random.Generator: scripted permutation/random results, then a real one."""

    def __init__(self, permutations, randoms):
        self._perms = [np.asarray(x) for x in permutations]
        self._rands = [np.asarray(x) for x in randoms]
        self._rng = np.random.default_rng(0)

    @staticmethod
    def _next(script, size):
        out = script.pop(0)
        assert out.shape == np.empty(size).shape, (out.shape, size)
        return out

    def permutation(self, n):
        return self._next(self._perms, n) if self._perms else self._rng.permutation(n)

    def random(self, size):
        return self._next(self._rands, size) if self._rands else self._rng.random(size)


def _path(*vertices):
    """Mutual path through the given vertices, on 5 vertices, weights 1."""
    arcs = []
    for a, b in zip(vertices, vertices[1:]):
        arcs += [(a, b, 1.0), (b, a, 1.0)]
    return WeightedDigraph.from_dense_arcs(5, arcs)


class TestRewire:
    def test_forced_swap_on_two_disjoint_edges(self):
        # Backbone rows (1,2), (1,3), (3,4); the budget of 3 proposals runs as
        # three rounds of one. Round 1 pairs rows 0 and 2 with no orientation
        # flips, turning (1,2),(3,4) into (1,4),(3,2). Rounds 2 and 3 pair the
        # same rows again, which would turn (1,4),(2,3) into (1,3),(2,4): (1,3)
        # is an edge, so the duplicate is rejected.
        g = _path(2, 1, 3, 4)
        rng = _ScriptedGenerator([[0, 2, 1]] * 3, [[[0.9, 0.9]]] * 3)
        rewired, stats = maslov_sneppen_rewire(g, rng, swap_multiplier=1)
        pairs = set(mutual_pairs(rewired))
        assert pairs == {(1, 4), (2, 3), (1, 3)}
        assert backbone_degrees(rewired) == backbone_degrees(g)
        assert (stats["attempted_swaps"], stats["accepted_swaps"]) == (3, 1)

    def test_forced_swap_follows_orientation_flip(self):
        # Rows (1,2), (1,4), (3,4). Unflipped, (1,2),(3,4) would become the
        # edge (1,4) again; flipping only the second edge, to (4,3), yields
        # (1,3),(4,2). Rounds 2 and 3 propose (1,3),(2,4) -> (1,4),(2,3): a duplicate.
        g = _path(2, 1, 4, 3)
        rng = _ScriptedGenerator([[0, 2, 1]] * 3, [[[0.9, 0.1]], [[0.9, 0.9]], [[0.9, 0.9]]])
        rewired, stats = maslov_sneppen_rewire(g, rng, swap_multiplier=1)
        assert set(mutual_pairs(rewired)) == {(1, 3), (2, 4), (1, 4)}
        assert stats["accepted_swaps"] == 1

    def test_swap_creating_duplicate_is_rejected(self):
        # Mutual triangle: every proposal collides with an existing edge.
        arcs = []
        for a in range(3):
            for b in range(3):
                if a != b:
                    arcs.append((a, b, float(a + b + 1)))
        g = WeightedDigraph.from_dense_arcs(3, arcs)
        rewired, stats = maslov_sneppen_rewire(g, np.random.default_rng(5), swap_multiplier=20)
        assert stats["accepted_swaps"] == 0
        assert stats["warning"] is not None
        assert rewired is g

    def test_too_few_edges_rejected(self):
        g = WeightedDigraph.from_dense_arcs(2, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(DomainError):
            maslov_sneppen_rewire(g, np.random.default_rng(0))

    def test_degree_sequence_preserved(self):
        rnd = random.Random(77)
        for seed in range(5):
            g = random_digraph(rnd, 40, arc_fraction=0.08, mutual_bias=0.8)
            rewired, _ = maslov_sneppen_rewire(g, np.random.default_rng(seed), swap_multiplier=5)
            assert sorted(backbone_degrees(rewired)) == sorted(backbone_degrees(g))
            assert backbone_degrees(rewired) == backbone_degrees(g)

    def test_same_seed_is_bit_reproducible(self):
        g = random_digraph(random.Random(8), 50, mutual_bias=0.8)
        graph1, stats1 = maslov_sneppen_rewire(g, np.random.default_rng(123), swap_multiplier=5)
        graph2, stats2 = maslov_sneppen_rewire(g, np.random.default_rng(123), swap_multiplier=5)
        assert graph1 == graph2
        assert (stats1["attempted_swaps"], stats1["accepted_swaps"]) == (
            stats2["attempted_swaps"],
            stats2["accepted_swaps"],
        )

    def test_neutralizes_assortative_graph(self):
        cfg_synth = SynthConfig(
            vertex_count=600,
            degree_distribution=DegreeSpec("poisson", 6.0),
            target_assortativity=0.4,
            dispersion=0.4,
            seed=3,
        )
        g = generate(cfg_synth)
        before = degree_assortativity(g)["r"]
        assert before >= 0.3
        _, stats = maslov_sneppen_rewire(g, np.random.default_rng(9), swap_multiplier=10)
        assert stats["residual_assortativity"] is not None
        assert abs(stats["residual_assortativity"]) < 0.05

    def test_residual_is_backbone_assortativity_of_result(self):
        rnd = random.Random(61)
        for seed in range(5):
            g = random_digraph(rnd, 60, arc_fraction=0.08, mutual_bias=0.6)
            assert g.dyad_census().asymmetric > 0
            rewired, stats = maslov_sneppen_rewire(g, np.random.default_rng(seed), swap_multiplier=3)
            assert stats["accepted_swaps"] > 0
            expected = degree_assortativity(rewired, mutual_only=True)["r"]
            assert stats["residual_assortativity"] == expected

    def test_neutral_graph_is_still_randomized(self):
        g = random_digraph(random.Random(12), 80, arc_fraction=0.06, mutual_bias=0.9)
        neutral, _ = maslov_sneppen_rewire(g, np.random.default_rng(1), swap_multiplier=50)
        assert abs(degree_assortativity(neutral)["r"]) < 0.005
        rewired, stats = maslov_sneppen_rewire(neutral, np.random.default_rng(2))
        assert stats["accepted_swaps"] > 0
        assert rewired != neutral

    def test_one_way_arcs_carried_through(self):
        arcs = [(0, 1, 2.0), (1, 0, 3.0), (2, 3, 4.0), (3, 2, 5.0), (0, 4, 7.0)]
        g = WeightedDigraph.from_dense_arcs(5, arcs)
        rewired, stats = maslov_sneppen_rewire(g, np.random.default_rng(1), swap_multiplier=3)
        if stats["accepted_swaps"]:
            assert rewired.weight(0, 4) == 7.0


class _Recorder:
    """np.random.Generator that keeps what permutation and random return."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def permutation(self, n):
        self.draws.append(self._rng.permutation(n))
        return self.draws[-1]

    def random(self, size):
        self.draws.append(self._rng.random(size))
        return self.draws[-1]


def _pair(x, y):
    return (x, y) if x < y else (y, x)


def _round_by_proposals(edges, blocked, perm, coins):
    """One swap round, proposal by proposal: (edges after it, indices of applied proposals).

    Proposal j pairs rows perm[j] and perm[p + j], orienting each edge
    (stored a < b) as (b, a) when its coin is below 0.5. It is applied when
    it makes no self-loop, neither new pair was an edge or blocked before the
    round, and no other proposal holds one of its four pairs. The applied ones
    are then swapped in one at a time, each checked against the edges so far.
    """
    before = set(edges) | set(blocked)
    p = len(coins)
    proposals = []
    for j in range(p):
        (a, b), (c, d) = edges[perm[j]], edges[perm[p + j]]
        if coins[j][0] < 0.5:
            a, b = b, a
        if coins[j][1] < 0.5:
            c, d = d, c
        proposals.append((perm[j], perm[p + j], _pair(a, d), _pair(c, b), a == d or c == b))
    held = Counter(k for i1, i2, e1, e2, _ in proposals for k in {edges[i1], edges[i2], e1, e2})
    out = list(edges)
    applied = []
    for j, (i1, i2, e1, e2, self_loop) in enumerate(proposals):
        shared = any(held[k] > 1 for k in {edges[i1], edges[i2], e1, e2})
        if self_loop or e1 in before or e2 in before or shared:
            continue
        now = set(out) | set(blocked)
        assert e1 not in now and e2 not in now and e1 != e2
        out[i1], out[i2] = e1, e2
        applied.append(j)
    return out, applied


@st.composite
def swap_rounds(draw):
    """A simple graph as an (m, 2) edge array in any row order, blocked pairs and a seed."""
    v = draw(st.integers(3, 8))
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
    kinds = draw(st.lists(st.sampled_from("ebf"), min_size=len(pairs), max_size=len(pairs)))
    edges = draw(st.permutations([p for p, k in zip(pairs, kinds) if k == "e"]))
    blocked = [p for p, k in zip(pairs, kinds) if k == "b"]
    return v, edges, blocked, draw(st.integers(0, 2**32 - 1))


def _every_graph(degrees, blocked):
    """Every simple graph with these degrees and no blocked pair, as sorted edge tuples."""
    v = len(degrees)
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v) if (a, b) not in blocked]
    graphs = []
    for edges in itertools.combinations(pairs, sum(degrees) // 2):
        if np.bincount(np.ravel(edges), minlength=v).tolist() == list(degrees):
            graphs.append(edges)
    return graphs


class TestSwapRound:
    @given(swap_rounds())
    @settings(max_examples=300, deadline=None)
    def test_round_applies_exactly_the_independent_valid_proposals(self, case):
        v, edges, blocked, seed = case
        assume(len(edges) >= 2)
        keys = np.array([a * v + b for a, b in blocked], dtype=np.int64)
        rng = _Recorder(seed)
        # One round (budget m // 2); a tolerance of 0 never stops it early.
        out, attempted, accepted, _ = _swap_chain(
            np.array(edges, dtype=np.int64), v, rng, len(edges) // 2, 0.0, 0.0, keys
        )
        perm, coins = rng.draws
        expected, applied = _round_by_proposals(edges, blocked, perm.tolist(), coins.tolist())
        assert [tuple(e) for e in out.tolist()] == expected
        assert (attempted, accepted) == (len(edges) // 2, len(applied))
        assert np.bincount(out.ravel(), minlength=v).tolist() == np.bincount(np.ravel(edges), minlength=v).tolist()
        assert (out[:, 0] < out[:, 1]).all()
        assert len(set(expected)) == len(edges) and not set(expected) & set(blocked)

    @pytest.mark.parametrize(
        "degrees, blocked",
        [
            ((2, 2, 2, 2, 2, 2), set()),
            ((3, 3, 2, 2, 1, 1), set()),
            ((2, 2, 2, 2, 2, 2), {(0, 1), (1, 2)}),
        ],
    )
    def test_uniform_distribution_is_stationary(self, degrees, blocked):
        # Chains started from uniformly drawn graphs must still be uniform
        # after a few rounds; 20 expected visits per graph.
        graphs = _every_graph(degrees, blocked)
        index = {g: i for i, g in enumerate(graphs)}
        v, m = len(degrees), len(graphs[0])
        keys = np.array([a * v + b for a, b in sorted(blocked)], dtype=np.int64)
        rng = np.random.default_rng(0)
        counts = np.zeros(len(graphs))
        moved = 0
        for start in rng.integers(0, len(graphs), 20 * len(graphs)).tolist():
            out, *_ = _swap_chain(np.array(graphs[start]), v, rng, 4 * (m // 2), 0.0, 0.0, keys)
            end = index[tuple(sorted(map(tuple, out.tolist())))]
            counts[end] += 1
            moved += end != start
        assert moved > 10 * len(graphs)
        assert chisquare(counts).pvalue > 1e-3


def _backbone(g: WeightedDigraph) -> np.ndarray:
    """The graph's mutual dyads as the swap kernel's (m, 2) edge array."""
    a, b = g._mutual_ends()[:2]
    return np.column_stack((a, b))


class TestReattachWeights:
    def test_two_neighbor_permutation(self):
        orig = WeightedDigraph.from_dense_arcs(
            4, [(0, 1, 5.0), (1, 0, 1.0), (0, 2, 1.0), (2, 0, 2.0), (1, 3, 4.0), (3, 1, 4.0)]
        )
        # New backbone 0-1, 0-3, 1-2 keeps every mutual degree (2,2,1,1).
        out = reattach_weights(np.array([(0, 1), (0, 3), (1, 2)]), orig, np.random.default_rng(0))
        assert set(mutual_pairs(out)) == {(0, 1), (0, 3), (1, 2)}
        assert sorted(w for _, w in out.out_neighbors(0)) == [1.0, 5.0]
        assert out.out_strength(0) == orig.out_strength(0)

    def test_equal_weights_unaffected_by_permutation(self):
        orig = WeightedDigraph.from_dense_arcs(
            3, [(0, 1, 2.0), (1, 0, 2.0), (0, 2, 2.0), (2, 0, 2.0)]
        )
        out = reattach_weights(_backbone(orig), orig, np.random.default_rng(5))
        assert out == orig

    @given(mutual_graphs())
    @settings(max_examples=60)
    def test_multisets_preserved(self, g):
        out = reattach_weights(_backbone(g), g, np.random.default_rng(11))
        assert mutual_weight_multisets(out) == mutual_weight_multisets(g)
        for v in range(g.vertex_count):
            assert out.out_strength(v) == pytest.approx(g.out_strength(v), abs=1e-12)
        one_way = g._reverse_arcs() < 0  # one-way arcs keep their endpoints and weights
        assert [arc for arc, keep in zip(out.arcs(), one_way) if keep] == [
            arc for arc, keep in zip(g.arcs(), one_way) if keep
        ]

    def test_every_order_is_drawn(self):
        orig = WeightedDigraph.from_dense_arcs(
            4, [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 2.0), (2, 0, 1.0), (0, 3, 3.0), (3, 0, 1.0)]
        )
        orders = set()
        for seed in range(60):
            out = reattach_weights(_backbone(orig), orig, np.random.default_rng(seed))
            orders.add(tuple(w for _, w in out.out_neighbors(0)))
        assert len(orders) == 6

    def test_degree_mismatch_raises(self):
        orig = WeightedDigraph.from_dense_arcs(4, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(IntegrityError):
            reattach_weights(np.array([(0, 1), (2, 3)]), orig, np.random.default_rng(0))

    @pytest.mark.parametrize("edges", [[(0, 1), (2, 7)], [(0, 1), (-1, 2)]])
    def test_endpoint_outside_the_graph_raises(self, edges):
        orig = WeightedDigraph.from_dense_arcs(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
        with pytest.raises(DomainError, match="outside 0..3"):
            reattach_weights(np.array(edges), orig, np.random.default_rng(0))


class TestRegimes:
    def test_identity_cell_returns_input(self):
        g = random_digraph(random.Random(4), 30, mutual_bias=0.8)
        out = run_regime_comparison(g, [0], swap_multiplier=1)[1]["observed"]
        assert out is g
        before = [reciprocity(g, a, b) for a, b in mutual_pairs(g)]
        after = [reciprocity(out, a, b) for a, b in mutual_pairs(out)]
        assert before == after

    def test_four_regimes_structure(self):
        g = random_digraph(random.Random(14), 60, mutual_bias=0.8)
        regimes = run_regime_comparison(g, [2], swap_multiplier=5)[1]
        labels = list(regimes)
        assert labels == [
            "observed",
            "observed_equidispersed",
            "rewired",
            "rewired_equidispersed",
        ]
        assert regimes["observed"] is g
        # Both rewired cells share one backbone.
        rw_pairs = set(mutual_pairs(regimes["rewired"]))
        rw_eq_pairs = set(mutual_pairs(regimes["rewired_equidispersed"]))
        assert rw_pairs == rw_eq_pairs

    def test_rewired_equidispersed_hits_closed_form(self):
        g = random_digraph(random.Random(25), 50, mutual_bias=0.8)
        eq = run_regime_comparison(g, [7], swap_multiplier=5)[1]["rewired_equidispersed"]
        for a, b in mutual_pairs(eq):
            predicted = equidispersion_prediction(eq.out_degree(a), eq.out_degree(b))
            assert abs(reciprocity(eq, a, b) - predicted) <= 1e-9

    def test_equidispersed_cell_strengths_match_observed(self):
        g = random_digraph(random.Random(33), 40, mutual_bias=0.9)
        eq = run_regime_comparison(g, [1], swap_multiplier=5)[1]["observed_equidispersed"]
        for v in range(g.vertex_count):
            assert eq.out_strength(v) == pytest.approx(
                g.out_strength(v), rel=1e-9
            )
