"""Reciprocity scores, classification, concentration, assortativity."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipnet.errors import DomainError, MissingArcError, UndefinedCorrelationError
from recipnet.graph import WeightedDigraph
from recipnet.metrics import (
    DyadClass,
    PARTIAL_MAX,
    RECIPROCAL_MAX,
    _moments,
    _r_of,
    classify,
    concentration,
    concentration_arrays,
    concentration_scores,
    degree_assortativity,
    dyad_scores,
    equidispersion_prediction,
    reciprocity,
    reciprocity_distribution,
    reciprocity_records,
    reciprocity_value,
)

from conftest import mutual_graphs, random_digraph, small_graphs

# Dyad fuzz tuples: (w_ab, w_ba, extra_a, extra_b) where extra_* is strength
# beyond the dyad arc itself.
dyad_tuples = st.tuples(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)


class TestReciprocity:
    def test_two_vertex_island_is_fully_reciprocal(self):
        g = WeightedDigraph.from_dense_arcs(2, [(0, 1, 13.0), (1, 0, 2.0)])
        rec = reciprocity(g, (0, 1))
        assert rec.r_value == 0.0
        assert rec.p_ab == rec.p_ba == 1.0

    def test_probability_ratio_threshold_values(self):
        # Ratios 1.5 and 9.0 are the class boundaries on the log scale.
        g = WeightedDigraph.from_dense_arcs(
            4, [(0, 1, 3.0), (0, 2, 1.0), (1, 0, 2.0), (1, 3, 2.0)]
        )
        # p_ab = 0.75, p_ba = 0.5 -> ratio 1.5
        rec = reciprocity(g, (0, 1))
        assert rec.r_value == pytest.approx(0.405, abs=5e-3)

        g9 = WeightedDigraph.from_dense_arcs(
            4, [(0, 1, 9.0), (0, 2, 1.0), (1, 0, 1.0), (1, 3, 9.0)]
        )
        # p_ab = 0.9, p_ba = 0.1 -> ratio 9.0
        rec9 = reciprocity(g9, (0, 1))
        assert rec9.r_value == pytest.approx(2.197, abs=5e-3)

    def test_hand_evaluated_example(self):
        # a -> b (6), a -> c (2) so p_ab = 0.75; b -> a (4) alone so p_ba = 1.
        g = WeightedDigraph.from_dense_arcs(3, [(0, 1, 6.0), (0, 2, 2.0), (1, 0, 4.0)])
        rec = reciprocity(g, (0, 1))
        # Independent recomputation straight from the arc list.
        arcs = list(g.arcs())
        s_a = sum(w for src, _, w in arcs if src == 0)
        s_b = sum(w for src, _, w in arcs if src == 1)
        expected = abs(math.log(6.0 / s_a) - math.log(4.0 / s_b))
        assert rec.r_value == expected
        assert rec.r_value == pytest.approx(0.2877, abs=5e-4)

    def test_non_mutual_pair_raises(self):
        g = WeightedDigraph.from_dense_arcs(2, [(0, 1, 1.0)])
        with pytest.raises(MissingArcError):
            reciprocity(g, (0, 1))

    def test_swap_symmetry_exact(self):
        g = random_digraph(random.Random(2), 30, mutual_bias=0.9)
        for d in g.mutual_dyads():
            assert reciprocity(g, (d.a, d.b)).r_value == reciprocity(g, (d.b, d.a)).r_value

    @given(mutual_graphs())
    @settings(max_examples=60)
    def test_nonnegative_and_zero_iff_balanced(self, g):
        for d in g.mutual_dyads():
            rec = reciprocity(g, d)
            assert rec.r_value >= 0.0
            if abs(rec.p_ab - rec.p_ba) <= 1e-12 * max(rec.p_ab, rec.p_ba):
                assert rec.r_value <= 1e-9
            else:
                assert rec.r_value > 0.0

    @given(dyad_tuples)
    @settings(max_examples=200)
    def test_probability_form_equals_weight_ratio_form(self, t):
        # The score can be computed from probabilities or from the weight
        # ratio times the inverse strength ratio; both must agree.
        w_ab, w_ba, extra_a, extra_b = t
        s_a, s_b = w_ab + extra_a, w_ba + extra_b
        lhs = reciprocity_value(w_ab, w_ba, s_a, s_b)
        rhs = abs(math.log((w_ab / w_ba) * (s_b / s_a)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)

    def test_equal_strength_dyads_reduce_to_weight_ratio(self):
        # Both endpoints with strength 10: score collapses to |ln w_ab - ln w_ba|.
        g = WeightedDigraph.from_dense_arcs(
            4, [(0, 1, 6.0), (0, 2, 4.0), (1, 0, 2.0), (1, 3, 8.0)]
        )
        rec = reciprocity(g, (0, 1))
        assert abs(rec.r_value - abs(math.log(6.0) - math.log(2.0))) <= 1e-12

    def test_equal_weight_dyads_reduce_to_strength_ratio(self):
        # w_ab = w_ba = 3: score collapses to |ln s_b - ln s_a|.
        g = WeightedDigraph.from_dense_arcs(
            4, [(0, 1, 3.0), (0, 2, 9.0), (1, 0, 3.0), (1, 3, 1.0)]
        )
        rec = reciprocity(g, (0, 1))
        s_a, s_b = 12.0, 4.0
        assert abs(rec.r_value - abs(math.log(s_b) - math.log(s_a))) <= 1e-12

    @given(mutual_graphs(), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60)
    def test_scaling_one_vertex_leaves_scores_unchanged(self, g, c):
        dyads = list(g.mutual_dyads())
        target = dyads[0].a
        arcs = [
            (a, b, w * c if a == target else w)
            for a, b, w in g.arcs()
        ]
        scaled = WeightedDigraph.from_dense_arcs(g.vertex_count, arcs)
        for d in dyads:
            before = reciprocity(g, (d.a, d.b)).r_value
            after = reciprocity(scaled, (d.a, d.b)).r_value
            assert abs(before - after) <= 1e-12 * max(1.0, before)

    def test_records_sweep_matches_singles(self):
        g = random_digraph(random.Random(21), 60, mutual_bias=0.8)
        swept = reciprocity_records(g)
        assert [r.dyad for r in swept] == list(g.mutual_dyads())
        assert swept == [reciprocity(g, (rec.dyad.a, rec.dyad.b)) for rec in swept]


    def test_scoring_holds_no_python_float_per_dyad(self):
        """Past the graph, scoring costs the eight 8-byte score columns and a few temporaries per dyad."""

        def peak(v, k=4):
            offsets = np.concatenate((np.arange(1, k + 1), v - np.arange(k, 0, -1)))  # k each way: every arc mutual
            indptr = np.arange(0, 2 * k * v + 1, 2 * k, dtype=np.int64)
            indices = np.sort((np.arange(v)[:, None] + offsets) % v, axis=1).ravel()
            g = WeightedDigraph(indptr, indices, np.random.default_rng(v).random(2 * k * v) + 0.5)
            tracemalloc.start()
            try:
                assert len(dyad_scores(g).r_value) == k * v
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2**13), peak(2**15)
        per_dyad = (large - small) / (4 * (2**15 - 2**13))
        # 80 B measured: the eight score columns (64 B) and two 8-byte temporaries. A
        # probability column made into Python floats at once adds 32 B (112 B measured).
        assert per_dyad < 90, f"{per_dyad:.0f} B per dyad"


class TestClassify:
    def test_zero_is_reciprocal(self):
        assert classify(0.0) is DyadClass.RECIPROCAL

    def test_middle_band(self):
        assert classify(1.0) is DyadClass.PARTIALLY_RECIPROCAL

    def test_extreme(self):
        assert classify(2.5) is DyadClass.NON_RECIPROCAL

    def test_boundaries_belong_to_lower_class(self):
        assert classify(RECIPROCAL_MAX) is DyadClass.RECIPROCAL
        assert classify(PARTIAL_MAX) is DyadClass.PARTIALLY_RECIPROCAL

    def test_invalid_inputs(self):
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                classify(bad)


class TestEquidispersionPrediction:
    def test_equal_degrees_give_zero(self):
        assert equidispersion_prediction(5, 5) == 0.0
        assert equidispersion_prediction(1, 1) == 0.0

    def test_degree_mismatch(self):
        assert equidispersion_prediction(2, 6) == pytest.approx(math.log(3), abs=1e-12)

    def test_matches_actual_score_on_equidispersed_graph(self):
        # a has out-degree 2, b has out-degree 6, both split weight equally.
        arcs = [(0, 1, 5.0), (0, 2, 5.0), (1, 0, 2.0)]
        arcs += [(1, v, 2.0) for v in range(2, 7)]
        g = WeightedDigraph.from_dense_arcs(7, arcs)
        rec = reciprocity(g, (0, 1))
        assert abs(rec.r_value - equidispersion_prediction(2, 6)) <= 1e-12

    def test_zero_degree_rejected(self):
        with pytest.raises(DomainError):
            equidispersion_prediction(0, 3)


class TestConcentration:
    def test_equidispersed_scores_zero(self):
        g = WeightedDigraph.from_dense_arcs(5, [(0, v, 3.0) for v in range(1, 5)])
        score = concentration(g, 0)
        assert score.h == pytest.approx(0.25, abs=1e-15)
        assert abs(score.h_star) <= 1e-12

    def test_near_total_concentration_approaches_one(self):
        g = WeightedDigraph.from_dense_arcs(
            6, [(0, 1, 1e9)] + [(0, v, 1e-3) for v in range(2, 6)]
        )
        assert concentration(g, 0).h_star > 0.99

    def test_hand_example(self):
        g = WeightedDigraph.from_dense_arcs(
            4, [(0, 1, 5.0), (0, 2, 3.0), (0, 3, 2.0)]
        )
        score = concentration(g, 0)
        # Independent re-evaluation of the squared shares.
        h = sum(p * p for p in (0.5, 0.3, 0.2))
        assert score.h == pytest.approx(h, abs=1e-12)
        assert score.h_star == pytest.approx((h - 1 / 3) / (1 - 1 / 3), abs=1e-12)
        assert score.h_star == pytest.approx(0.07, abs=1e-12)

    def test_degree_below_two_rejected(self):
        g = WeightedDigraph.from_dense_arcs(2, [(0, 1, 1.0)])
        with pytest.raises(DomainError):
            concentration(g, 0)
        with pytest.raises(DomainError):
            concentration(g, 1)

    @given(small_graphs(), st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=60)
    def test_invariant_under_uniform_scaling(self, g, c):
        vertices = [v for v in range(g.vertex_count) if g.out_degree(v) >= 2]
        if not vertices:
            return
        v = vertices[0]
        arcs = [(a, b, w * c if a == v else w) for a, b, w in g.arcs()]
        scaled = WeightedDigraph.from_dense_arcs(g.vertex_count, arcs)
        assert concentration(scaled, v).h_star == pytest.approx(
            concentration(g, v).h_star, abs=1e-12
        )

    @given(small_graphs())
    @settings(max_examples=60)
    def test_sweep_equals_the_scalar_scores(self, g):
        vertices = [v for v in range(g.vertex_count) if g.out_degree(v) >= 2]
        assert concentration_scores(g) == [concentration(g, v) for v in vertices]

    def test_building_and_scoring_hold_no_python_float_per_arc(self):
        """Past the input arrays, the graph and its scores cost the squares' 8-byte column and a few arrays per vertex."""

        def peak(v, k=8):
            indptr = np.arange(0, k * v + 1, k, dtype=np.int64)
            indices = np.sort((np.arange(v)[:, None] + np.arange(1, k + 1)) % v, axis=1).ravel()
            weights = np.random.default_rng(v).random(k * v) + 0.5
            tracemalloc.start()
            try:
                concentration_arrays(WeightedDigraph(indptr, indices, weights))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2**13), peak(2**15)
        # At mean degree 8 the squares are 8 B per arc and each array per vertex
        # 1 B (about 15 B in all); a Python float per arc adds 32 B.
        assert (large - small) / (8 * (2**15 - 2**13)) < 20

    def test_bounded_in_unit_interval(self):
        g = random_digraph(random.Random(31), 40)
        for v in range(g.vertex_count):
            if g.out_degree(v) >= 2:
                s = concentration(g, v)
                assert -1e-12 <= s.h_star <= 1.0 + 1e-12


def pearson_oracle(pairs: list[tuple[float, float]]) -> float:
    """Textbook Pearson correlation over an explicit pair list."""
    x = np.array([p[0] for p in pairs], dtype=float)
    y = np.array([p[1] for p in pairs], dtype=float)
    return float(np.corrcoef(x, y)[0, 1])


def mutual_backbone_pairs(g: WeightedDigraph) -> list[tuple[float, float]]:
    degree = [0] * g.vertex_count
    dyads = list(g.mutual_dyads())
    for d in dyads:
        degree[d.a] += 1
        degree[d.b] += 1
    pairs = []
    for d in dyads:
        pairs.append((degree[d.a] - 1, degree[d.b] - 1))
        pairs.append((degree[d.b] - 1, degree[d.a] - 1))
    return pairs


class TestAssortativity:
    def test_mutual_star_is_perfectly_disassortative(self):
        arcs = []
        for leaf in range(1, 5):
            arcs += [(0, leaf, 1.0), (leaf, 0, 1.0)]
        g = WeightedDigraph.from_dense_arcs(5, arcs)
        res = degree_assortativity(g)
        assert res.r == pytest.approx(-1.0, abs=1e-12)
        assert res.pair_count == 8

    def test_two_disjoint_mutual_cliques(self):
        arcs = []
        for a in range(3):
            for b in range(3):
                if a != b:
                    arcs.append((a, b, 1.0))
        for a in range(3, 8):
            for b in range(3, 8):
                if a != b:
                    arcs.append((a, b, 1.0))
        g = WeightedDigraph.from_dense_arcs(8, arcs)
        res = degree_assortativity(g)
        oracle = pearson_oracle(mutual_backbone_pairs(g))
        assert res.r > 0
        assert res.r == pytest.approx(oracle, abs=1e-12)
        assert res.r == pytest.approx(1.0, abs=1e-12)

    def test_matches_pearson_oracle_on_random_graphs(self):
        rnd = random.Random(13)
        sizes = [rnd.randint(20, 60) for _ in range(10)] + [300]  # last: ~1e3 dyads
        for v in sizes:
            g = random_digraph(rnd, v, arc_fraction=0.08, mutual_bias=0.7)
            pairs = mutual_backbone_pairs(g)
            if len(pairs) < 4:
                continue
            try:
                res = degree_assortativity(g)
            except UndefinedCorrelationError:
                continue
            assert res.r == pytest.approx(pearson_oracle(pairs), abs=1e-9)
            assert abs(res.r) <= 1.0 + 1e-9

    def test_zero_variance_reported_distinctly(self):
        g = WeightedDigraph.from_dense_arcs(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
        with pytest.raises(UndefinedCorrelationError):
            degree_assortativity(g)

    def test_full_arc_variant_runs(self):
        # Oracle: scipy's Pearson r of each arc's (tail, head) excess degrees,
        # counted over undirected neighbor sets.
        stats = pytest.importorskip("scipy.stats")
        rnd = random.Random(17)
        for _ in range(8):
            g = random_digraph(rnd, rnd.randint(20, 80), arc_fraction=0.08, mutual_bias=rnd.random())
            res = degree_assortativity(g, mutual_only=False)
            assert res.pair_count == g.arc_count
            neighbors = [set() for _ in range(g.vertex_count)]
            for a, b, _ in g.arcs():
                neighbors[a].add(b)
                neighbors[b].add(a)
            tails, heads = zip(*((len(neighbors[a]) - 1, len(neighbors[b]) - 1) for a, b, _ in g.arcs()))
            assert res.r == pytest.approx(stats.pearsonr(tails, heads).statistic, abs=1e-9)


@given(mutual_graphs())
@settings(max_examples=300, deadline=None)
def test_backbone_r_equals_the_concatenated_orientations(g):
    # The reference: both orientations of every dyad concatenated, as pairs of backbone degrees.
    a, b, _, _ = g._mutual_arrays()
    tail, head = np.concatenate((a, b)), np.concatenate((b, a))
    degree = np.bincount(tail, minlength=g.vertex_count)
    want = _r_of(*_moments(degree[tail], degree[head]))
    if want is None:
        with pytest.raises(UndefinedCorrelationError):
            degree_assortativity(g)
    else:
        res = degree_assortativity(g)
        assert res.r == want
        assert res.pair_count == len(tail)


def _exact_sums(x: list[int], y: list[int]) -> list[int]:
    return [len(x), sum(x), sum(y), sum(a * a for a in x), sum(b * b for b in y), sum(a * b for a, b in zip(x, y))]


def _check_kernel(pairs: list[tuple[int, int]]) -> None:
    x, y = [a for a, _ in pairs], [b for _, b in pairs]
    assert _moments(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64)) == _exact_sums(x, y)
    # Taken both ways round, as a backbone's pairs are: r is the exact ratio, correctly rounded.
    n, sx, _, sxx, _, sxy = sums = _exact_sums(x + y, y + x)
    vx = n * sxx - sx * sx
    assert _r_of(*sums) == (float(Fraction(n * sxy - sx * sx, vx)) if vx > 0 else None)


@given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=40))
@settings(max_examples=300, deadline=None)
def test_moments_and_r_are_exact(pairs):
    _check_kernel(pairs)


_NEAR_2_31 = st.integers(2**30, 2**31 + 80)


@given(st.lists(st.tuples(_NEAR_2_31, _NEAR_2_31), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_moments_stay_exact_past_int64_in_blocks(pairs):
    # A largest square of at least 2**62 leaves room for one product per
    # block, so every entry is its own block; the sums pass int64 and the
    # variance terms pass 2**53, where a float square root would round.
    _check_kernel([(2**31 + 80, 2**31), *pairs])


class TestDistribution:
    def _records(self, values):
        g = WeightedDigraph.from_dense_arcs(2, [(0, 1, 1.0), (1, 0, 1.0)])
        base = reciprocity(g, (0, 1))
        out = []
        for v in values:
            out.append(
                type(base)(
                    dyad=base.dyad,
                    p_ab=base.p_ab,
                    p_ba=base.p_ba,
                    r_value=v,
                    dyad_class=classify(v),
                )
            )
        return out

    def test_all_zero_single_spike(self):
        hist = reciprocity_distribution(self._records([0.0] * 7), bin_width=0.1)
        assert hist.counts == (7,)
        assert hist.class_proportions == (1.0, 0.0, 0.0)

    def test_hand_binnable(self):
        hist = reciprocity_distribution(self._records([0.1, 0.5, 3.0]), bin_width=0.5)
        bins = {(lo, hi): c for lo, hi, c in hist.bins() if c}
        assert bins == {(0.0, 0.5): 1, (0.5, 1.0): 1, (3.0, 3.5): 1}
        assert hist.class_proportions == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_counts_sum_to_total(self):
        values = [random.Random(41).uniform(0, 5) for _ in range(100)]
        hist = reciprocity_distribution(self._records(values), bin_width=0.1)
        assert sum(hist.counts) == hist.total == 100

    def test_empty(self):
        hist = reciprocity_distribution([], bin_width=0.1)
        assert hist.total == 0
        assert hist.class_proportions == (0.0, 0.0, 0.0)

    def test_bad_bin_width(self):
        with pytest.raises(DomainError):
            reciprocity_distribution([], bin_width=0.0)

    def test_bin_count_is_capped(self):
        # 1249.875 / 0.125 == 9999 exactly: the top score opens the 10,000th bin.
        hist = reciprocity_distribution(self._records([0.0, 1249.875]), bin_width=0.125)
        assert len(hist.counts) == 10_000
        with pytest.raises(DomainError, match="more than 10000 histogram bins"):
            reciprocity_distribution(self._records([0.0, 1250.0]), bin_width=0.125)
