"""Reciprocity scores, classification, concentration, assortativity."""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipnet.cli import main
from recipnet.errors import DomainError, MissingArcError, UndefinedCorrelationError
from recipnet.graph import WeightedDigraph
from recipnet.ingest import load_edge_list
from recipnet.metrics import (
    DyadClass,
    PARTIAL_MAX,
    RECIPROCAL_MAX,
    _moments,
    _r_of,
    classify,
    concentration,
    concentration_arrays,
    degree_assortativity,
    dyad_scores,
    equidispersion_prediction,
    histogram,
    reciprocity,
    reciprocity_value,
)

from conftest import digraph, mutual_graphs, mutual_pairs, random_digraph, small_graphs

# Dyad fuzz tuples: (w_ab, w_ba, extra_a, extra_b) where extra_* is strength
# beyond the dyad arc itself.
dyad_tuples = st.tuples(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)


def pair_scan(g: WeightedDigraph) -> list[tuple[int, int]]:
    """Quadratic oracle: every pair a < b with arcs both ways, found by single-arc lookups."""
    n = g.vertex_count
    return [(a, b) for a in range(n) for b in range(a + 1, n) if g.has_arc(a, b) and g.has_arc(b, a)]


class TestReciprocity:
    def test_two_vertex_island_is_fully_reciprocal(self):
        g = digraph(2, [(0, 1, 13.0), (1, 0, 2.0)])
        assert reciprocity(g, 0, 1) == 0.0
        assert g.normalized_weight(0, 1) == g.normalized_weight(1, 0) == 1.0

    def test_probability_ratio_threshold_values(self):
        # Ratios 1.5 and 9.0 are the class boundaries on the log scale.
        g = digraph(
            4, [(0, 1, 3.0), (0, 2, 1.0), (1, 0, 2.0), (1, 3, 2.0)]
        )
        # p_ab = 0.75, p_ba = 0.5 -> ratio 1.5
        assert reciprocity(g, 0, 1) == pytest.approx(0.405, abs=5e-3)

        g9 = digraph(
            4, [(0, 1, 9.0), (0, 2, 1.0), (1, 0, 1.0), (1, 3, 9.0)]
        )
        # p_ab = 0.9, p_ba = 0.1 -> ratio 9.0
        assert reciprocity(g9, 0, 1) == pytest.approx(2.197, abs=5e-3)

    def test_hand_evaluated_example(self):
        # a -> b (6), a -> c (2) so p_ab = 0.75; b -> a (4) alone so p_ba = 1.
        g = digraph(3, [(0, 1, 6.0), (0, 2, 2.0), (1, 0, 4.0)])
        r = reciprocity(g, 0, 1)
        # Independent recomputation straight from the arc list.
        arcs = list(g.arcs())
        s_a = sum(w for src, _, w in arcs if src == 0)
        s_b = sum(w for src, _, w in arcs if src == 1)
        expected = abs(math.log(6.0 / s_a) - math.log(4.0 / s_b))
        assert r == expected
        assert r == pytest.approx(0.2877, abs=5e-4)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.0, 1.0, 1.0, 1.0), "dyad weights must be strictly positive"),
            ((1.0, -2.0, 3.0, 3.0), "dyad weights must be strictly positive"),
            ((2.0, 1.0, 1.5, 1.0), "vertex strength cannot be smaller than the arc weight"),
            ((1.0, 2.0, 1.0, 1.5), "vertex strength cannot be smaller than the arc weight"),
        ],
    )
    def test_value_outside_the_domain_raises(self, args, message):
        with pytest.raises(DomainError, match=message):
            reciprocity_value(*args)

    def test_non_mutual_pair_raises(self):
        g = digraph(2, [(0, 1, 1.0)])
        with pytest.raises(MissingArcError):
            reciprocity(g, 0, 1)

    def test_swap_symmetry_exact(self):
        g = random_digraph(random.Random(2), 30, mutual_bias=0.9)
        for a, b in mutual_pairs(g):
            assert reciprocity(g, a, b) == reciprocity(g, b, a)

    @given(mutual_graphs())
    @settings(max_examples=60)
    def test_nonnegative_and_zero_iff_balanced(self, g):
        for a, b in mutual_pairs(g):
            r = reciprocity(g, a, b)
            p_ab, p_ba = g.normalized_weight(a, b), g.normalized_weight(b, a)
            assert r >= 0.0
            if abs(p_ab - p_ba) <= 1e-12 * max(p_ab, p_ba):
                assert r <= 1e-9
            else:
                assert r > 0.0

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
        g = digraph(
            4, [(0, 1, 6.0), (0, 2, 4.0), (1, 0, 2.0), (1, 3, 8.0)]
        )
        assert abs(reciprocity(g, 0, 1) - abs(math.log(6.0) - math.log(2.0))) <= 1e-12

    def test_equal_weight_dyads_reduce_to_strength_ratio(self):
        # w_ab = w_ba = 3: score collapses to |ln s_b - ln s_a|.
        g = digraph(
            4, [(0, 1, 3.0), (0, 2, 9.0), (1, 0, 3.0), (1, 3, 1.0)]
        )
        r = reciprocity(g, 0, 1)
        s_a, s_b = 12.0, 4.0
        assert abs(r - abs(math.log(s_b) - math.log(s_a))) <= 1e-12

    @given(mutual_graphs(), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60)
    def test_scaling_one_vertex_leaves_scores_unchanged(self, g, c):
        dyads = mutual_pairs(g)
        target = dyads[0][0]
        arcs = [
            (a, b, w * c if a == target else w)
            for a, b, w in g.arcs()
        ]
        scaled = digraph(g.vertex_count, arcs)
        for a, b in dyads:
            before = reciprocity(g, a, b)
            after = reciprocity(scaled, a, b)
            assert abs(before - after) <= 1e-12 * max(1.0, before)

    def test_records_sweep_matches_singles(self):
        g = random_digraph(random.Random(21), 60, mutual_bias=0.8)
        swept = list(zip(*(col.tolist() for col in dyad_scores(g))))
        assert [(a, b) for a, b, *_ in swept] == pair_scan(g)
        assert swept == [
            (
                a,
                b,
                g.weight(a, b),
                g.weight(b, a),
                g.normalized_weight(a, b),
                g.normalized_weight(b, a),
                reciprocity(g, a, b),
                list(DyadClass).index(classify(reciprocity(g, a, b))),
            )
            for a, b, *_ in swept
        ]

    def test_share_that_underflows_to_zero_is_scored(self):
        # p_ab = 5e-324 / 1e308 rounds to 0.0, whose log is undefined; ln w - ln s is finite.
        g = digraph(3, [(0, 1, 5e-324), (1, 0, 1.0), (0, 2, 1e308), (2, 0, 1.0)])
        swept = dyad_scores(g)
        assert swept.p_ab.tolist() == [0.0, 1.0]
        assert swept.r_value.tolist() == [reciprocity(g, 0, 1), reciprocity(g, 0, 2)]
        assert reciprocity(g, 0, 1) == pytest.approx(math.log(1e308) - math.log(5e-324))
        assert reciprocity(g, 0, 1) == pytest.approx(1453.6, abs=0.1)

    def test_scoring_holds_no_python_float_per_dyad(self):
        """Past the graph, scoring costs the eight 8-byte score columns and a few temporaries per dyad."""

        def peak(v, k=4):
            offsets = np.concatenate((np.arange(1, k + 1), v - np.arange(k, 0, -1)))  # k each way: every arc mutual
            indptr = np.arange(0, 2 * k * v + 1, 2 * k, dtype=np.int64)
            indices = np.sort((np.arange(v)[:, None] + offsets) % v, axis=1).ravel()
            g = WeightedDigraph(indptr, indices, np.random.default_rng(v).random(2 * k * v) + 0.5, tuple(map(str, range(v))))
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
        g = digraph(7, arcs)
        assert abs(reciprocity(g, 0, 1) - equidispersion_prediction(2, 6)) <= 1e-12

    def test_zero_degree_rejected(self):
        with pytest.raises(DomainError):
            equidispersion_prediction(0, 3)


class TestConcentration:
    def test_equidispersed_scores_zero(self):
        g = digraph(5, [(0, v, 3.0) for v in range(1, 5)])
        h, h_star = concentration(g, 0)
        assert h == pytest.approx(0.25, abs=1e-15)
        assert abs(h_star) <= 1e-12

    def test_equal_splits_score_exactly_zero_after_equidisperse(self, tmp_path, capsys):
        # Shares w / s of equal weights need not square and sum to 1/k exactly; the scores must not show it.
        assert main(["synth", "-o", str(tmp_path / "g.csv"), "--vertices", "200", "--seed", "1"]) == 0
        assert main(["equidisperse", str(tmp_path / "g.csv"), "-o", str(tmp_path / "eq.csv")]) == 0
        g = load_edge_list(tmp_path / "eq.csv")
        vertices, h, h_star = concentration_arrays(g)
        assert len(vertices) == 200 and h_star.tolist() == [0.0] * 200
        assert h.tolist() == (1.0 / np.diff(g._indptr)[vertices]).tolist()
        assert [concentration(g, v) for v in vertices.tolist()] == list(zip(h.tolist(), h_star.tolist()))

    def test_near_total_concentration_approaches_one(self):
        g = digraph(
            6, [(0, 1, 1e9)] + [(0, v, 1e-3) for v in range(2, 6)]
        )
        assert concentration(g, 0)[1] > 0.99

    def test_hand_example(self):
        g = digraph(
            4, [(0, 1, 5.0), (0, 2, 3.0), (0, 3, 2.0)]
        )
        score_h, h_star = concentration(g, 0)
        # Independent re-evaluation of the squared shares.
        h = sum(p * p for p in (0.5, 0.3, 0.2))
        assert score_h == pytest.approx(h, abs=1e-12)
        assert h_star == pytest.approx((h - 1 / 3) / (1 - 1 / 3), abs=1e-12)
        assert h_star == pytest.approx(0.07, abs=1e-12)

    def test_degree_below_two_rejected(self):
        g = digraph(2, [(0, 1, 1.0)])
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
        scaled = digraph(g.vertex_count, arcs)
        assert concentration(scaled, v)[1] == pytest.approx(
            concentration(g, v)[1], abs=1e-12
        )

    @given(small_graphs())
    @settings(max_examples=60)
    def test_sweep_equals_the_scalar_scores(self, g):
        vertices = [v for v in range(g.vertex_count) if g.out_degree(v) >= 2]
        swept = list(zip(*(col.tolist() for col in concentration_arrays(g))))
        assert swept == [(v, *concentration(g, v)) for v in vertices]

    def test_building_and_scoring_hold_no_python_float_per_arc(self):
        """Past the input arrays, the graph and its scores cost a few arrays per vertex and one block of squares."""

        def peak(v, k=8):
            indptr = np.arange(0, k * v + 1, k, dtype=np.int64)
            indices = np.sort((np.arange(v)[:, None] + np.arange(1, k + 1)) % v, axis=1).ravel()
            weights, labels = np.random.default_rng(v).random(k * v) + 0.5, tuple(map(str, range(v)))
            tracemalloc.start()
            try:
                concentration_arrays(WeightedDigraph(indptr, indices, weights, labels))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2**13), peak(2**15)
        # At mean degree 8 each array per vertex is 1 B per arc (about 7 B in all;
        # a whole-graph column of squares added 8 B); a Python float per arc adds 32 B.
        assert (large - small) / (8 * (2**15 - 2**13)) < 20

    def test_bounded_in_unit_interval(self):
        g = random_digraph(random.Random(31), 40)
        for v in range(g.vertex_count):
            if g.out_degree(v) >= 2:
                h_star = concentration(g, v)[1]
                assert -1e-12 <= h_star <= 1.0 + 1e-12


def pearson_oracle(pairs: list[tuple[float, float]]) -> float:
    """Textbook Pearson correlation over an explicit pair list."""
    x = np.array([p[0] for p in pairs], dtype=float)
    y = np.array([p[1] for p in pairs], dtype=float)
    return float(np.corrcoef(x, y)[0, 1])


def mutual_backbone_pairs(g: WeightedDigraph) -> list[tuple[float, float]]:
    degree = [0] * g.vertex_count
    dyads = pair_scan(g)
    for a, b in dyads:
        degree[a] += 1
        degree[b] += 1
    pairs = []
    for a, b in dyads:
        pairs.append((degree[a] - 1, degree[b] - 1))
        pairs.append((degree[b] - 1, degree[a] - 1))
    return pairs


class TestAssortativity:
    def test_mutual_star_is_perfectly_disassortative(self):
        arcs = []
        for leaf in range(1, 5):
            arcs += [(0, leaf, 1.0), (leaf, 0, 1.0)]
        g = digraph(5, arcs)
        res = degree_assortativity(g)
        assert res["r"] == pytest.approx(-1.0, abs=1e-12)
        assert res["pair_count"] == 8

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
        g = digraph(8, arcs)
        res = degree_assortativity(g)
        oracle = pearson_oracle(mutual_backbone_pairs(g))
        assert res["r"] > 0
        assert res["r"] == pytest.approx(oracle, abs=1e-12)
        assert res["r"] == pytest.approx(1.0, abs=1e-12)

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
            assert res["r"] == pytest.approx(pearson_oracle(pairs), abs=1e-9)
            assert abs(res["r"]) <= 1.0 + 1e-9

    def test_too_few_pairs_reported_as_undefined(self):
        # No mutual dyad, and a single arc: r is as undefined as at zero variance, not an invalid input.
        no_mutual = digraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(UndefinedCorrelationError, match="at least two endpoint pairs"):
            degree_assortativity(no_mutual)
        with pytest.raises(UndefinedCorrelationError, match="at least two endpoint pairs"):
            degree_assortativity(digraph(2, [(0, 1, 1.0)]), mutual_only=False)

    def test_zero_variance_reported_distinctly(self):
        g = digraph(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
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
            assert res["pair_count"] == g.arc_count
            neighbors = [set() for _ in range(g.vertex_count)]
            for a, b, _ in g.arcs():
                neighbors[a].add(b)
                neighbors[b].add(a)
            tails, heads = zip(*((len(neighbors[a]) - 1, len(neighbors[b]) - 1) for a, b, _ in g.arcs()))
            assert res["r"] == pytest.approx(stats.pearsonr(tails, heads).statistic, abs=1e-9)


@given(mutual_graphs())
@settings(max_examples=300, deadline=None)
def test_backbone_r_equals_the_concatenated_orientations(g):
    # The reference: both orientations of every dyad concatenated, as pairs of backbone degrees.
    a, b = g._mutual_ends()
    tail, head = np.concatenate((a, b)), np.concatenate((b, a))
    degree = np.bincount(tail, minlength=g.vertex_count)
    want = _r_of(*_moments(degree[tail], degree[head]))
    if want is None:
        with pytest.raises(UndefinedCorrelationError):
            degree_assortativity(g)
    else:
        res = degree_assortativity(g)
        assert res["r"] == want
        assert res["pair_count"] == len(tail)


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


def array_histogram(values: list[float], bin_width: float):
    """The histogram block of the scores ``values``, whose class shares are those the scalar :func:`classify` gives."""
    hist = histogram(np.array(values, dtype=np.float64), bin_width)
    classes = Counter(classify(v) for v in values)
    assert hist["class_proportions"] == {cls.value: classes[cls] / len(values) if values else 0.0 for cls in DyadClass}
    return hist


def shares(hist) -> tuple[float, float, float]:
    """The class shares of a histogram block, in :class:`DyadClass` order."""
    return tuple(hist["class_proportions"][cls.value] for cls in DyadClass)


class TestDistribution:
    def test_all_zero_single_spike(self):
        hist = array_histogram([0.0] * 7, bin_width=0.1)
        assert hist["bins"] == [[0.0, 0.1, 7]]
        assert shares(hist) == (1.0, 0.0, 0.0)

    def test_hand_binnable(self):
        hist = array_histogram([0.1, 0.5, 3.0], bin_width=0.5)
        bins = {(lo, hi): c for lo, hi, c in hist["bins"]}
        assert bins == {(0.0, 0.5): 1, (0.5, 1.0): 1, (3.0, 3.5): 1}
        assert shares(hist) == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_counts_sum_to_total(self):
        values = [random.Random(41).uniform(0, 5) for _ in range(100)]
        hist = array_histogram(values, bin_width=0.1)
        assert sum(c for _, _, c in hist["bins"]) == hist["total"] == 100

    def test_empty(self):
        hist = array_histogram([], bin_width=0.1)
        assert hist["total"] == 0
        assert hist["bins"] == []
        assert shares(hist) == (0.0, 0.0, 0.0)

    def test_bad_bin_width(self):
        with pytest.raises(DomainError):
            array_histogram([], bin_width=0.0)

    def test_only_non_empty_bins_are_listed(self):
        # 1250.0 / 0.125 == 10,000 exactly: one far score adds one bin, not the 9,999 empty ones below it.
        hist = array_histogram([0.0, 1250.0], bin_width=0.125)
        assert hist["bins"] == [[0.0, 0.125, 1], [1250.0, 1250.125, 1]]
        values = [0.3, 0.0, 0.31, 7.0, 0.05, 0.35]
        counts = Counter(int(v // 0.1) for v in values)  # a score's bin is its floor division by the width
        want = [[i * 0.1, (i + 1) * 0.1, counts[i]] for i in sorted(counts)]
        assert array_histogram(values, bin_width=0.1)["bins"] == want
        assert len(want) == 4

    def test_bin_index_stays_exact(self):
        # 1.0 // 2**-52 == 2**52 is the last exact index range; 1.0 // 2**-53 reaches 2**53.
        assert array_histogram([1.0], bin_width=2.0**-52)["bins"] == [[1.0, 1.0 + 2.0**-52, 1]]
        with pytest.raises(DomainError, match="past bin index 2\\*\\*53"):
            array_histogram([1.0], bin_width=2.0**-53)

