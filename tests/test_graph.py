"""Graph core: strengths, normalized weights, mutual-dyad columns, census."""

from __future__ import annotations

import hashlib
import math
import random
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipnet import graph
from recipnet.errors import DomainError, MissingArcError
from recipnet.graph import DyadCensus, GraphBuilder, WeightedDigraph
from recipnet.metrics import reciprocity

from conftest import random_digraph, small_graphs


def brute_force_census(g: WeightedDigraph) -> DyadCensus:
    """O(V^2) oracle: classify every unordered pair directly."""
    mutual = asymmetric = null = 0
    for a in range(g.vertex_count):
        for b in range(a + 1, g.vertex_count):
            ab = g.has_arc(a, b)
            ba = g.has_arc(b, a)
            if ab and ba:
                mutual += 1
            elif ab or ba:
                asymmetric += 1
            else:
                null += 1
    return DyadCensus(mutual, asymmetric, null, g.arc_count)


class TestOutStrength:
    def test_sums_outgoing_weights(self):
        g = WeightedDigraph.from_dense_arcs(3, [(0, 1, 6.0), (0, 2, 2.0)])
        assert g.out_strength(0) == 8.0

    def test_no_outgoing_arcs_is_zero(self):
        g = WeightedDigraph.from_dense_arcs(2, [(0, 1, 3.0)])
        assert g.out_strength(1) == 0.0

    def test_matches_per_arc_resummation_on_random_graph(self):
        g = random_digraph(random.Random(7), 50, arc_fraction=0.08)
        sums = [0.0] * g.vertex_count
        for src, _, w in g.arcs():
            sums[src] += w
        for v in range(g.vertex_count):
            assert g.out_strength(v) == pytest.approx(sums[v], abs=1e-12)

    def test_invalid_vertex_raises(self):
        g = WeightedDigraph.from_dense_arcs(2, [(0, 1, 1.0)])
        with pytest.raises(DomainError):
            g.out_strength(2)
        with pytest.raises(DomainError):
            g.out_strength(-1)


#: Row values that stress a correctly rounded sum: small-mantissa powers of
#: two (exact ties), zero and subnormals, values near the largest float
#: (overflow) and ordinary positive floats.
_SUMMANDS = st.one_of(
    st.builds(lambda m, e: m * 2.0**e, st.integers(1, 7), st.integers(-120, 120)),
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),
    st.floats(min_value=1e307, max_value=1.7976931348623157e308),
    st.floats(min_value=5e-324, max_value=1e300),
)


def _aligned(e0: int):
    """Values a few, 53 or 106 binades below 2**e0, with mantissas near 1 or near 2: they meet at rounding ties."""
    offset = st.sampled_from([0, -1, -52, -53, -54, -105, -106, -107, -108])
    mantissa = st.integers(1, 7).flatmap(lambda m: st.sampled_from([m, 2**53 - m]))
    return st.builds(lambda m, off: m * 2.0 ** (e0 + off), mantissa, offset)


_ROWS = st.lists(
    st.one_of(
        st.lists(_SUMMANDS, max_size=40),
        st.builds(lambda x, n: [x] * n, _SUMMANDS, st.integers(0, 40)),  # many equal values
        st.integers(-60, 60).flatmap(lambda e0: st.lists(_aligned(e0), max_size=40)),
    ),
    max_size=12,
)


def fsum_rows(rows: list[list[float]]) -> list[float]:
    """The reference: math.fsum per row, inf where it overflows."""
    out = []
    for row in rows:
        try:
            out.append(math.fsum(row))
        except OverflowError:
            out.append(math.inf)
    return out


def row_sums(rows: list[list[float]]) -> list[float]:
    indptr = np.cumsum([0] + [len(r) for r in rows])
    values = np.array([x for r in rows for x in r], dtype=np.float64)
    return graph._row_sums(indptr, values).tolist()


class TestRowSums:
    @given(_ROWS)
    @settings(max_examples=300, deadline=None)
    def test_equals_fsum_bit_for_bit_at_any_block_size(self, rows):
        want = [struct.pack("<d", x) for x in fsum_rows(rows)]
        for block in (1, 3, 8192):
            with mock.patch.object(graph, "_SUM_BLOCK", block):
                assert [struct.pack("<d", x) for x in row_sums(rows)] == want

    @pytest.mark.parametrize(
        "row",
        [
            # s + e is 1 + 2**-53, a tie that rounds to 1.0; the last value,
            # kept only in the errors of e, lifts the exact sum above the tie.
            [1.0, 2.0**-53, 2.0**-110],
            # e stops one ulp below the tie 1.5 + 2**-53: each 2**-107 is a tie
            # that e rounds down, and F holds the 5 * 2**-107 that lift the sum above it.
            [1.5, 2.0**-53 - 2.0**-105] + [2.0**-107] * 5,
        ],
    )
    def test_a_rounding_tie_broken_below_the_cascade_goes_to_fsum(self, row):
        assert row_sums([row]) == fsum_rows([row]) == [row[0] + math.ulp(row[0])]

    def test_a_hub_row_is_not_summed_one_array_pass_per_value(self):
        rows = [[0.1] * 5000] + [[0.1 * (i + 1)] * (i % 3) for i in range(300)]
        with mock.patch.object(graph, "_SUM_BLOCK", 128), mock.patch.object(
            graph, "_two_sum", wraps=graph._two_sum
        ) as two_sum:
            assert row_sums(rows) == fsum_rows(rows)
        assert two_sum.call_count < 100


class TestNormalizedWeight:
    def test_direct_ratio(self):
        g = WeightedDigraph.from_dense_arcs(3, [(0, 1, 6.0), (0, 2, 2.0)])
        assert g.normalized_weight(0, 1) == 0.75

    def test_single_neighbor_is_one(self):
        g = WeightedDigraph.from_dense_arcs(2, [(0, 1, 17.0)])
        assert g.normalized_weight(0, 1) == 1.0

    def test_missing_arc_raises(self):
        g = WeightedDigraph.from_dense_arcs(3, [(0, 1, 1.0)])
        with pytest.raises(MissingArcError):
            g.normalized_weight(1, 0)

    def test_sums_to_one_over_neighbors(self):
        g = random_digraph(random.Random(11), 40)
        for v in range(g.vertex_count):
            if g.out_degree(v) == 0:
                continue
            total = math.fsum(g.normalized_weight(v, u) for u, _ in g.out_neighbors(v))
            assert abs(total - 1.0) <= 1e-12

    @given(small_graphs())
    @settings(max_examples=60)
    def test_sums_to_one_property(self, g):
        for v in range(g.vertex_count):
            if g.out_degree(v) == 0:
                continue
            total = math.fsum(g.normalized_weight(v, u) for u, _ in g.out_neighbors(v))
            assert abs(total - 1.0) <= 1e-12


class TestDyadCensus:
    def test_empty_graph(self):
        g = WeightedDigraph.from_dense_arcs(5, [])
        c = g.dyad_census()
        assert (c.mutual, c.asymmetric, c.null_dyads) == (0, 0, 10)

    def test_hand_enumerable(self):
        g = WeightedDigraph.from_dense_arcs(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0)])
        c = g.dyad_census()
        assert c == DyadCensus(mutual=1, asymmetric=1, null_dyads=4, total_arcs=3)

    def test_reported_large_scale_counts_satisfy_identity(self):
        # Consistency shape at production scale: counts of this magnitude
        # must satisfy the arc identity, whatever the data.
        c = DyadCensus(
            mutual=8_600_000, asymmetric=16_800_000, null_dyads=0, total_arcs=34_000_000
        )
        assert c.arc_identity_holds()

    def test_matches_brute_force_on_random_graphs(self):
        rnd = random.Random(3)
        for _ in range(20):
            g = random_digraph(rnd, rnd.randint(2, 40), arc_fraction=rnd.uniform(0.01, 0.2))
            assert g.dyad_census() == brute_force_census(g)

    @given(small_graphs())
    @settings(max_examples=80)
    def test_identities_hold(self, g):
        c = g.dyad_census()
        assert c.arc_identity_holds()
        assert c.pair_identity_holds(g.vertex_count)


def mutual_rows(g: WeightedDigraph) -> list[tuple[int, int, float, float]]:
    """The graph's mutual-dyad columns as (a, b, w_ab, w_ba) rows."""
    return list(zip(*(col.tolist() for col in g._mutual_arrays())))


class TestMutualDyads:
    def test_single_mutual_pair(self):
        g = WeightedDigraph.from_dense_arcs(3, [(1, 2, 5.0), (2, 1, 3.0)])
        assert mutual_rows(g) == [(1, 2, 5.0, 3.0)]

    def test_one_way_excluded(self):
        g = WeightedDigraph.from_dense_arcs(3, [(1, 2, 5.0)])
        assert mutual_rows(g) == []

    def test_matches_quadratic_pair_scan(self):
        g = random_digraph(random.Random(5), 30, arc_fraction=0.1)
        expected = []
        for a in range(g.vertex_count):
            for b in range(a + 1, g.vertex_count):
                if g.has_arc(a, b) and g.has_arc(b, a):
                    expected.append((a, b, g.weight(a, b), g.weight(b, a)))
        assert mutual_rows(g) == expected

    def test_sorted_and_unique(self):
        g = random_digraph(random.Random(9), 25, mutual_bias=0.9)
        keys = [(a, b) for a, b, _, _ in mutual_rows(g)]
        assert keys == sorted(set(keys))

    def test_mutual_columns_are_oriented_a_below_b(self):
        g = WeightedDigraph.from_dense_arcs(3, [(2, 1, 1.0), (1, 2, 4.0)])
        assert mutual_rows(g) == [(1, 2, 4.0, 1.0)]
        with pytest.raises(DomainError):
            reciprocity(g, 2, 2)

    @given(small_graphs())
    @settings(max_examples=60)
    def test_count_equals_census_mutual(self, g):
        assert len(mutual_rows(g)) == g.dyad_census().mutual

    @given(small_graphs(), st.sampled_from([1, 2, 3, 7]))
    @settings(max_examples=60)
    def test_reverse_arcs_match_a_lookup_per_arc_in_any_block_size(self, g, block):
        want = [g._find(d, s) for s, d, _ in g.arcs()]
        with mock.patch.object(graph, "_SUM_BLOCK", block):
            assert g._reverse_arcs().tolist() == want

    def test_reverse_arcs_hold_three_whole_graph_columns(self):
        """Past the graph, finding the reverse arcs costs its keys, their order and the result: 24 B per arc.

        Building every reversed-key temporary for the whole graph at once, as
        before the blockwise search, cost 56 B per arc.
        """

        def peak(v):
            offsets = np.array([-4, -3, -2, -1, 1, 2, 3, 4])  # every arc is mutual
            indices = np.sort((np.arange(v)[:, None] + offsets) % v, axis=1).ravel()
            g = WeightedDigraph(np.arange(0, 8 * v + 1, 8), indices, np.ones(8 * v))
            tracemalloc.start()
            try:
                assert np.count_nonzero(g._reverse_arcs() >= 0) == 8 * v
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2**13), peak(2**15)
        per_arc = (large - small) / (8 * (2**15 - 2**13))
        assert per_arc < 32, f"{per_arc:.1f} B of peak memory per extra arc"


class TestConstruction:
    def test_order_independent(self):
        arcs = [(0, 1, 2.5), (1, 0, 4.0), (2, 0, 1.0), (0, 2, 3.0), (2, 1, 7.0)]
        g1 = WeightedDigraph.from_dense_arcs(3, arcs)
        g2 = WeightedDigraph.from_dense_arcs(3, list(reversed(arcs)))
        assert g1 == g2
        assert [g1.out_strength(v) for v in range(3)] == [g2.out_strength(v) for v in range(3)]
        assert g1.dyad_census() == g2.dyad_census()
        assert g1.content_digest() == g2.content_digest()

    def test_builder_order_independent_with_labels(self):
        rows = [("x", "y", 2.0), ("y", "x", 1.0), ("z", "x", 5.0), ("x", "z", 4.0)]
        b1, b2 = GraphBuilder(), GraphBuilder()
        for r in rows:
            b1.add_arc(*r)
        for r in reversed(rows):
            b2.add_arc(*r)
        assert b1.build() == b2.build()

    def test_builder_aggregates_parallel_arcs(self):
        b = GraphBuilder()
        b.add_arc("a", "b", 2.0)
        b.add_arc("a", "b", 3.0)
        g = b.build()
        assert g.weight(0, 1) == 5.0

    def test_builder_drops_and_counts_self_loops(self):
        b = GraphBuilder()
        b.add_arc("a", "a", 1.0)
        b.add_arc("a", "b", 1.0)
        g = b.build()
        assert b.self_loops_dropped == 1
        assert g.arc_count == 1

    def test_rejects_bad_arcs(self):
        with pytest.raises(DomainError):
            WeightedDigraph.from_dense_arcs(2, [(0, 0, 1.0)])
        with pytest.raises(DomainError):
            WeightedDigraph.from_dense_arcs(2, [(0, 1, 0.0)])
        with pytest.raises(DomainError):
            WeightedDigraph.from_dense_arcs(2, [(0, 5, 1.0)])
        with pytest.raises(DomainError):
            WeightedDigraph.from_dense_arcs(2, [(0, 1, 1.0), (0, 1, 2.0)])

    def test_external_labels(self):
        b = GraphBuilder()
        b.add_arc("carol", "bob", 1.0)
        g = b.build()
        assert [g.external_label(v) for v in range(2)] == ["bob", "carol"]

    def test_from_columns_names_the_first_repeat_in_input_order(self):
        # Row 2 repeats row 0's arc (1, 2) before row 3 repeats row 1's (0, 1), whose key is smaller.
        with pytest.raises(DomainError, match=r"duplicate arc \(1, 2\)"):
            WeightedDigraph.from_columns(3, [1, 0, 1, 0], [2, 1, 2, 1], [1.0] * 4)


class TestVertexIds:
    def test_numpy_integer_ids_accepted(self):
        b = GraphBuilder()
        b.add_arc("x", "y", 2.0)
        b.add_arc("y", "x", 1.0)
        g = b.build()
        assert g.out_degree(np.int64(0)) == 1
        assert g.weight(np.int64(0), np.int64(1)) == 2.0
        assert g.external_label(np.int64(1)) == "y"

    def test_non_integer_ids_rejected(self):
        g = WeightedDigraph.from_dense_arcs(2, [(0, 1, 1.0)])
        for bad in (0.0, np.float64(0.0), "0", None, np.int64(2)):
            with pytest.raises(DomainError):
                g.out_degree(bad)


class TestNonFiniteWeights:
    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_from_dense_arcs_rejects(self, bad):
        with pytest.raises(DomainError):
            WeightedDigraph.from_dense_arcs(2, [(0, 1, 1.0), (1, 0, bad)])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_builder_rejects(self, bad):
        b = GraphBuilder()
        with pytest.raises(DomainError):
            b.add_arc("a", "b", bad)
        assert b.distinct_arcs == 0

    def test_out_strength_past_the_largest_float_names_the_vertex(self):
        arcs = [(1, 0, 1.0), (1, 2, 1e308), (1, 3, 1e308), (2, 1, 1e308), (2, 3, 1e308)]
        with pytest.raises(DomainError, match="out-strength of vertex '1' exceeds the largest float"):
            WeightedDigraph.from_dense_arcs(4, arcs)
        with pytest.raises(DomainError, match="vertex 'b'"):
            WeightedDigraph.from_dense_arcs(4, arcs, ("a", "b", "c", "d"))


def reference_digest(g: WeightedDigraph) -> str:
    """Digest v2 spelled out with struct: tag, V, label lengths, label text, CSR arrays."""
    labels = g.labels()
    data = [b"recipnet-digest-v2\0", struct.pack(f"<{1 + len(labels)}q", len(labels), *map(len, labels))]
    data.append("".join(labels).encode("utf-8"))
    indptr, indices, weights = g._indptr.tolist(), g._indices.tolist(), g._weights.tolist()
    data.append(struct.pack(f"<{len(indptr)}q{len(indices)}q{len(weights)}d", *indptr, *indices, *weights))
    return hashlib.sha256(b"".join(data)).hexdigest()


@st.composite
def labelled_graphs(draw) -> WeightedDigraph:
    """Small graphs with no labels, the labels "0".."V-1", or arbitrary distinct text labels."""
    g = draw(small_graphs(max_vertices=6))
    v = g.vertex_count
    kind = draw(st.sampled_from(["none", "digits", "text"]))
    labels = {
        "none": None,
        "digits": tuple(map(str, range(v))),
        "text": tuple(draw(st.lists(st.text(max_size=3), min_size=v, max_size=v, unique=True))),
    }[kind]
    src, dst, w = map(np.array, zip(*g.arcs())) if g.arc_count else ([], [], [])
    return WeightedDigraph.from_columns(v, src, dst, w, labels)


def with_arcs(g: WeightedDigraph, arcs, labels=None) -> WeightedDigraph:
    return WeightedDigraph.from_dense_arcs(g.vertex_count, arcs, labels if labels is not None else g.external_ids)


class TestContentDigest:
    @given(labelled_graphs())
    @settings(max_examples=100)
    def test_digest_equals_reference_computation(self, g):
        first = g.content_digest()
        assert g.content_digest() == first == reference_digest(g)
        assert g._reweighted(g._weights).content_digest() == first

    @given(labelled_graphs(), labelled_graphs())
    @settings(max_examples=150)
    def test_equal_graphs_iff_equal_digests(self, g1, g2):
        assert (g1 == g2) == (g1.content_digest() == g2.content_digest())

    @given(labelled_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_rebuilt_graph_shares_digest(self, g, rnd):
        arcs = list(g.arcs())
        rnd.shuffle(arcs)
        copy = with_arcs(g, arcs)
        assert copy == g
        assert copy.content_digest() == g.content_digest()

    @given(small_graphs())
    @settings(max_examples=50)
    def test_no_external_ids_equals_digit_labels(self, g):
        digits = with_arcs(g, list(g.arcs()), tuple(map(str, range(g.vertex_count))))
        assert g.external_ids is None
        assert digits == g
        assert digits.content_digest() == g.content_digest()

    @given(labelled_graphs(), st.data())
    @settings(max_examples=100)
    def test_one_ulp_weight_change_changes_digest(self, g, data):
        if not g.arc_count:
            return
        arcs = list(g.arcs())
        i = data.draw(st.integers(0, len(arcs) - 1))
        s, d, w = arcs[i]
        arcs[i] = (s, d, float(np.nextafter(w, data.draw(st.sampled_from([0.0, math.inf])))))
        changed = with_arcs(g, arcs)
        assert changed != g
        assert changed.content_digest() != g.content_digest()

    @given(labelled_graphs(), st.data())
    @settings(max_examples=100)
    def test_moved_arc_changes_digest(self, g, data):
        present = {(s, d) for s, d, _ in g.arcs()}
        free = [(s, d) for s in range(g.vertex_count) for d in range(g.vertex_count) if s != d and (s, d) not in present]
        if not present or not free:
            return
        arcs = list(g.arcs())
        i = data.draw(st.integers(0, len(arcs) - 1))
        arcs[i] = (*data.draw(st.sampled_from(free)), arcs[i][2])
        moved = with_arcs(g, arcs)
        assert moved != g
        assert moved.content_digest() != g.content_digest()

    @given(labelled_graphs(), st.data())
    @settings(max_examples=100)
    def test_label_swap_changes_digest(self, g, data):
        labels = g.labels()
        i, j = data.draw(st.lists(st.integers(0, len(labels) - 1), min_size=2, max_size=2, unique=True))
        labels[i], labels[j] = labels[j], labels[i]
        swapped = with_arcs(g, list(g.arcs()), tuple(labels))
        assert swapped != g
        assert swapped.content_digest() != g.content_digest()

    def test_labels_that_join_to_the_same_text_differ(self):
        arcs = [(0, 1, 1.0)]
        g1 = WeightedDigraph.from_dense_arcs(2, arcs, ("a\nb", "c"))
        g2 = WeightedDigraph.from_dense_arcs(2, arcs, ("a", "b\nc"))
        assert g1 != g2
        assert g1.content_digest() != g2.content_digest()
