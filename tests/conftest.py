"""Shared graph generators for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from recipnet.graph import WeightedDigraph


def random_digraph(
    rnd: random.Random,
    vertex_count: int,
    arc_fraction: float = 0.05,
    mutual_bias: float = 0.5,
    max_weight: int = 20,
) -> WeightedDigraph:
    """Random integer-weighted digraph; mutual_bias reciprocates sampled arcs."""
    arcs: dict[tuple[int, int], float] = {}
    target = max(1, int(arc_fraction * vertex_count * (vertex_count - 1)))
    while len(arcs) < target:
        a = rnd.randrange(vertex_count)
        b = rnd.randrange(vertex_count)
        if a == b:
            continue
        arcs[(a, b)] = float(rnd.randint(1, max_weight))
        if rnd.random() < mutual_bias:
            arcs.setdefault((b, a), float(rnd.randint(1, max_weight)))
    return WeightedDigraph.from_dense_arcs(
        vertex_count, [(a, b, w) for (a, b), w in arcs.items()]
    )


def mutual_pairs(g: WeightedDigraph) -> list[tuple[int, int]]:
    """Every mutual dyad's ends (a, b), a < b, in (a, b) order."""
    a, b = g._mutual_ends()[:2]
    return list(zip(a.tolist(), b.tolist()))


@st.composite
def small_graphs(draw, max_vertices: int = 10, max_weight: int = 9) -> WeightedDigraph:
    v = draw(st.integers(min_value=2, max_value=max_vertices))
    pairs = [(a, b) for a in range(v) for b in range(v) if a != b]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=0, max_size=len(pairs))
    )
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_weight),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    arcs = [(a, b, float(w)) for (a, b), w in zip(chosen, weights)]
    return WeightedDigraph.from_dense_arcs(v, arcs)


@st.composite
def mutual_graphs(draw, max_vertices: int = 10, max_weight: int = 9) -> WeightedDigraph:
    """Graphs guaranteed to contain at least one mutual dyad."""
    g = draw(small_graphs(max_vertices=max_vertices, max_weight=max_weight))
    if g.dyad_census().mutual:
        return g
    v = g.vertex_count
    w_ab = float(draw(st.integers(min_value=1, max_value=max_weight)))
    w_ba = float(draw(st.integers(min_value=1, max_value=max_weight)))
    arcs = list(g.arcs())
    have = {(a, b) for a, b, _ in arcs}
    if (0, 1) not in have:
        arcs.append((0, 1, w_ab))
    if (1, 0) not in have:
        arcs.append((1, 0, w_ba))
    return WeightedDigraph.from_dense_arcs(v, arcs)
