"""Counterfactual network construction: rewiring and weight redistribution.

Three transforms, composable into a 2x2 family of comparison networks:

* ``equidisperse`` keeps the topology but spreads each vertex's outgoing
  strength equally across its out-neighbors.
* ``maslov_sneppen_rewire`` randomizes who is connected to whom on the
  backbone of mutual dyads while preserving every vertex's degree, driving
  degree assortativity to zero.
* ``reattach_weights`` maps each vertex's original outgoing weight multiset
  onto a rewired neighbor set by seeded random permutation, so per-vertex
  strength and weight dispersion survive the rewiring.

Rewiring deliberately operates on the mutual-dyad backbone rather than the
raw directed arc set: naive directed-arc swaps would destroy mutuality and
empty the set of dyads the reciprocity analysis is about. One-way arcs are
carried through unchanged (they still contribute to vertex strength), and no
backbone edge is rewired onto a pair that carries one.

The swap loop itself is :func:`_swap_chain`, shared with the synthetic
generator, which uses it to plant assortativity instead of removing it.

All randomness comes from one numpy ``Generator`` (PCG64, as in the
synthetic generator) that the caller supplies, so one seed reproduces a
rewiring, weights included, bit for bit. The four-network comparison built
from these transforms lives in :mod:`recipnet.report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DomainError, IntegrityError
from .graph import WeightedDigraph

#: Rewiring stops early once |assortativity| of the evolving backbone drops
#: below this, checked every edge_count/10 attempts.
EARLY_STOP_R = 0.005

DEFAULT_SWAP_MULTIPLIER = 10


@dataclass
class RewireOutcome:
    graph: WeightedDigraph
    attempted_swaps: int
    accepted_swaps: int
    residual_assortativity: float | None
    warning: str | None = None

    def stats(self) -> dict[str, Any]:
        """The swap counts, residual assortativity and warning, as outputs record them."""
        return {
            "attempted_swaps": self.attempted_swaps,
            "accepted_swaps": self.accepted_swaps,
            "residual_assortativity": self.residual_assortativity,
            "warning": self.warning,
        }


def equidisperse(g: WeightedDigraph) -> WeightedDigraph:
    """Replace every arc weight from v with out_strength(v)/out_degree(v).

    Topology and per-vertex strength are preserved; afterwards every
    normalized weight equals 1/out-degree, so each mutual dyad's reciprocity
    score depends only on the two out-degrees.
    """
    src = g._sources()
    return g._reweighted(g._out_strength[src] / np.bincount(src)[src])


def reattach_weights(
    rewired: WeightedDigraph,
    original: WeightedDigraph,
    rng: np.random.Generator,
) -> WeightedDigraph:
    """Permute each vertex's original mutual out-weights onto its new neighbors.

    The rewired graph must have the same per-vertex mutual degree as the
    original. Weights on one-way arcs of the rewired graph are left as they
    are. Per-vertex strength and out-weight multiset are preserved exactly.
    """
    if rewired.vertex_count != original.vertex_count:
        raise IntegrityError("vertex counts differ between rewired and original graphs")
    v_count = original.vertex_count
    # Mutual arcs in CSR order: grouped by source, partners ascending.
    orig_mutual = original._reverse_arcs() >= 0
    new_mutual = rewired._reverse_arcs() >= 0
    orig_src = original._sources()[orig_mutual]
    orig_deg = np.bincount(orig_src, minlength=v_count)
    new_deg = np.bincount(rewired._sources()[new_mutual], minlength=v_count)
    if (orig_deg != new_deg).any():
        v = int(np.argmax(orig_deg != new_deg))
        raise IntegrityError(f"mutual degree of vertex {v} changed: {orig_deg[v]} -> {new_deg[v]}")
    # Sorting by (source, random key) shuffles every vertex's weights at once.
    order = np.lexsort((rng.random(len(orig_src)), orig_src))
    # One-way arcs keep their endpoints and weights.
    new_weights = rewired._weights.copy()
    new_weights[new_mutual] = original._weights[orig_mutual][order]
    return rewired._reweighted(new_weights)


def _swap_chain(
    edges: np.ndarray,
    vertex_count: int,
    rng: np.random.Generator,
    budget: int,
    target: float,
    tolerance: float,
    blocked: np.ndarray = np.empty(0, dtype=np.int64),
    toward_target: bool = False,
) -> tuple[np.ndarray, int, int, float | None]:
    """Degree-preserving edge swaps on an ``(m, 2)`` int64 edge array (a < b per row).

    Each attempt picks two edges (a-b), (c-d) uniformly, orients each by a
    coin flip, and proposes (a-d), (c-b). A proposal is invalid if it would
    create a self-loop or a duplicate edge or land on a ``blocked`` pair
    (keys a * vertex_count + b, a < b; none of them an edge). Every valid
    proposal is accepted, unless ``toward_target`` is set: then only
    proposals that bring the degree assortativity r closer to ``target`` are. Randomness is drawn max(1, m // 10) attempts at a time
    for m edges; after each such chunk the chain stops once
    |r - target| < ``tolerance``, and it never runs past ``budget`` attempts.

    Degrees never change, so Newman's r (the Pearson correlation of the
    endpoint degrees, each edge counted both ways; using excess degrees
    instead does not change it) follows from a running sum of degree
    products. Exact integer sums make the returned r the
    correctly rounded value for the final edge array, or None when every
    endpoint has the same degree. Returns (edges, attempted, accepted, r),
    the edges in the input's row order.
    """
    v = vertex_count
    m = len(edges)
    # Python ints (object dtype) keep the degree sums exact at any size.
    deg = np.bincount(edges.ravel(), minlength=v).astype(object)
    du, dv = deg[edges[:, 0]], deg[edges[:, 1]]
    n = 2 * m
    s1 = int((du + dv).sum())
    denom = n * int((du * du + dv * dv).sum()) - s1 * s1
    sxy = int((du * dv).sum())
    deg = deg.tolist()

    def r_of(s: int) -> float | None:
        return (2 * n * s - s1 * s1) / denom if denom > 0 else None

    if toward_target and denom <= 0:  # r is undefined, so no swap can move it
        return edges, 0, 0, None
    # r rises linearly with the running sum; this sum gives r == target.
    s_target = (target * denom + s1 * s1) / (2 * n) if denom > 0 else 0.0

    # Edge i is keys[i] = a * v + b; taken holds the edges' keys and the
    # blocked ones, which never leave it because they are never edges.
    keys = (edges[:, 0] * v + edges[:, 1]).tolist()
    taken = set(keys)
    taken.update(blocked.tolist())
    attempted = accepted = 0
    while attempted < budget:
        chunk = min(max(1, m // 10), budget - attempted)
        picks = rng.integers(0, m, (chunk, 2)).tolist()
        flips = (rng.random((chunk, 2)) < 0.5).tolist()
        attempted += chunk
        for (i1, i2), (f1, f2) in zip(picks, flips):
            if i1 == i2:
                continue
            k1, k2 = keys[i1], keys[i2]
            a, b = divmod(k1, v)
            c, d = divmod(k2, v)
            if f1:
                a, b = b, a
            if f2:
                c, d = d, c
            if a == d or c == b:
                continue
            e1 = a * v + d if a < d else d * v + a
            e2 = c * v + b if c < b else b * v + c
            if e1 == e2 or e1 in taken or e2 in taken:
                continue
            # Replacing (a-b), (c-d) by (a-d), (c-b) moves the sum of degree products by:
            new_sxy = sxy + (deg[a] - deg[c]) * (deg[d] - deg[b])
            if toward_target and abs(new_sxy - s_target) >= abs(sxy - s_target):
                continue
            taken.remove(k1)
            taken.remove(k2)
            taken.add(e1)
            taken.add(e2)
            keys[i1] = e1
            keys[i2] = e2
            sxy = new_sxy
            accepted += 1
        r = r_of(sxy)
        if r is not None and abs(r - target) < tolerance:
            break
    return np.column_stack(np.divmod(np.array(keys, dtype=np.int64), v)), attempted, accepted, r_of(sxy)


def maslov_sneppen_rewire(
    g: WeightedDigraph,
    rng: np.random.Generator,
    swap_multiplier: int = DEFAULT_SWAP_MULTIPLIER,
) -> RewireOutcome:
    """Degree-preserving randomization of the mutual-dyad backbone.

    Runs :func:`_swap_chain` on the backbone, accepting every valid swap, for
    ``swap_multiplier * edge_count`` attempts, stopping early once the
    backbone's assortativity is neutral (|r| < 0.005). Directed weights are
    put back with :func:`reattach_weights` using the same RNG.
    """
    if swap_multiplier < 1:
        raise DomainError("swap multiplier must be a positive integer")
    a_col, b_col, _, _ = g._mutual_arrays()
    edge_count = len(a_col)
    if edge_count < 2:
        raise DomainError("rewiring needs at least 2 mutual dyads")

    # Pairs carrying a one-way arc are off limits for new backbone edges:
    # landing on one would merge it into a mutual dyad and change the census.
    one_way = g._reverse_arcs() < 0
    one_src, one_dst = g._sources()[one_way], g._indices[one_way]
    blocked = np.minimum(one_src, one_dst) * g.vertex_count + np.maximum(one_src, one_dst)

    e, attempted, accepted, residual = _swap_chain(
        np.column_stack((a_col, b_col)),
        g.vertex_count,
        rng,
        budget=swap_multiplier * edge_count,
        target=0.0,
        tolerance=EARLY_STOP_R,
        blocked=blocked,
    )
    if accepted == 0:
        warning = "no acceptable swap found; graph returned unchanged"
        return RewireOutcome(g, attempted, 0, residual, warning)

    ones = np.ones(edge_count)
    skeleton = WeightedDigraph.from_columns(
        g.vertex_count,
        np.concatenate([e[:, 0], e[:, 1], one_src]),
        np.concatenate([e[:, 1], e[:, 0], one_dst]),
        np.concatenate([ones, ones, g._weights[one_way]]),
        g.external_ids,
    )
    return RewireOutcome(reattach_weights(skeleton, g, rng), attempted, accepted, residual)

