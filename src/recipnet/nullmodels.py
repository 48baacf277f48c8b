"""Counterfactual network construction: rewiring and weight redistribution.

Three transforms, composable into a 2x2 family of comparison networks:

* ``equidisperse`` keeps the topology but spreads each vertex's outgoing
  strength equally across its out-neighbors.
* ``maslov_sneppen_rewire`` randomizes who is connected to whom on the
  backbone of mutual dyads while preserving every vertex's degree, driving
  degree assortativity to zero. It returns the rewired graph and its swap
  statistics as the plain dict that outputs print.
* ``reattach_weights`` builds the graph of a rewired backbone edge array,
  mapping each vertex's original outgoing weight multiset onto its new
  neighbors by seeded random permutation, so strength and dispersion survive.

Rewiring deliberately operates on the mutual-dyad backbone rather than the
raw directed arc set: naive directed-arc swaps would destroy mutuality and
empty the set of dyads the reciprocity analysis is about. One-way arcs are
carried through unchanged (they still contribute to vertex strength), and no
backbone edge is rewired onto a pair that carries one.

The swaps themselves are :func:`_swap_chain`, rounds of array operations
over disjoint proposals with no Python loop over them, valid by the one
rule of :func:`_valid_swaps`. The synthetic generator shares both, to plant
assortativity and to place the stub pairs its pairing left over.

All randomness comes from one numpy ``Generator`` (PCG64, as in the
synthetic generator) that the caller supplies, so one seed reproduces a
rewiring, weights included, bit for bit. The four-network comparison built
from these transforms lives in :mod:`recipnet.report`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .errors import DomainError, IntegrityError
from .graph import WeightedDigraph
from .metrics import _backbone_moments, _r_of

#: Rewiring stops early once |assortativity| of the evolving backbone drops
#: below this, checked after each round of swap proposals.
EARLY_STOP_R = 0.005

DEFAULT_SWAP_MULTIPLIER = 10


def equidisperse(g: WeightedDigraph) -> WeightedDigraph:
    """Replace every arc weight from v with out_strength(v)/out_degree(v).

    Topology and per-vertex strength are preserved; afterwards every
    normalized weight equals 1/out-degree, so each mutual dyad's reciprocity
    score depends only on the two out-degrees.
    """
    src = g._sources()
    return g._reweighted(g._out_strength[src] / np.bincount(src)[src])


def reattach_weights(
    edges: np.ndarray,
    original: WeightedDigraph,
    rng: np.random.Generator,
) -> WeightedDigraph:
    """The graph whose mutual dyads are the ``(m, 2)`` array ``edges``, with the original's weights.

    Every vertex must keep its mutual degree. Its original mutual out-weights
    are permuted onto its new neighbors; one-way arcs are kept as they are.
    Per-vertex strength and out-weight multiset are preserved exactly.
    """
    v_count = original.vertex_count
    if len(edges) and (edges.min() < 0 or edges.max() >= v_count):
        raise DomainError(f"backbone edge endpoint outside 0..{v_count - 1}")
    src, dst = _arcs_both_ways(edges)
    mutual = original._reverse_arcs() >= 0
    orig_src = original._sources()[mutual]
    orig_deg = np.bincount(orig_src, minlength=v_count)
    new_deg = np.bincount(src, minlength=v_count)
    if (orig_deg != new_deg).any():
        v = int(np.argmax(orig_deg != new_deg))
        raise IntegrityError(f"mutual degree of vertex {v} changed: {orig_deg[v]} -> {new_deg[v]}")
    # Both lists of mutual arcs are grouped by source (CSR order), so sorting by
    # (source, random key) shuffles every vertex's weights onto its new arcs at once.
    weights = original._weights[mutual][np.lexsort((rng.random(len(orig_src)), orig_src))]
    # Rebinding the columns frees the mutual-only arrays before the build, which is the rewire's peak.
    one_way = ~mutual
    src = np.concatenate((src, original._sources()[one_way]))
    dst = np.concatenate((dst, original._indices[one_way]))
    weights = np.concatenate((weights, original._weights[one_way]))
    return WeightedDigraph.from_columns(v_count, src, dst, weights, original.external_ids)


def _arcs_both_ways(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of both arcs of every row of an ``(m, 2)`` edge array, in CSR order: by source, then target."""
    src, dst = np.concatenate((edges, edges[:, ::-1])).T
    order = np.lexsort((dst, src))
    return src[order], dst[order]


def _free_swaps(
    a: np.ndarray | int, b: np.ndarray | int, c: np.ndarray, d: np.ndarray, occupied: np.ndarray, v: int
) -> tuple[np.ndarray, np.ndarray]:
    """The keys (a * v + b, a < b) of (a-d) and (c-b) for proposals (a-b),(c-d), and which are free.

    A proposal is free when it makes no self-loop and neither new key is in
    ``occupied`` (not empty): the rule for one proposal on its own.
    """
    new = np.stack((np.minimum(a, d) * v + np.maximum(a, d), np.minimum(c, b) * v + np.maximum(c, b)))
    occupied = np.sort(occupied)
    at = np.minimum(np.searchsorted(occupied, new), len(occupied) - 1)
    return new, (a != d) & (c != b) & ~(occupied[at] == new).any(axis=0)


def _valid_swaps(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray, old: np.ndarray, occupied: np.ndarray, v: int
) -> tuple[np.ndarray, np.ndarray]:
    """The keys of (a-d) and (c-b) for a round's proposals (a-b),(c-d), and which are valid.

    A proposal is valid when :func:`_free_swaps` finds it free and none of
    its new keys and the keys it gives up (its column of ``old``) is a key
    of another proposal of the round.
    """
    new, ok = _free_swaps(a, b, c, d, occupied, v)
    _, inverse, count = np.unique(np.concatenate((old, new)), return_inverse=True, return_counts=True)
    return new, ok & (count[inverse] == 1).reshape(-1, len(a)).all(axis=0)


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

    The chain runs in rounds of array operations. A round pairs the edges by
    one random permutation into m // 2 disjoint proposals. Each of a
    proposal's two edges, (a-b) and (c-d), is oriented by a coin flip, and
    the proposal replaces them with (a-d) and (c-b) if :func:`_valid_swaps`
    finds it valid, the edges and ``blocked`` pairs being occupied. Valid
    proposals never interact, and a reversed round makes the same choices,
    so the uniform distribution over simple graphs is stationary.

    With ``toward_target`` only proposals that move the degree assortativity
    r toward ``target`` are applied, up to the first one at which r reaches
    it. After each round the chain stops once |r - target| < ``tolerance``;
    it never runs past ``budget`` proposals.

    Degrees never change, so Newman's r (the Pearson correlation of the
    endpoint degrees, each edge counted both ways; using excess degrees
    instead does not change it) follows from a running sum of degree
    products. Exact integer sums and :func:`recipnet.metrics._r_of` make the
    returned r the correctly rounded value for the final edge array, or None
    when every endpoint has the same degree. Returns (edges, attempted,
    accepted, r), the edges in the input's row order.
    """
    v, m = vertex_count, len(edges)
    deg, (n, s1, _, sq, _, sxy) = _backbone_moments(edges[:, 0], edges[:, 1], v)
    sxy //= 2  # each edge's degree product once
    denom = n * sq - s1 * s1
    if toward_target and denom <= 0:  # r is undefined, so no swap can move it
        return edges, 0, 0, None
    # r rises linearly with the running sum; this sum gives r == target.
    s_target = (target * denom + s1 * s1) / (2 * n) if denom > 0 else 0.0

    keys = edges[:, 0] * v + edges[:, 1]
    attempted = accepted = 0
    while attempted < budget and m > 1:
        p = min(m // 2, budget - attempted)
        pick = rng.permutation(m)[: 2 * p].reshape(2, p)
        flip = rng.random((p, 2)) < 0.5
        attempted += p
        old = keys[pick]
        (a, c), (b, d) = np.divmod(old, v)
        a, b = np.where(flip[:, 0], b, a), np.where(flip[:, 0], a, b)
        c, d = np.where(flip[:, 1], d, c), np.where(flip[:, 1], c, d)
        new, ok = _valid_swaps(a, b, c, d, old, np.concatenate((keys, blocked)), v)
        # Swapping (a-b), (c-d) for (a-d), (c-b) moves the sum of degree
        # products by this; a round's total fits int64 while m * max_deg**2 < 2**63.
        delta = (deg[a] - deg[c]) * (deg[d] - deg[b])
        if toward_target:
            gap = s_target - sxy
            ok &= delta * gap > 0
            step = np.where(ok, np.abs(delta), 0)
            ok &= np.cumsum(step) - step < abs(gap)
        keys[pick[:, ok]] = new[:, ok]
        sxy += int(delta[ok].sum())
        accepted += int(ok.sum())
        r = _r_of(n, s1, s1, sq, sq, 2 * sxy)
        if r is not None and abs(r - target) < tolerance:
            break
    return np.column_stack(np.divmod(keys, v)), attempted, accepted, _r_of(n, s1, s1, sq, sq, 2 * sxy)


def maslov_sneppen_rewire(
    g: WeightedDigraph,
    rng: np.random.Generator,
    swap_multiplier: int = DEFAULT_SWAP_MULTIPLIER,
) -> tuple[WeightedDigraph, dict[str, Any]]:
    """Degree-preserving randomization of the mutual-dyad backbone: ``(graph, stats)``.

    Runs :func:`_swap_chain` on the backbone for at most
    ``swap_multiplier * edge_count`` proposals, stopping after the first
    round that leaves the backbone's assortativity neutral (|r| <
    ``EARLY_STOP_R``). Directed weights are put back with
    :func:`reattach_weights` using the same RNG. ``stats`` is the block that
    ``rewire`` prints and ``comparison.json`` holds: ``attempted_swaps``,
    ``accepted_swaps``, ``residual_assortativity`` (the backbone r of the
    returned graph) and ``warning``, set when no swap was accepted and ``g``
    itself is returned.
    """
    if swap_multiplier < 1:
        raise DomainError("swap multiplier must be a positive integer")
    a_col, b_col, _ = g._mutual_ends()
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
    warning = None if accepted else "no acceptable swap found; graph returned unchanged"
    stats = {"attempted_swaps": attempted, "accepted_swaps": accepted, "residual_assortativity": residual, "warning": warning}
    return (reattach_weights(e, g, rng) if accepted else g), stats
