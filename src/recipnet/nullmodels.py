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
carried through unchanged by default (they still contribute to vertex
strength) and can be dropped with ``keep_one_way=False``.

All randomness comes from a caller-supplied or seed-constructed
``random.Random`` (Mersenne Twister); one seed reproduces a whole regime
construction bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IntegrityError, UndefinedCorrelationError
from .graph import WeightedDigraph
from .metrics import degree_assortativity

#: Rewiring stops early once |assortativity| of the evolving backbone drops
#: below this, checked every edge_count/10 attempts.
EARLY_STOP_R = 0.005

DEFAULT_SWAP_MULTIPLIER = 10


@dataclass(frozen=True)
class RegimeConfig:
    """One cell of the 2x2 comparison: which structure to keep or destroy."""

    destroy_assortativity: bool
    impose_equidispersion: bool
    seed: int = 0
    swap_multiplier: int = DEFAULT_SWAP_MULTIPLIER

    def __post_init__(self) -> None:
        if self.swap_multiplier < 1:
            raise DomainError("swap multiplier must be a positive integer")


@dataclass
class RewireOutcome:
    graph: WeightedDigraph
    attempted_swaps: int
    accepted_swaps: int
    residual_assortativity: float | None
    warning: str | None = None


@dataclass(frozen=True)
class RegimeSet:
    """The four comparison networks built from one observed graph."""

    observed: WeightedDigraph
    observed_equidispersed: WeightedDigraph
    rewired: WeightedDigraph
    rewired_equidispersed: WeightedDigraph
    rewire_outcome: RewireOutcome = field(compare=False)

    def items(self) -> list[tuple[str, WeightedDigraph]]:
        return [
            ("observed", self.observed),
            ("observed_equidispersed", self.observed_equidispersed),
            ("rewired", self.rewired),
            ("rewired_equidispersed", self.rewired_equidispersed),
        ]


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
    rng: random.Random,
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
    orig_deg = np.bincount(original._sources()[orig_mutual], minlength=v_count)
    new_deg = np.bincount(rewired._sources()[new_mutual], minlength=v_count)
    if (orig_deg != new_deg).any():
        v = int(np.argmax(orig_deg != new_deg))
        raise IntegrityError(f"mutual degree of vertex {v} changed: {orig_deg[v]} -> {new_deg[v]}")
    weights = original._weights[orig_mutual].tolist()
    bounds = np.concatenate([[0], np.cumsum(orig_deg)]).tolist()
    # One shuffle per vertex, in vertex order (lists shorter than 2 draw nothing).
    for v in np.flatnonzero(orig_deg >= 2).tolist():
        part = weights[bounds[v] : bounds[v + 1]]
        rng.shuffle(part)
        weights[bounds[v] : bounds[v + 1]] = part
    # One-way arcs keep their endpoints and weights.
    new_weights = rewired._weights.copy()
    new_weights[new_mutual] = weights
    return rewired._reweighted(new_weights)


def maslov_sneppen_rewire(
    g: WeightedDigraph,
    cfg: RegimeConfig | None = None,
    rng: random.Random | None = None,
    keep_one_way: bool = True,
) -> RewireOutcome:
    """Degree-preserving randomization of the mutual-dyad backbone.

    Repeatedly picks two backbone edges (a-b), (c-d) uniformly and proposes
    (a-d), (c-b); a proposal is rejected if it would create a self-loop or a
    duplicate edge. The per-vertex degree sequence is untouched. Directed
    weights are put back with :func:`reattach_weights` using the same RNG.
    Runs for ``swap_multiplier * edge_count`` attempts, stopping early once
    the backbone's assortativity is neutral (|r| < 0.005).
    """
    if cfg is None:
        cfg = RegimeConfig(destroy_assortativity=True, impose_equidispersion=False)
    if rng is None:
        rng = random.Random(cfg.seed)
    a_col, b_col, _, _ = g._mutual_arrays()
    edges = list(zip(a_col.tolist(), b_col.tolist()))
    edge_count = len(edges)
    if edge_count < 2:
        raise DomainError("rewiring needs at least 2 mutual dyads")

    adjacency: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)

    # Pairs carrying a one-way arc are off limits for new backbone edges:
    # landing on one would merge it into a mutual dyad and change the census.
    one_way = (g._reverse_arcs() < 0) & keep_one_way
    one_src, one_dst = g._sources()[one_way], g._indices[one_way]
    lo, hi = np.minimum(one_src, one_dst), np.maximum(one_src, one_dst)
    blocked = set(zip(lo.tolist(), hi.tolist()))

    # The degree sequence is invariant under swaps, so the Pearson correlation
    # over endpoint pairs reduces to a running sum of excess-degree products.
    degree = [len(s) for s in adjacency]
    x = [d - 1 for d in degree]
    n_pairs = 2 * edge_count
    sum_x = sum(x[a] + x[b] for a, b in edges)
    sum_x2 = sum(x[a] ** 2 + x[b] ** 2 for a, b in edges)
    mean = sum_x / n_pairs
    var = sum_x2 / n_pairs - mean * mean
    sum_xy = sum(x[a] * x[b] for a, b in edges)

    def current_r() -> float | None:
        if var <= 0.0:
            return None
        return (2 * sum_xy / n_pairs - mean * mean) / var

    budget = cfg.swap_multiplier * edge_count
    check_every = max(1, edge_count // 10)
    attempted = 0
    accepted = 0
    randrange = rng.randrange
    coin = rng.random
    while attempted < budget:
        attempted += 1
        i1 = randrange(edge_count)
        i2 = randrange(edge_count)
        if i1 != i2:
            a, b = edges[i1]
            c, d = edges[i2]
            if coin() < 0.5:
                a, b = b, a
            if coin() < 0.5:
                c, d = d, c
            # New edges: a-d and c-b.
            if a != d and c != b and d not in adjacency[a] and b not in adjacency[c]:
                e1 = (a, d) if a < d else (d, a)
                e2 = (c, b) if c < b else (b, c)
                if e1 != e2 and e1 not in blocked and e2 not in blocked:
                    adjacency[a].discard(b)
                    adjacency[b].discard(a)
                    adjacency[c].discard(d)
                    adjacency[d].discard(c)
                    adjacency[a].add(d)
                    adjacency[d].add(a)
                    adjacency[c].add(b)
                    adjacency[b].add(c)
                    edges[i1] = e1
                    edges[i2] = e2
                    sum_xy += x[a] * x[d] + x[c] * x[b] - x[a] * x[b] - x[c] * x[d]
                    accepted += 1
        if attempted % check_every == 0:
            r = current_r()
            if r is not None and abs(r) < EARLY_STOP_R:
                break

    if accepted == 0:
        return RewireOutcome(
            graph=g,
            attempted_swaps=attempted,
            accepted_swaps=0,
            residual_assortativity=current_r(),
            warning="no acceptable swap found; graph returned unchanged",
        )

    e = np.array(edges, dtype=np.int64)
    ones = np.ones(edge_count)
    skeleton = WeightedDigraph.from_columns(
        g.vertex_count,
        np.concatenate([e[:, 0], e[:, 1], one_src]),
        np.concatenate([e[:, 1], e[:, 0], one_dst]),
        np.concatenate([ones, ones, g._weights[one_way]]),
        g.external_ids,
    )
    result = reattach_weights(skeleton, g, rng)

    try:
        residual = degree_assortativity(result, mutual_only=True).r
    except UndefinedCorrelationError:
        residual = None
    return RewireOutcome(
        graph=result,
        attempted_swaps=attempted,
        accepted_swaps=accepted,
        residual_assortativity=residual,
    )


def four_regimes(
    g: WeightedDigraph,
    seed: int = 0,
    swap_multiplier: int = DEFAULT_SWAP_MULTIPLIER,
    keep_one_way: bool = True,
) -> RegimeSet:
    """All four comparison networks from one observed graph.

    A single rewiring pass (one seed) backs both rewired cells, so the
    equidispersed and dispersion-keeping variants differ only in their
    weights, never in topology.
    """
    cfg = RegimeConfig(
        destroy_assortativity=True,
        impose_equidispersion=False,
        seed=seed,
        swap_multiplier=swap_multiplier,
    )
    outcome = maslov_sneppen_rewire(g, cfg, keep_one_way=keep_one_way)
    return RegimeSet(
        observed=g,
        observed_equidispersed=equidisperse(g),
        rewired=outcome.graph,
        rewired_equidispersed=equidisperse(outcome.graph),
        rewire_outcome=outcome,
    )
