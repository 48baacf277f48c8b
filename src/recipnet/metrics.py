"""Per-dyad and per-vertex measures on weighted digraphs.

Covers the reciprocity score of a mutual dyad (absolute log-ratio of the two
directed communication probabilities), its three-class interpretation,
the closed-form score under equidispersed weights, Herfindahl-style weight
concentration per vertex, and degree assortativity across linked dyads.

Bulk sweeps work on the graph's CSR arrays: :func:`dyad_scores` scores every
mutual dyad at once, in canonical (a, b) order, and per-dyad record objects
are built only when a caller asks for them. The scalar functions
(:func:`reciprocity`, :func:`concentration`) are the reference the sweeps
are tested against; logs and squares go through ``math.log`` and ``**`` in
both, so sweep and scalar results agree bit for bit. All functions are pure
reads of an immutable graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DomainError, MissingArcError, UndefinedCorrelationError
from .graph import _SUM_BLOCK, MutualDyad, WeightedDigraph, _row_sums

#: Class boundaries on the natural-log scale. A probability ratio of 1.5
#: separates reciprocal from partially reciprocal dyads; 9.0 separates
#: partially reciprocal from non-reciprocal. Boundary values belong to the
#: lower (more reciprocal) class.
RECIPROCAL_MAX = math.log(1.5)
PARTIAL_MAX = math.log(9.0)

DEFAULT_BIN_WIDTH = 0.1
#: A bin width that would need more bins than this is rejected, not allocated.
_MAX_BINS = 10_000


class DyadClass(Enum):
    RECIPROCAL = "reciprocal"
    PARTIALLY_RECIPROCAL = "partially_reciprocal"
    NON_RECIPROCAL = "non_reciprocal"


#: Array code of each class: its position in DyadClass, which searchsorted
#: on the two boundaries reproduces.
_CLASSES = tuple(DyadClass)
_CLASS_BOUNDS = np.array([RECIPROCAL_MAX, PARTIAL_MAX])


@dataclass(frozen=True)
class ReciprocityRecord:
    """Reciprocity score of one mutual dyad plus the inputs that produced it."""

    dyad: MutualDyad
    p_ab: float
    p_ba: float
    r_value: float
    dyad_class: DyadClass


@dataclass(frozen=True)
class ConcentrationScore:
    """Herfindahl concentration of a vertex's outgoing weights.

    ``h`` is the raw sum of squared normalized weights; ``h_star`` rescales it
    so 0 means an equal split across all out-neighbors and 1 means everything
    on a single neighbor, independent of out-degree.
    """

    vertex: int
    h: float
    h_star: float


@dataclass(frozen=True)
class AssortativityResult:
    r: float
    pair_count: int


def reciprocity_value(w_ab: float, w_ba: float, s_a: float, s_b: float) -> float:
    """|ln(w_ab/s_a) - ln(w_ba/s_b)|: imbalance of the two directed probabilities.

    0 means both endpoints are equally likely to direct their next
    communication at each other; the score grows with the probability ratio
    and is symmetric in the two directions.
    """
    if w_ab <= 0 or w_ba <= 0:
        raise DomainError("dyad weights must be strictly positive")
    if s_a < w_ab or s_b < w_ba:
        raise DomainError("vertex strength cannot be smaller than the arc weight")
    return abs(math.log(w_ab / s_a) - math.log(w_ba / s_b))


def reciprocity(g: WeightedDigraph, dyad: MutualDyad | tuple[int, int]) -> ReciprocityRecord:
    """Score one mutual dyad of ``g``.

    Accepts a MutualDyad or a bare (a, b) pair in either order; the pair must
    be mutual (a one-way arc has no two-way relationship to score).
    """
    if isinstance(dyad, MutualDyad):
        a, b = dyad.a, dyad.b
    else:
        a, b = dyad
        if a == b:
            raise DomainError("a dyad needs two distinct vertices")
        if a > b:
            a, b = b, a
    if not (g.has_arc(a, b) and g.has_arc(b, a)):
        raise MissingArcError(f"pair ({a}, {b}) is not mutual; reciprocity is undefined")
    w_ab = g.weight(a, b)
    w_ba = g.weight(b, a)
    s_a = g.out_strength(a)
    s_b = g.out_strength(b)
    r = reciprocity_value(w_ab, w_ba, s_a, s_b)
    return ReciprocityRecord(MutualDyad(a, b, w_ab, w_ba), w_ab / s_a, w_ba / s_b, r, classify(r))


class DyadScores(NamedTuple):
    """Every mutual dyad's score as parallel arrays, in canonical (a, b) order.

    ``dyad_class`` holds each dyad's position in :class:`DyadClass`.
    """

    a: np.ndarray
    b: np.ndarray
    w_ab: np.ndarray
    w_ba: np.ndarray
    p_ab: np.ndarray
    p_ba: np.ndarray
    r_value: np.ndarray
    dyad_class: np.ndarray

    def records(self) -> list[ReciprocityRecord]:
        return [
            ReciprocityRecord(MutualDyad(a, b, w_ab, w_ba), p_ab, p_ba, r, _CLASSES[c])
            for a, b, w_ab, w_ba, p_ab, p_ba, r, c in zip(*(col.tolist() for col in self))
        ]

    def histogram(self, bin_width: float = DEFAULT_BIN_WIDTH) -> ReciprocityHistogram:
        return _histogram(self.r_value, self.dyad_class, bin_width)


def _log(p: np.ndarray) -> np.ndarray:
    # math.log, not np.log: the two differ in the last bit for some inputs.
    return np.fromiter(map(math.log, p.tolist()), dtype=np.float64, count=len(p))


def dyad_scores(g: WeightedDigraph) -> DyadScores:
    """Score every mutual dyad of ``g`` at once (same values as :func:`reciprocity`)."""
    a, b, w_ab, w_ba = g._mutual_arrays()
    p_ab = w_ab / g._out_strength[a]
    p_ba = w_ba / g._out_strength[b]
    r = np.abs(_log(p_ab) - _log(p_ba))
    return DyadScores(a, b, w_ab, w_ba, p_ab, p_ba, r, np.searchsorted(_CLASS_BOUNDS, r))


def reciprocity_records(g: WeightedDigraph) -> list[ReciprocityRecord]:
    """Score every mutual dyad, in canonical (a, b) order, as record objects."""
    return dyad_scores(g).records()


def classify(r_value: float) -> DyadClass:
    """Map a reciprocity score to its class; boundaries go to the lower class."""
    if not (isinstance(r_value, (int, float)) and math.isfinite(r_value)) or r_value < 0:
        raise DomainError(f"reciprocity score must be finite and >= 0, got {r_value!r}")
    if r_value <= RECIPROCAL_MAX:
        return DyadClass.RECIPROCAL
    if r_value <= PARTIAL_MAX:
        return DyadClass.PARTIALLY_RECIPROCAL
    return DyadClass.NON_RECIPROCAL


def equidispersion_prediction(k_a: int, k_b: int) -> float:
    """Reciprocity score of a dyad when both endpoints split weight equally.

    Under an equal split every outgoing probability is 1/out-degree, so the
    score collapses to |ln k_b - ln k_a|: strength drops out entirely and only
    the out-degree mismatch remains.
    """
    if k_a < 1 or k_b < 1:
        raise DomainError("out-degrees must be >= 1")
    return abs(math.log(k_b) - math.log(k_a))


def concentration(g: WeightedDigraph, v: int) -> ConcentrationScore:
    """Herfindahl weight concentration for a vertex with out-degree >= 2.

    h_star's denominator vanishes at out-degree 1, so degree-1 vertices are
    outside the domain.
    """
    k = g.out_degree(v)
    if k < 2:
        raise DomainError(f"concentration needs out-degree >= 2, vertex {v} has {k}")
    s = g.out_strength(v)
    h = math.fsum((w / s) * (w / s) for _, w in g.out_neighbors(v))
    h_star = (h - 1.0 / k) / (1.0 - 1.0 / k)
    return ConcentrationScore(vertex=v, h=h, h_star=h_star)


def concentration_arrays(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vertex, h, h_star) for every vertex with out-degree >= 2, ascending.

    Same values as :func:`concentration`: the shares and their squares
    (``x*x``, the correctly rounded square) are made one block of arcs at a
    time into one float column, and each vertex's sum of them is correctly
    rounded, as by ``math.fsum``, in array code. No whole-graph share,
    source or square column is built beside it.
    """
    k = np.diff(g._indptr)
    squares = np.empty(g.arc_count)
    for lo in range(0, g.arc_count, _SUM_BLOCK):
        arcs = np.arange(lo, min(lo + _SUM_BLOCK, g.arc_count))
        shares = g._weights[arcs] / g._out_strength[np.searchsorted(g._indptr, arcs, side="right") - 1]
        squares[arcs] = shares * shares
    vertices = np.flatnonzero(k >= 2)
    h = _row_sums(g._indptr, squares)[vertices]
    inv_k = 1.0 / k[vertices]
    return vertices, h, (h - inv_k) / (1.0 - inv_k)


def concentration_scores(g: WeightedDigraph) -> list[ConcentrationScore]:
    """Scores for every vertex with out-degree >= 2, ascending vertex order."""
    return list(map(ConcentrationScore, *(col.tolist() for col in concentration_arrays(g))))


def _mutual_backbone_pairs(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray, int]:
    a, b, _, _ = g._mutual_arrays()
    degree = np.bincount(a, minlength=g.vertex_count) + np.bincount(b, minlength=g.vertex_count)
    x = (degree[a] - 1).astype(np.float64)
    y = (degree[b] - 1).astype(np.float64)
    # Both orientations per dyad, so the correlation is endpoint-symmetric.
    return np.concatenate([x, y]), np.concatenate([y, x]), 2 * len(a)


def _full_arc_pairs(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray, int]:
    src, dst, v = g._sources(), g._indices, g.vertex_count
    # Undirected neighbors: out plus in, less the mutual partners counted twice.
    mutual_out = src[g._reverse_arcs() >= 0]
    degree = np.bincount(np.concatenate([src, dst]), minlength=v) - np.bincount(mutual_out, minlength=v)
    x = (degree[src] - 1).astype(np.float64)
    y = (degree[dst] - 1).astype(np.float64)
    return x, y, len(src)


def degree_assortativity(g: WeightedDigraph, mutual_only: bool = True) -> AssortativityResult:
    """Pearson correlation of excess degrees across linked vertex pairs.

    ``mutual_only`` (default) works on the mutual-dyad backbone, each dyad
    contributing both endpoint orderings; otherwise every directed arc
    contributes one (tail, head) pair with degrees counted over the
    undirected neighbor sets.
    """
    if mutual_only:
        x, y, n = _mutual_backbone_pairs(g)
    else:
        x, y, n = _full_arc_pairs(g)
    if n < 2:
        raise DomainError("assortativity needs at least two endpoint pairs")
    mean_x = float(x.mean())
    mean_y = float(y.mean())
    var_x = float(((x - mean_x) ** 2).mean())
    var_y = float(((y - mean_y) ** 2).mean())
    if var_x == 0.0 or var_y == 0.0:
        raise UndefinedCorrelationError(
            "degree correlation undefined: zero variance in the degree sequence"
        )
    cov = float(((x - mean_x) * (y - mean_y)).mean())
    return AssortativityResult(r=cov / math.sqrt(var_x * var_y), pair_count=n)


@dataclass(frozen=True)
class ReciprocityHistogram:
    """Fixed-width histogram of reciprocity scores starting at 0.

    ``counts[i]`` covers the half-open bin [i*bin_width, (i+1)*bin_width);
    trailing empty bins are trimmed. ``class_proportions`` is the
    (reciprocal, partially reciprocal, non-reciprocal) share of all records.
    """

    bin_width: float
    counts: tuple[int, ...]
    total: int
    class_proportions: tuple[float, float, float]

    def bins(self) -> list[tuple[float, float, int]]:
        return [
            (i * self.bin_width, (i + 1) * self.bin_width, c)
            for i, c in enumerate(self.counts)
        ]


def _histogram(r: np.ndarray, classes: np.ndarray, bin_width: float) -> ReciprocityHistogram:
    if not (bin_width > 0 and math.isfinite(bin_width)):
        raise DomainError(f"bin width must be finite and positive, got {bin_width}")
    if len(r) and r.max() // bin_width >= _MAX_BINS:
        raise DomainError(f"bin width {bin_width} would need more than {_MAX_BINS} histogram bins")
    counts = tuple(np.bincount((r // bin_width).astype(np.int64)).tolist())
    by_class = np.bincount(classes, minlength=len(_CLASSES)).tolist()
    shares = tuple(c / len(r) for c in by_class) if len(r) else (0.0, 0.0, 0.0)
    return ReciprocityHistogram(bin_width, counts, len(r), shares)


def reciprocity_distribution(
    records: Iterable[ReciprocityRecord],
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> ReciprocityHistogram:
    """Bin reciprocity scores and tally the three class shares."""
    records = list(records)
    r = np.array([rec.r_value for rec in records], dtype=np.float64)
    classes = np.array([_CLASSES.index(rec.dyad_class) for rec in records], dtype=np.int64)
    return _histogram(r, classes, bin_width)
