"""Per-dyad and per-vertex measures on weighted digraphs.

Covers the reciprocity score of a mutual dyad (absolute log-ratio of the two
directed communication probabilities), its three-class interpretation,
the closed-form score under equidispersed weights, Herfindahl-style weight
concentration per vertex, and degree assortativity across linked dyads.

Bulk sweeps work on the graph's CSR arrays: :func:`dyad_scores` scores every
mutual dyad at once, in canonical (a, b) order, and
:func:`concentration_arrays` every vertex of out-degree 2 or more.
:func:`histogram` and :func:`degree_assortativity` return the JSON blocks
that reports and the CLI print, as plain dicts. The
scalar functions (:func:`reciprocity`, :func:`concentration`) return plain
values and are the reference the sweeps are tested against; logs go through
``math.log`` (a share that underflows to 0.0 as ln w - ln s) and squares are
``x*x`` in both, so sweep and scalar results agree bit for bit. All
functions are pure reads of an immutable graph.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Any, NamedTuple

import numpy as np

from .errors import DomainError, MissingArcError, UndefinedCorrelationError
from .graph import _SUM_BLOCK, WeightedDigraph, _row_sums

#: Class boundaries on the natural-log scale. A probability ratio of 1.5
#: separates reciprocal from partially reciprocal dyads; 9.0 separates
#: partially reciprocal from non-reciprocal. Boundary values belong to the
#: lower (more reciprocal) class.
RECIPROCAL_MAX = math.log(1.5)
PARTIAL_MAX = math.log(9.0)

DEFAULT_BIN_WIDTH = 0.1


class DyadClass(Enum):
    RECIPROCAL = "reciprocal"
    PARTIALLY_RECIPROCAL = "partially_reciprocal"
    NON_RECIPROCAL = "non_reciprocal"


#: Array code of each class: its position in DyadClass, which searchsorted
#: on the two boundaries reproduces.
_CLASSES = tuple(DyadClass)
_CLASS_BOUNDS = np.array([RECIPROCAL_MAX, PARTIAL_MAX])


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
    return abs(_log_share(w_ab, s_a) - _log_share(w_ba, s_b))


def _log_share(w: float, s: float) -> float:
    """ln(w/s), as ln w - ln s where the share w/s underflows to 0.0 (whose log is undefined)."""
    p = w / s
    return math.log(p) if p else math.log(w) - math.log(s)


def reciprocity(g: WeightedDigraph, a: int, b: int) -> float:
    """Score of the mutual dyad {a, b} of ``g``, its ends given in either order.

    The pair must be mutual: a one-way arc has no two-way relationship to score.
    """
    if a == b:
        raise DomainError("a dyad needs two distinct vertices")
    if not (g.has_arc(a, b) and g.has_arc(b, a)):
        raise MissingArcError(f"pair ({a}, {b}) is not mutual; reciprocity is undefined")
    return reciprocity_value(g.weight(a, b), g.weight(b, a), g.out_strength(a), g.out_strength(b))


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


def _log(p: np.ndarray, w: np.ndarray, strength: np.ndarray, ends: np.ndarray) -> np.ndarray:
    # math.log, not np.log: the two differ in the last bit for some inputs. One block of
    # Python floats at a time, so no list of the whole column is built. A share p = w/s, with s
    # the strength of the arc's tail in ``ends``, that underflowed to 0.0 takes _log_share's rule.
    zero = np.flatnonzero(p == 0.0)
    if len(zero):
        p = p.copy()
        p[zero] = 1.0
    out = np.empty(len(p))
    for lo in range(0, len(p), _SUM_BLOCK):
        block = p[lo : lo + _SUM_BLOCK]
        out[lo : lo + len(block)] = np.fromiter(map(math.log, block.tolist()), dtype=np.float64, count=len(block))
    out[zero] = [_log_share(wi, si) for wi, si in zip(w[zero].tolist(), strength[ends[zero]].tolist())]
    return out


def dyad_scores(g: WeightedDigraph) -> DyadScores:
    """Score every mutual dyad of ``g`` at once (same values as :func:`reciprocity`)."""
    a, b, w_ab, w_ba = g._mutual_arrays()
    s = g._out_strength
    p_ab, p_ba = w_ab / s[a], w_ba / s[b]
    r = np.abs(_log(p_ab, w_ab, s, a) - _log(p_ba, w_ba, s, b))
    return DyadScores(a, b, w_ab, w_ba, p_ab, p_ba, r, np.searchsorted(_CLASS_BOUNDS, r))


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


def concentration(g: WeightedDigraph, v: int) -> tuple[float, float]:
    """Herfindahl weight concentration ``(h, h_star)`` of a vertex with out-degree >= 2.

    ``h`` is the sum of the squared normalized weights; ``h_star`` rescales it
    so 0 means an equal split across all out-neighbors and 1 means everything
    on a single neighbor, independent of out-degree. h_star's denominator
    vanishes at out-degree 1, so degree-1 vertices are outside the domain.
    """
    k = g.out_degree(v)
    if k < 2:
        raise DomainError(f"concentration needs out-degree >= 2, vertex {v} has {k}")
    s = g.out_strength(v)
    h = math.fsum((w / s) * (w / s) for _, w in g.out_neighbors(v))
    h_star = (h - 1.0 / k) / (1.0 - 1.0 / k)
    return h, h_star


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


def _moments(x: np.ndarray, y: np.ndarray) -> list[int]:
    """The exact ``[n, Σx, Σy, Σx², Σy², Σxy]`` of two non-negative int64 arrays.

    No int64 sum over a block of ``(2**63 - 1) // max²`` entries overflows; block sums add up as Python ints.
    """
    top = max(int(x.max(initial=1)), int(y.max(initial=1)))
    block = (2**63 - 1) // (top * top)
    sums = [len(x), 0, 0, 0, 0, 0]
    for lo in range(0, len(x), block):
        bx, by = x[lo : lo + block], y[lo : lo + block]
        for i, s in enumerate((bx.sum(), by.sum(), bx @ bx, by @ by, bx @ by), start=1):
            sums[i] += int(s)
    return sums


def _backbone_moments(a: np.ndarray, b: np.ndarray, v: int) -> tuple[np.ndarray, list[int]]:
    """The degrees of the backbone with edges (a-b) on ``v`` vertices, and the :func:`_moments` of each edge both ways round.

    The (b, a) pairs swap the x and y sums of the (a, b) pairs, so one pass over the edges gives all six sums.
    """
    degree = np.bincount(a, minlength=v) + np.bincount(b, minlength=v)
    m, sa, sb, saa, sbb, sab = _moments(degree[a], degree[b])
    return degree, [2 * m, sa + sb, sa + sb, saa + sbb, saa + sbb, 2 * sab]


def _r_of(n: int, sx: int, sy: int, sxx: int, syy: int, sxy: int) -> float | None:
    """Pearson r of the sums of :func:`_moments`, None for a constant x or y.

    Equal variance terms, as of pairs taken both ways round, give the exact ratio correctly rounded.
    """
    vx, vy = n * sxx - sx * sx, n * syy - sy * sy
    if vx <= 0 or vy <= 0:
        return None
    num = n * sxy - sx * sy
    return num / vx if vx == vy else num / math.sqrt(vx * vy)


def degree_assortativity(g: WeightedDigraph, mutual_only: bool = True) -> dict[str, Any]:
    """Pearson correlation of excess degrees across linked vertex pairs (Newman's r), as ``{"r", "pair_count"}``.

    ``mutual_only`` (default) works on the mutual-dyad backbone, each dyad
    contributing both endpoint orderings; otherwise every directed arc
    contributes one (tail, head) pair with degrees counted over the
    undirected neighbor sets. Raw degrees (r is shift-invariant) go into exact
    integer sums, so the backbone r is correctly rounded, as the rewire reports it.
    Fewer than two pairs, or zero variance in their degrees, raise
    :class:`UndefinedCorrelationError`.
    """
    v = g.vertex_count
    if mutual_only:
        sums = _backbone_moments(*g._mutual_ends()[:2], v)[1]  # both orientations: r is endpoint-symmetric
    else:
        tail, head = g._sources(), g._indices
        # Undirected neighbors: every out-neighbor, plus the in-neighbors with no arc back.
        degree = np.bincount(np.concatenate((tail, head[g._reverse_arcs() < 0])), minlength=v)
        sums = _moments(degree[tail], degree[head])
    if sums[0] < 2:
        raise UndefinedCorrelationError("assortativity needs at least two endpoint pairs")
    r = _r_of(*sums)
    if r is None:
        raise UndefinedCorrelationError("degree correlation undefined: zero variance in the degree sequence")
    return {"r": r, "pair_count": sums[0]}


def histogram(scores: DyadScores, bin_width: float = DEFAULT_BIN_WIDTH) -> dict[str, Any]:
    """The histogram block of the scores: ``{"bin_width", "total", "bins", "class_proportions"}``.

    ``bins`` lists the non-empty bins in ascending order, each ``[i * bin_width,
    (i + 1) * bin_width, count]`` for the half-open interval it covers, so one
    extreme score adds one bin, not every bin below it. ``class_proportions``
    is each class's share of all scores, keyed by its :class:`DyadClass` value.
    A width at which the largest score's bin index reaches 2**53, past which
    float bin indices are no longer exact, is rejected.
    """
    if not (bin_width > 0 and math.isfinite(bin_width)):
        raise DomainError(f"bin width must be finite and positive, got {bin_width}")
    r, n = scores.r_value, len(scores.r_value)
    if n and r.max() // bin_width >= 2**53:
        raise DomainError(f"bin width {bin_width} puts the largest score {float(r.max())!r} past bin index 2**53")
    index, counts = np.unique((r // bin_width).astype(np.int64), return_counts=True)
    by_class = np.bincount(scores.dyad_class, minlength=len(_CLASSES)).tolist()
    return {
        "bin_width": bin_width,
        "total": n,
        "bins": [[i * bin_width, (i + 1) * bin_width, c] for i, c in zip(index.tolist(), counts.tolist())],
        "class_proportions": {cls.value: c / n if n else 0.0 for cls, c in zip(_CLASSES, by_class)},
    }
