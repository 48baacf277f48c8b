"""Per-dyad and per-vertex measures on weighted digraphs.

Covers the reciprocity score of a mutual dyad (absolute log-ratio of the two
directed communication probabilities), its three-class interpretation,
the closed-form score under equidispersed weights, Herfindahl-style weight
concentration per vertex, and degree assortativity across linked dyads.

Bulk sweeps work on the graph's CSR arrays: :func:`dyad_scores` scores every
mutual dyad at once, in canonical (a, b) order, :func:`dyad_r_values` gives
only its score column, scoring one block of dyads at a time, and
:func:`concentration_arrays` every vertex of out-degree 2 or more. A dyad's
class is a function of its score alone, so every array of classes is derived
from a score column by one rule. :func:`histogram` (of a score column) and
:func:`degree_assortativity` return the JSON blocks that reports and the CLI
print, as plain dicts. The
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


_CLASS_BOUNDS = np.array([RECIPROCAL_MAX, PARTIAL_MAX])


def _classes(r: np.ndarray) -> np.ndarray:
    """The array code of each score's class: its position in :class:`DyadClass`, boundaries to the lower class."""
    return np.searchsorted(_CLASS_BOUNDS, r)


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


def _dyads(g: WeightedDigraph, sel: np.ndarray) -> tuple[np.ndarray, ...]:
    """(a, b, w_ab, w_ba, p_ab, p_ba) of the mutual dyads whose arcs a -> b, a < b, are at CSR positions ``sel``."""
    a, b = np.searchsorted(g._indptr, sel, side="right") - 1, g._indices[sel]
    w_ab, w_ba = g._weights[sel], g._weights[g._reverse_arcs()[sel]]
    return a, b, w_ab, w_ba, w_ab / g._out_strength[a], w_ba / g._out_strength[b]


def _r_values(g: WeightedDigraph, *columns: np.ndarray) -> np.ndarray:
    """The scores of the dyads whose :func:`_dyads` columns are ``columns``."""
    a, b, w_ab, w_ba, p_ab, p_ba = columns
    s = g._out_strength
    return np.abs(_log(p_ab, w_ab, s, a) - _log(p_ba, w_ba, s, b))


def dyad_scores(g: WeightedDigraph) -> DyadScores:
    """Score every mutual dyad of ``g`` at once (same values as :func:`reciprocity`)."""
    columns = _dyads(g, g._mutual_arcs())
    r = _r_values(g, *columns)
    return DyadScores(*columns, r, _classes(r))


def dyad_r_values(g: WeightedDigraph) -> np.ndarray:
    """The ``r_value`` column of :func:`dyad_scores`, by the same code.

    The dyads are scored from their CSR positions one block of
    ``_SUM_BLOCK`` at a time, so no other column of every dyad is made.
    """
    sel = g._mutual_arcs()
    r = np.empty(len(sel))
    for lo in range(0, len(sel), _SUM_BLOCK):
        r[lo : lo + _SUM_BLOCK] = _r_values(g, *_dyads(g, sel[lo : lo + _SUM_BLOCK]))
    del sel
    return r


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
    A vertex whose out-weights are all equal gets h = 1/k and h_star = 0
    exactly.
    """
    k = g.out_degree(v)
    if k < 2:
        raise DomainError(f"concentration needs out-degree >= 2, vertex {v} has {k}")
    weights = [w for _, w in g.out_neighbors(v)]
    if min(weights) == max(weights):  # an equal split, exactly: rounding in the shares must not score it
        return 1.0 / k, 0.0
    s = g.out_strength(v)
    h = math.fsum((w / s) * (w / s) for w in weights)
    h_star = (h - 1.0 / k) / (1.0 - 1.0 / k)
    return h, h_star


def concentration_arrays(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vertex, h, h_star) for every vertex with out-degree >= 2, ascending.

    Same values as :func:`concentration`: the rows are taken ``_SUM_BLOCK``
    at a time, and a block's shares, their squares (``x*x``, the correctly
    rounded square) and each row's sum of them, correctly rounded as by
    ``math.fsum`` in array code, are made from the block alone; rows sum on
    their own, so blocks change no bit, and no share or square column spans
    the graph. A vertex whose out-weights are all equal gets h = 1/k and
    h_star = 0 exactly: each arc's weight is compared with its row's first,
    and one reduction over the block's row starts finds the rows where none
    differs.
    """
    indptr, k = g._indptr, np.diff(g._indptr)
    vertices = np.flatnonzero(k >= 2)
    h, equal = np.empty(len(vertices)), np.empty(len(vertices), bool)
    done = 0  # vertices scored so far
    for row in range(0, g.vertex_count, _SUM_BLOCK):
        end = min(row + _SUM_BLOCK, g.vertex_count)
        bounds = indptr[row : end + 1] - indptr[row]
        weights = g._weights[indptr[row] : indptr[end]]
        rows = np.repeat(np.arange(end - row), k[row:end])
        shares = weights / g._out_strength[row:end][rows]
        scored = np.flatnonzero(k[row:end] >= 2)
        h[done : done + len(scored)] = _row_sums(bounds, shares * shares)[scored]
        # A row's reduction runs on to the next such row's start, over rows of one arc, which never differs from itself.
        differs = weights != weights[bounds[rows]]
        equal[done : done + len(scored)] = ~np.logical_or.reduceat(differs, bounds[scored])
        done += len(scored)
    inv_k = 1.0 / k[vertices]
    h_star = (h - inv_k) / (1.0 - inv_k)
    h[equal], h_star[equal] = inv_k[equal], 0.0
    return vertices, h, h_star


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
        sums = _backbone_moments(*g._mutual_ends(), v)[1]  # both orientations: r is endpoint-symmetric
    else:
        tail, head = g._sources(), g._indices
        # Undirected neighbors: every out-neighbor, plus the in-neighbors with no arc back.
        degree = np.bincount(np.concatenate((tail, head[g._reverse_arcs() < 0])), minlength=v)
        sums = _moments(degree[tail], degree[head])
    if sums[0] < 2:
        raise UndefinedCorrelationError("assortativity needs at least two endpoint pairs", sums[0])
    r = _r_of(*sums)
    if r is None:
        raise UndefinedCorrelationError("degree correlation undefined: zero variance in the degree sequence", sums[0])
    return {"r": r, "pair_count": sums[0]}


def histogram(r: np.ndarray, bin_width: float = DEFAULT_BIN_WIDTH) -> dict[str, Any]:
    """The histogram block of the score column ``r``: ``{"bin_width", "total", "bins", "class_proportions"}``.

    ``bins`` lists the non-empty bins in ascending order, each ``[i * bin_width,
    (i + 1) * bin_width, count]`` for the half-open interval it covers, so one
    extreme score adds one bin, not every bin below it. ``class_proportions``
    is each class's share of all scores, keyed by its :class:`DyadClass` value.
    A width at which the largest score's bin index reaches 2**53, past which
    float bin indices are no longer exact, is rejected.
    """
    if not (bin_width > 0 and math.isfinite(bin_width)):
        raise DomainError(f"bin width must be finite and positive, got {bin_width}")
    n = len(r)
    if n and r.max() // bin_width >= 2**53:
        raise DomainError(f"bin width {bin_width} puts the largest score {float(r.max())!r} past bin index 2**53")
    index, counts = np.unique((r // bin_width).astype(np.int64), return_counts=True)
    by_class = np.bincount(_classes(r), minlength=len(DyadClass)).tolist()
    return {
        "bin_width": bin_width,
        "total": n,
        "bins": [[i * bin_width, (i + 1) * bin_width, c] for i, c in zip(index.tolist(), counts.tolist())],
        "class_proportions": {cls.value: c / n if n else 0.0 for cls, c in zip(DyadClass, by_class)},
    }
