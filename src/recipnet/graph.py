"""Weighted directed graph core: construction, mutual-dyad columns, dyad census.

Vertices are dense integer ids ``0..V-1`` (Python or numpy integers). A graph
is stored as read-only CSR arrays, ``indptr`` (row bounds per source vertex),
``indices`` (targets, ascending within each row) and ``weights``, plus the
per-vertex ``out_strength``, each row's correctly rounded sum (the value
``math.fsum`` gives), computed by array code in blocks of rows
(:func:`_row_sums`), and a tuple of every vertex's label in dense-id order
(``"0".."V-1"`` when none are given). Graphs are immutable once built; use
:class:`GraphBuilder` (aggregates parallel arcs, drops self-loops) or
:meth:`WeightedDigraph.from_columns` (already-clean dense arcs, validated in
bulk) to construct one. All read operations are safe to call from multiple
threads.

Labelled input (``GraphBuilder``, event-log ingest, a snapshot without a
sidecar) gets its dense ids by one rule, :func:`sorted_order`: the order of
the sorted labels, so a graph does not depend on input order.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from typing import Hashable, Iterator, Sequence

import numpy as np

from .errors import DomainError, DuplicateArcError, IntegrityError, MissingArcError

_DIGEST_TAG = b"recipnet-digest-v2\0"

#: Rows, arcs or dyads taken together by the blockwise passes, which bounds their temporaries.
_SUM_BLOCK = 8192


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fl(a + b), err) with a + b == fl(a + b) + err exactly (Knuth's TwoSum)."""
    t = a + b
    z = t - a
    return t, (a - (t - z)) + (b - z)


def _row_sums(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each CSR row of non-negative ``values``, bit for bit, without a Python float per value.

    A row that sums past the largest float, where fsum raises
    ``OverflowError``, is ``inf``. Rows are taken in order of length,
    longest first, in blocks of ``_SUM_BLOCK``, and each column of a block
    is added to the rows still that long with the error-free cascade of
    Ogita, Rump and Oishi (*Accurate sum and dot product*, 2005): the running
    sum s and its error term e are kept exact by TwoSum, and F adds up the
    magnitudes of the errors f of e, so a row's exact sum is s + e + sum(f).
    (hi, rem) = TwoSum(s, e) then makes ``hi`` fsum's correctly rounded
    result if every f was 0 (hi rounds s + e exactly, half to even) or if
    ``|rem| + 2F`` is below half of hi's smaller gap to a neighbouring float
    (2F bounds sum(|f|) for rows shorter than 2**51 values, whatever F's own
    rounding). Other rows, the rows at or past the largest float, and the
    rows longer than all but a 64th of their block's rows (so a hub does
    not cost one array pass per value) go to ``math.fsum``, whose exact
    partials (Shewchuk 1997) settle any row.
    """
    length = np.diff(indptr)
    order = np.argsort(length)[::-1]  # longest first; the order of equal lengths does not matter
    out = np.empty(len(length))
    for lo in range(0, len(order), _SUM_BLOCK):
        rows = order[lo : lo + _SUM_BLOCK]
        n = length[rows]
        cols = int(n[max(1, len(rows) // 64) - 1])
        hub = int(np.count_nonzero(n > cols))
        slow, rows, n = rows[:hub], rows[hub:], n[hub:]
        start = indptr[rows]
        s, e, f_sum = np.zeros((3, len(rows)))
        with np.errstate(over="ignore", invalid="ignore"):
            for j, c in enumerate(np.searchsorted(-n, -np.arange(cols)).tolist()):  # c rows longer than j
                s[:c], err = _two_sum(s[:c], values[start[:c] + j])
                e[:c], f = _two_sum(e[:c], err)
                f_sum[:c] += np.abs(f)
            hi, rem = _two_sum(s, e)
            gap = np.minimum(np.nextafter(hi, np.inf) - hi, hi - np.nextafter(hi, -np.inf))
            ok = (np.abs(hi) < np.finfo(np.float64).max) & ((f_sum == 0) | (np.abs(rem) + 2 * f_sum < gap / 2))
        out[rows] = hi
        for r in np.concatenate((slow, rows[~ok])).tolist():
            try:
                out[r] = math.fsum(values[indptr[r] : indptr[r + 1]].tolist())
            except OverflowError:
                out[r] = math.inf
    return out


@dataclass(frozen=True)
class DyadCensus:
    """Counts of mutual, asymmetric and null dyads (the UMAN breakdown)."""

    mutual: int
    asymmetric: int
    null_dyads: int
    total_arcs: int

    def arc_identity_holds(self) -> bool:
        """asymmetric + 2*mutual must account for every directed arc."""
        return self.asymmetric + 2 * self.mutual == self.total_arcs

    def pair_identity_holds(self, vertex_count: int) -> bool:
        """The three dyad classes must partition all unordered vertex pairs."""
        return (
            self.mutual + self.asymmetric + self.null_dyads
            == vertex_count * (vertex_count - 1) // 2
        )


class WeightedDigraph:
    """Immutable directed graph with strictly positive, finite arc weights.

    Out-strengths are cached as the correctly rounded sum of each vertex's
    outgoing weights, bit for bit what ``math.fsum`` gives, which makes them
    independent of arc insertion order. They are computed in blocks of rows,
    with Python floats only for the few rows handed to ``math.fsum``; a
    vertex whose finite weights sum past the largest float is rejected with
    a :class:`DomainError` that names it.
    """

    __slots__ = ("_indptr", "_indices", "_weights", "_out_strength", "_external_ids", "_reverse")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        external_ids: tuple[str, ...],
    ) -> None:
        # Internal constructor: the CSR arrays (made read-only) and the labels
        # are adopted, not copied or checked. Callers are from_columns and
        # transforms that keep a valid graph's topology and only replace its
        # (positive, finite) weights; such graphs share indptr and indices.
        for a in (indptr, indices, weights):
            a.setflags(write=False)
        self._indptr, self._indices, self._weights = indptr, indices, weights
        if len(external_ids) != len(indptr) - 1:
            raise IntegrityError("external id table does not match vertex count")
        self._out_strength = _row_sums(indptr, weights)
        if np.isinf(self._out_strength).any():  # finite weights whose sum is not: name the first such vertex
            v = int(np.argmax(np.isinf(self._out_strength)))
            raise DomainError(f"out-strength of vertex {external_ids[v]!r} exceeds the largest float")
        self._external_ids = external_ids
        self._reverse: np.ndarray | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        vertex_count: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
        external_ids: Sequence[str] | None = None,
    ) -> "WeightedDigraph":
        """Build from parallel arrays of dense arc endpoints and weights.

        Arcs must be unique per ordered pair, self-loop free and positively,
        finitely weighted; the first violation in input order raises rather
        than being repaired (use GraphBuilder for raw data that needs
        aggregation). ``external_ids`` are the labels in dense-id order, kept
        as a tuple; ``"0".."V-1"`` if not given.

        Rows whose keys ``src * V + dst`` strictly increase are already in CSR
        order: they are not sorted, and contiguous int64 targets and float64
        weights are adopted as the graph's, made read-only, not copied.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        checks = (
            (src < 0) | (src >= vertex_count) | (dst < 0) | (dst >= vertex_count),
            src == dst,
            ~(np.isfinite(weights) & (weights > 0)),
        )
        for problem, bad in zip(("outside 0..V-1", "a self-loop", "not finite and positive"), checks):
            if bad.any():
                i = int(np.argmax(bad))
                raise DomainError(
                    f"arc ({src[i]}, {dst[i]}) with weight {weights[i]} is {problem} (V={vertex_count})"
                )
        del checks, bad
        keys = src * vertex_count + dst
        if (keys[1:] > keys[:-1]).all():  # in key order, each key once: nothing to sort or check
            del keys
        else:
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            repeated = keys[1:] == keys[:-1]
            if repeated.any():  # the first repeat in input order: stable sort puts each key's first row first
                i = int(order[1:][repeated].min())
                raise DuplicateArcError(f"duplicate arc ({src[i]}, {dst[i]})", i)
            del keys, repeated  # not live while the columns are gathered or the rows summed
            dst, weights = dst[order], weights[order]
            del order
        indptr = np.zeros(vertex_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=vertex_count), out=indptr[1:])
        del src  # nor this while the rows are summed
        dst, weights = np.ascontiguousarray(dst), np.ascontiguousarray(weights)
        return cls(indptr, dst, weights, tuple(map(str, range(vertex_count)) if external_ids is None else external_ids))

    # -- basic accessors ---------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._indptr) - 1

    @property
    def arc_count(self) -> int:
        return len(self._indices)

    def _check_vertex(self, v: int) -> int:
        try:
            i = operator.index(v)
        except TypeError:
            i = -1
        if not 0 <= i < self.vertex_count:
            raise DomainError(f"vertex id {v!r} outside 0..{self.vertex_count - 1}")
        return i

    def _row(self, v: int) -> tuple[int, int]:
        v = self._check_vertex(v)
        return int(self._indptr[v]), int(self._indptr[v + 1])

    def _find(self, src: int, dst: int) -> int:
        """CSR position of the arc src -> dst, or -1 when there is none."""
        lo, hi = self._row(src)
        dst = self._check_vertex(dst)
        i = lo + int(np.searchsorted(self._indices[lo:hi], dst))
        return i if i < hi and self._indices[i] == dst else -1

    def _reweighted(self, weights: np.ndarray) -> "WeightedDigraph":
        """Same vertices, arcs and labels with new (positive, finite) weights in arcs() order.

        The two graphs share one topology, so they share its reverse-arc index too.
        """
        g = WeightedDigraph(self._indptr, self._indices, weights, self._external_ids)
        g._reverse = self._reverse_arcs()
        return g

    def _sources(self) -> np.ndarray:
        """Source vertex of every arc, in CSR order."""
        return np.repeat(np.arange(self.vertex_count, dtype=np.int64), np.diff(self._indptr))

    def out_strength(self, v: int) -> float:
        """Sum of weights on arcs leaving v (0.0 for a vertex with none)."""
        return float(self._out_strength[self._check_vertex(v)])

    def out_degree(self, v: int) -> int:
        lo, hi = self._row(v)
        return hi - lo

    def has_arc(self, src: int, dst: int) -> bool:
        return self._find(src, dst) >= 0

    def weight(self, src: int, dst: int) -> float:
        i = self._find(src, dst)
        if i < 0:
            raise MissingArcError(f"no arc {src} -> {dst}")
        return float(self._weights[i])

    def out_neighbors(self, v: int) -> Iterator[tuple[int, float]]:
        """(target, weight) pairs in ascending target order."""
        lo, hi = self._row(v)
        return zip(self._indices[lo:hi].tolist(), self._weights[lo:hi].tolist())

    def arcs(self) -> Iterator[tuple[int, int, float]]:
        """All arcs in ascending (src, dst) order."""
        return zip(self._sources().tolist(), self._indices.tolist(), self._weights.tolist())

    def external_label(self, v: int) -> str:
        """Original input label for a dense id (the id itself if none was given)."""
        return self._external_ids[self._check_vertex(v)]

    @property
    def external_ids(self) -> tuple[str, ...]:
        """Every vertex's label, in dense-id order."""
        return self._external_ids

    # -- normalized weights ------------------------------------------------

    def normalized_weight(self, src: int, dst: int) -> float:
        """Share of src's outgoing weight carried by the arc src -> dst.

        This is the probability that src's next communication targets dst;
        over all out-neighbors of src the values sum to 1. Undefined (raises)
        when the arc does not exist.
        """
        w = self.weight(src, dst)
        return w / self.out_strength(src)

    # -- dyad analysis -----------------------------------------------------

    def _reverse_arcs(self) -> np.ndarray:
        """CSR position of each arc's reverse arc, -1 where there is none.

        The reverse of a -> b is a's place among b's targets, which ascend in
        row b, so it is found by a binary search within that row. The arcs are
        taken one block of ``_SUM_BLOCK`` at a time, and each block's searches
        run together as a branchless bisection (one array pass per halving of
        the longest row searched), so past the blocks only the result spans
        the whole graph. Computed once.
        """
        if self._reverse is None:
            indptr, indices = self._indptr, self._indices
            n = len(indices)
            reverse = np.empty(n, dtype=np.int64)
            for lo in range(0, n, _SUM_BLOCK):
                hi = min(lo + _SUM_BLOCK, n)
                src, dst = np.searchsorted(indptr, np.arange(lo, hi), side="right") - 1, indices[lo:hi]
                first, end = indptr[dst], indptr[dst + 1]
                base, length = np.minimum(first, n - 1), end - first
                for _ in range(int(length.max(initial=0)).bit_length()):  # src's place is in base .. base + length
                    half = length >> 1
                    probe = base + half
                    base = np.where(indices[probe] < src, probe, base)
                    length -= half
                pos = np.minimum(base + (indices[base] < src), n - 1)
                found = (first <= pos) & (pos < end) & (indices[pos] == src)
                reverse[lo:hi] = np.where(found, pos, -1)
            self._reverse = reverse
        return self._reverse

    def _mutual_arcs(self) -> np.ndarray:
        """CSR position of the arc a -> b, a < b, of every mutual dyad, ascending, which is (a, b) order.

        Arc keys ``src*V + dst`` ascend in CSR order, and ``a*V + b < b*V + a``
        exactly when a < b, so ``reverse[i] > i`` marks these arcs; it is
        tested one block of ``_SUM_BLOCK`` arcs at a time.
        """
        reverse = self._reverse_arcs()
        blocks = [np.empty(0, dtype=np.int64)]
        for lo in range(0, len(reverse), _SUM_BLOCK):
            block = reverse[lo : lo + _SUM_BLOCK]
            blocks.append(lo + np.flatnonzero(block > np.arange(lo, lo + len(block))))
        return np.concatenate(blocks)

    def _mutual_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, b) of every mutual dyad, a < b, in (a, b) order."""
        sel = self._mutual_arcs()
        return np.searchsorted(self._indptr, sel, side="right") - 1, self._indices[sel]

    def dyad_census(self) -> DyadCensus:
        """Mutual/asymmetric/null counts over all unordered vertex pairs.

        Null dyads are derived arithmetically from V and the other counts;
        pairs are never enumerated, so the census stays O(arcs).
        """
        mutual = int(np.count_nonzero(self._reverse_arcs() >= 0)) // 2
        asymmetric = self.arc_count - 2 * mutual
        v = self.vertex_count
        null_dyads = v * (v - 1) // 2 - mutual - asymmetric
        return DyadCensus(mutual, asymmetric, null_dyads, self.arc_count)

    # -- identity ------------------------------------------------------------

    def content_digest(self) -> str:
        """Stable sha256 hex of the graph's content (digest v2).

        The hash covers, in order: a fixed tag; ``V`` and then each label's
        length in code points, as ``<i8``; the UTF-8 bytes of the concatenated
        labels; and the little-endian bytes of ``indptr`` and ``indices``
        (``<i8``) and ``weights`` (``<f8``). The lengths split the decoded
        labels apart again, so the label encoding is injective, and CSR order
        is canonical: equal graphs (``==``), and only they, share a digest.
        """
        labels = self._external_ids
        h = hashlib.sha256(_DIGEST_TAG)
        h.update(np.array([len(labels)], dtype="<i8"))
        h.update(np.fromiter(map(len, labels), dtype="<i8", count=len(labels)))
        h.update("".join(labels).encode())
        for a, dtype in ((self._indptr, "<i8"), (self._indices, "<i8"), (self._weights, "<f8")):
            h.update(np.ascontiguousarray(a, dtype=dtype))
        return h.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return (
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and np.array_equal(self._weights, other._weights)
            and self._external_ids == other._external_ids
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"WeightedDigraph(vertices={self.vertex_count}, arcs={self.arc_count})"


def sorted_order(labels: Sequence) -> tuple[list, np.ndarray]:
    """Distinct ``labels`` sorted, which is their dense-id order, and the dense id of each position of ``labels``.

    This is the one rule that gives labels their dense ids. The labels are
    ordered by ``<``, as ``sorted`` orders them, by a stable argsort of an
    object array: no Python int is made per label.
    """
    keys = np.fromiter(labels, object, len(labels))
    order = np.argsort(keys, kind="stable")
    dense = np.empty(len(labels), np.int64)
    dense[order] = np.arange(len(order))
    return keys[order].tolist(), dense


class GraphBuilder:
    """Single-writer accumulator that aggregates raw arcs into a graph.

    Accepts arbitrary (homogeneous, sortable) vertex labels; parallel arcs
    aggregate by weight sum in insertion order, self-loops are dropped and
    counted. ``build`` assigns dense ids by sorting the distinct labels, so
    the resulting graph does not depend on insertion order.
    """

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}  # label -> provisional id, the order of first appearance
        self._weights: dict[tuple[int, int], float] = {}  # by provisional ids
        self.self_loops_dropped = 0

    def add_vertex(self, label: Hashable) -> None:
        self._ids.setdefault(label, len(self._ids))

    def add_arc(self, src: Hashable, dst: Hashable, weight: float = 1.0) -> None:
        if not (weight > 0 and math.isfinite(weight)):
            raise DomainError(f"weight {weight} on arc ({src!r}, {dst!r}) is not finite and positive")
        if src == dst:
            self.self_loops_dropped += 1
            return
        ids = self._ids
        key = (ids.setdefault(src, len(ids)), ids.setdefault(dst, len(ids)))
        prev = self._weights.get(key)
        self._weights[key] = float(weight) if prev is None else prev + weight

    def build(self) -> WeightedDigraph:
        labels, dense = sorted_order(list(self._ids))
        src, dst = dense[np.array(list(self._weights), dtype=np.int64).reshape(-1, 2)].T
        w = np.fromiter(self._weights.values(), dtype=np.float64, count=len(self._weights))
        return WeightedDigraph.from_columns(len(labels), src, dst, w, tuple(map(str, labels)))
