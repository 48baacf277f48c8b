"""Seeded inputs for the recipnet benchmark.

numpy only, and it never imports recipnet: a change to the program's own
generators (``synth``, rewiring) cannot change what the benchmark feeds it,
so one seed gives byte-identical inputs on every commit. Every generator
checks what it made and returns the ground truth the output checks need.

Labels are phone-number-like IDs (``+1`` and ten digits, fixed width), so
dense ids follow label order exactly as recipnet's sidecar would assign
them. Hostile labels (``#``, ``,``) are outside this benchmark's scope.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LABEL_WIDTH = 12  # "+1" and ten digits
TS_WIDTH = 10  # unix seconds
_MIN_SHARE = 1e-12

# Weighted graphs: degree floor, stub-sorting noise (smaller is more
# assortative), target mean H* of the Dirichlet split, lognormal strength sigma.
K_MIN = 2
SORT_NOISE = 1.5
DISPERSION = 0.3
STRENGTH_SIGMA = 1.0

# Event logs: share of called pairs reciprocated, Zipf exponent of pair
# popularity by rank, and the shares of self-calls, malformed lines and
# empty timestamps among all lines.
RECIPROCATED_SHARE = 0.5
ZIPF = 1.0
SELF_CALL_SHARE = 0.005
MALFORMED_SHARE = 0.001
EMPTY_TS_SHARE = 0.02


def _rng(seed: int, *tags: int) -> np.random.Generator:
    """PCG64 keyed by the workload seed (any integer) and the input's kind and size."""
    return np.random.default_rng([seed % 2**64, *tags])


def phone_labels(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct sorted ten-digit subscriber numbers (first digit 2-9)."""
    nums = np.unique(rng.integers(2 * 10**9, 10**10, size=n + n // 8 + 16, dtype=np.int64))
    while len(nums) < n:  # practically never: 1e5 draws from 8e9 values
        more = rng.integers(2 * 10**9, 10**10, size=n, dtype=np.int64)
        nums = np.unique(np.concatenate([nums, more]))
    return np.sort(rng.choice(nums, size=n, replace=False))


def label_strings(nums: np.ndarray) -> list[str]:
    return [f"+1{x:010d}" for x in nums.tolist()]


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """ASCII digit matrix (len(values), width) of non-negative integers."""
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((values[:, None] // powers) % 10 + ord("0")).astype(np.uint8)


def _ts_digits(ts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Ten ASCII digits per timestamp, from a table of all five-digit strings."""
    return np.concatenate([table[ts // 100_000], table[ts % 100_000]], axis=1)


def label_bytes(nums: np.ndarray) -> np.ndarray:
    out = np.empty((len(nums), LABEL_WIDTH), dtype=np.uint8)
    out[:, 0] = ord("+")
    out[:, 1] = ord("1")
    out[:, 2:] = _digits(nums, LABEL_WIDTH - 2)
    return out


# -- weighted graphs ------------------------------------------------------------


@dataclass(frozen=True)
class GraphSpec:
    vertices: int
    gamma: float  # power-law exponent of the mutual-backbone degree
    target_r: float  # backbone assortativity SORT_NOISE gives at this size
    one_way_share: float  # of all arcs


@dataclass
class Graph:
    """A weighted digraph as sorted (src, dst) arrays with dense ids in label order."""

    labels: list[str]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    mutual: np.ndarray  # per arc: does the reverse arc exist
    digest: str = ""

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def arc_count(self) -> int:
        return len(self.src)

    @property
    def mutual_dyads(self) -> int:
        return int(self.mutual.sum()) // 2

    @property
    def one_way_arcs(self) -> int:
        return self.arc_count - int(self.mutual.sum())


def _power_law_degrees(rng: np.random.Generator, spec: GraphSpec) -> np.ndarray:
    support = np.arange(K_MIN, max(K_MIN + 1, int(math.sqrt(spec.vertices))) + 1)
    probs = support.astype(np.float64) ** (-spec.gamma)
    return rng.choice(support, size=spec.vertices, p=probs / probs.sum())


def assortative_backbone(rng: np.random.Generator, spec: GraphSpec) -> tuple[np.ndarray, np.ndarray]:
    """Undirected simple edges (a < b) with a power-law degree sequence.

    Stubs are sorted by log-degree plus Gaussian noise and paired with their
    neighbour in that order, so like-degree vertices meet more often than
    chance; the noise sets how much. Self-pairs and repeats are dropped.
    """
    degree = _power_law_degrees(rng, spec)
    stubs = np.repeat(np.arange(spec.vertices, dtype=np.int64), degree)
    key = np.log(degree[stubs]) + SORT_NOISE * rng.standard_normal(len(stubs))
    stubs = stubs[np.argsort(key, kind="stable")]
    stubs = stubs[: len(stubs) // 2 * 2].reshape(-1, 2)
    a = np.minimum(stubs[:, 0], stubs[:, 1])
    b = np.maximum(stubs[:, 0], stubs[:, 1])
    keys = np.unique((a * spec.vertices + b)[a != b])
    return keys // spec.vertices, keys % spec.vertices


def backbone_r(a: np.ndarray, b: np.ndarray, vertex_count: int) -> float:
    """Pearson r of excess degrees over both orientations of each edge."""
    degree = np.bincount(np.concatenate([a, b]), minlength=vertex_count)
    x = (degree[a] - 1).astype(np.float64)
    y = (degree[b] - 1).astype(np.float64)
    xs, ys = np.concatenate([x, y]), np.concatenate([y, x])
    mx, my = xs.mean(), ys.mean()
    cov = ((xs - mx) * (ys - my)).mean()
    return float(cov / math.sqrt(((xs - mx) ** 2).mean() * ((ys - my) ** 2).mean()))


def _one_way_pairs(
    rng: np.random.Generator, vertex_count: int, taken: np.ndarray, n: int, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """n arcs on distinct unordered pairs outside ``taken`` (sorted pair keys)."""
    p = bias / bias.sum()
    draws = 2 * n + 64
    src = rng.choice(vertex_count, size=draws, p=p)
    dst = rng.choice(vertex_count, size=draws, p=p)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    keys = np.minimum(src, dst) * vertex_count + np.maximum(src, dst)
    fresh = ~np.isin(keys, taken)
    src, dst, keys = src[fresh], dst[fresh], keys[fresh]
    _, first = np.unique(keys, return_index=True)
    first = np.sort(first)[:n]
    if len(first) < n:
        raise RuntimeError("could not place the requested one-way arcs")
    return src[first], dst[first]


def _dirichlet_weights(rng: np.random.Generator, src: np.ndarray, vertex_count: int) -> np.ndarray:
    """Split a lognormal strength per source over its out-arcs (src-sorted).

    Dirichlet alpha = (1-d)/(d*k) makes the expected normalized Herfindahl
    score equal d for every out-degree k.
    """
    k = np.bincount(src, minlength=vertex_count)
    alpha = (1.0 - DISPERSION) / (DISPERSION * k[src])
    g = np.maximum(rng.gamma(alpha), _MIN_SHARE)
    starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
    share = g / np.repeat(np.add.reduceat(g, starts), np.diff(np.r_[starts, len(src)]))
    strength = k * rng.lognormal(0.0, STRENGTH_SIGMA, size=vertex_count)
    return np.maximum(strength[src] * share, _MIN_SHARE)


def make_graph(seed: int, spec: GraphSpec) -> Graph:
    """Mutual power-law backbone with assortativity, plus one-way arcs and weights."""
    rng = _rng(seed, spec.vertices, 0x6A)
    a, b = assortative_backbone(rng, spec)
    r = backbone_r(a, b, spec.vertices)
    if abs(r - spec.target_r) > 0.05:
        raise RuntimeError(f"backbone r {r:.3f} is not within 0.05 of {spec.target_r}")
    degree = np.bincount(np.concatenate([a, b]), minlength=spec.vertices)
    n_one_way = int(round(spec.one_way_share / (1.0 - spec.one_way_share) * 2 * len(a)))
    ow_src, ow_dst = _one_way_pairs(rng, spec.vertices, a * spec.vertices + b, n_one_way, degree + 1.0)

    src = np.concatenate([a, b, ow_src])
    dst = np.concatenate([b, a, ow_dst])
    mutual = np.r_[np.ones(2 * len(a), dtype=bool), np.zeros(n_one_way, dtype=bool)]
    # Drop isolated vertices; dense ids then follow the sorted labels.
    used, inverse = np.unique(np.concatenate([src, dst]), return_inverse=True)
    src, dst = inverse[: len(src)], inverse[len(src) :]
    order = np.lexsort((dst, src))
    src, dst, mutual = src[order], dst[order], mutual[order]
    weight = _dirichlet_weights(rng, src, len(used))
    labels = label_strings(phone_labels(rng, len(used)))
    g = Graph(labels, src, dst, weight, mutual)
    if g.one_way_arcs != n_one_way or g.mutual_dyads != len(a):
        raise RuntimeError("arc bookkeeping does not add up")
    if abs(g.one_way_arcs / g.arc_count - spec.one_way_share) > 1e-3:
        raise RuntimeError(f"one-way share {g.one_way_arcs / g.arc_count:.4f} is not {spec.one_way_share}")
    return g


def snapshot_text(g: Graph) -> tuple[str, str]:
    """A ``src,dst,weight`` snapshot and its ``external_id,dense_id`` sidecar."""
    labels = g.labels
    lines = ["src,dst,weight"]
    lines.extend(
        f"{labels[s]},{labels[d]},{w!r}"
        for s, d, w in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())
    )
    side = ["external_id,dense_id"]
    side.extend(f"{label},{i}" for i, label in enumerate(labels))
    return "\n".join(lines) + "\n", "\n".join(side) + "\n"


def write_snapshot(g: Graph, path: Path) -> None:
    """Write the snapshot and its ``<stem>.vertices.csv`` sidecar; sets ``g.digest``."""
    body, side = snapshot_text(g)
    h = hashlib.sha256()
    for p, text in ((path, body), (path.with_name(path.stem + ".vertices.csv"), side)):
        data = text.encode()
        p.write_bytes(data)
        h.update(data)
    g.digest = h.hexdigest()


# -- event logs ------------------------------------------------------------------


@dataclass(frozen=True)
class EventSpec:
    labels: int
    arcs: int
    lines: int
    chunk: int = 500_000  # lines formatted per write


@dataclass
class EventTruth:
    """What aggregating the log must produce."""

    counts: dict[tuple[str, str], int]
    events_read: int
    self_calls: int
    malformed: int
    vertices: int
    mutual_dyads: int
    digest: str

    @property
    def arcs(self) -> int:
        return len(self.counts)


def write_event_log(seed: int, spec: EventSpec, path: Path) -> EventTruth:
    """Write ``timestamp,caller,callee`` lines; return the exact expected aggregate."""
    rng = _rng(seed, spec.lines, 0xE7)
    nums = phone_labels(rng, spec.labels)
    label_b = label_bytes(nums)

    # Called pairs: the first share are reciprocated (two arcs), the rest one-way.
    n_pairs = int(round(spec.arcs / (1.0 + RECIPROCATED_SHARE)))
    n_mutual = int(round(n_pairs * RECIPROCATED_SHARE))
    u = rng.integers(0, spec.labels, size=2 * n_pairs + 64)
    v = rng.integers(0, spec.labels, size=2 * n_pairs + 64)
    keep = u != v
    keys = np.minimum(u, v)[keep] * spec.labels + np.maximum(u, v)[keep]
    u, v = u[keep], v[keep]
    _, first = np.unique(keys, return_index=True)
    first = np.sort(first)[:n_pairs]
    if len(first) < n_pairs:
        raise RuntimeError("could not draw enough distinct pairs")
    u, v = u[first], v[first]
    arc_src = np.concatenate([u, v[:n_mutual]])
    arc_dst = np.concatenate([v, u[:n_mutual]])
    n_arcs = len(arc_src)

    n_self = int(round(spec.lines * SELF_CALL_SHARE))
    n_bad = int(round(spec.lines * MALFORMED_SHARE))
    n_good = spec.lines - n_self - n_bad
    rank = rng.permutation(n_arcs) + 1.0
    popularity = rank ** (-ZIPF)
    counts = 1 + rng.multinomial(n_good - n_arcs, popularity / popularity.sum())

    # Line kinds: -1 self-call, -2..-4 malformed (two fields, empty caller,
    # empty callee), otherwise the arc index.
    kind = np.concatenate(
        [
            np.repeat(np.arange(n_arcs), counts),
            np.full(n_self, -1),
            -2 - rng.integers(0, 3, size=n_bad),
        ]
    )
    kind = rng.permutation(kind)
    caller = np.where(kind >= 0, arc_src[np.maximum(kind, 0)], rng.integers(0, spec.labels, size=len(kind)))
    callee = np.where(kind >= 0, arc_dst[np.maximum(kind, 0)], caller)
    callee = np.where(kind <= -2, rng.integers(0, spec.labels, size=len(kind)), callee)
    ts = 1_600_000_000 + np.cumsum(rng.integers(0, 3, size=len(kind)))
    empty_ts = rng.random(len(kind)) < EMPTY_TS_SHARE

    h = hashlib.sha256()
    header = b"timestamp,caller,callee\n"
    h.update(header)
    five = _digits(np.arange(100_000), 5)
    c0 = TS_WIDTH + 1
    c1 = c0 + LABEL_WIDTH + 1
    width = c1 + LABEL_WIDTH + 1
    with open(path, "wb") as f:
        f.write(header)
        for lo in range(0, len(kind), spec.chunk):
            sl = slice(lo, lo + spec.chunk)
            k = kind[sl]
            n = len(k)
            row = np.empty((n, width), dtype=np.uint8)
            row[:, :TS_WIDTH] = _ts_digits(ts[sl], five)
            row[:, TS_WIDTH] = row[:, c1 - 1] = ord(",")
            row[:, c0 : c1 - 1] = label_b[caller[sl]]
            row[:, c1 : width - 1] = label_b[callee[sl]]
            row[:, width - 1] = ord("\n")
            keep = np.ones((n, width), dtype=bool)
            keep[empty_ts[sl], :TS_WIDTH] = False
            keep[k == -2, c1 - 1 : width - 1] = False  # "ts,caller"
            keep[k == -3, c0 : c1 - 1] = False  # "ts,,callee"
            keep[k == -4, c1 : width - 1] = False  # "ts,caller,"
            data = row[keep].tobytes()
            f.write(data)
            h.update(data)

    labels = label_strings(nums)
    pair_counts = {
        (labels[s], labels[d]): int(c)
        for s, d, c in zip(arc_src.tolist(), arc_dst.tolist(), counts.tolist())
    }
    truth = EventTruth(
        counts=pair_counts,
        events_read=len(kind),
        self_calls=n_self,
        malformed=n_bad,
        vertices=len(np.unique(np.concatenate([arc_src, arc_dst]))),
        mutual_dyads=n_mutual,
        digest=h.hexdigest(),
    )
    if truth.events_read != int(counts.sum()) + n_self + n_bad or truth.arcs != n_arcs:
        raise RuntimeError("event bookkeeping does not add up")
    return truth
