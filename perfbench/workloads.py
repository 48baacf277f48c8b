"""The benchmark's workloads: inputs, the CLI job, and the checks on its outputs.

Each workload builds its inputs with ``gen`` at set-up, computes what a
correct job must produce (a numpy oracle, independent of recipnet), and
checks every job's outputs against it. The first job of a run gets the full
check; every later job must reproduce the first job's output bytes exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import gen

#: Class boundaries of the reciprocity score (probability ratios 1.5 and 9).
RECIPROCAL_MAX = math.log(1.5)
PARTIAL_MAX = math.log(9.0)
H_STAR_QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90)
TOL = 1e-9
CELLS = ("observed", "observed_equidispersed", "rewired", "rewired_equidispersed")

INGEST_SPEC = gen.EventSpec(labels=100_000, arcs=200_000, lines=4_000_000)
REPORT_SPEC = gen.GraphSpec(vertices=100_000, gamma=3.2, target_r=0.2, one_way_share=0.35)
# One-way arcs are 20% of the mutual arcs: 1/6 of all arcs.
REGIMES_SPEC = gen.GraphSpec(vertices=20_000, gamma=2.5, target_r=0.3, one_way_share=1 / 6)


class CheckError(Exception):
    """A job's output is wrong."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(name: str, got: object, want: float, tol: float = TOL) -> None:
    _expect(
        isinstance(got, (int, float)) and abs(got - want) <= tol,
        f"{name}: got {got!r}, expected {want!r} (tolerance {tol:g})",
    )


def file_digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def read_snapshot(path: Path) -> dict[tuple[str, str], float]:
    """Parse a ``src,dst,weight`` snapshot by label, rejecting repeated arcs."""
    arcs: dict[tuple[str, str], float] = {}
    with open(path, encoding="utf-8") as f:
        lines = (line.rstrip("\n") for line in f if not line.startswith("#"))
        _expect(next(lines, None) == "src,dst,weight", f"{path.name}: bad header")
        for line in lines:
            src, dst, w = line.split(",")
            _expect((src, dst) not in arcs, f"{path.name}: repeated arc {src}->{dst}")
            arcs[(src, dst)] = float(w)
    return arcs


def graph_arcs(g: gen.Graph) -> dict[tuple[str, str], float]:
    labels = g.labels
    return {
        (labels[s], labels[d]): w
        for s, d, w in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())
    }


# -- report oracle -----------------------------------------------------------------


def report_oracle(g: gen.Graph) -> dict:
    """The values `recipnet report` must print for ``g``, computed with numpy."""
    v = g.vertex_count
    src, dst, w = g.src, g.dst, g.weight
    keys = src * v + dst  # ascending: arcs are (src, dst)-sorted
    k = np.bincount(src, minlength=v)
    s = np.bincount(src, weights=w, minlength=v)
    m = g.mutual & (src < dst)
    a, b = src[m], dst[m]
    w_ba = w[np.searchsorted(keys, b * v + a)]
    r = np.abs(np.log(w[m] / s[a]) - np.log(w_ba / s[b]))
    n = len(r)
    reciprocal = int((r <= RECIPROCAL_MAX).sum())
    partial = int((r <= PARTIAL_MAX).sum()) - reciprocal
    # A score within TOL of a boundary may land on either side of it.
    ambiguous = int(((np.abs(r - RECIPROCAL_MAX) < TOL) | (np.abs(r - PARTIAL_MAX) < TOL)).sum())
    h = np.bincount(src, weights=(w / s[src]) ** 2, minlength=v)
    many = k >= 2
    h_star = (h[many] - 1.0 / k[many]) / (1.0 - 1.0 / k[many])
    asymmetric = g.arc_count - 2 * n
    return {
        "vertex_count": v,
        "census": {
            "mutual": n,
            "asymmetric": asymmetric,
            "null_dyads": v * (v - 1) // 2 - n - asymmetric,
            "total_arcs": g.arc_count,
        },
        "mean": float(r.mean()),
        "median": float(np.median(r)),
        "shares": (reciprocal / n, partial / n, (n - reciprocal - partial) / n),
        "share_tol": TOL + ambiguous / n,
        "r": gen.backbone_r(a, b, v),
        "pair_count": 2 * n,
        "h_star_quantiles": [(q, float(np.quantile(h_star, q))) for q in H_STAR_QUANTILES],
    }


def check_report(doc: dict, oracle: dict, name: str = "report") -> None:
    """Census, mean and median R, class shares, backbone r and H* quantiles."""
    _expect(doc.get("vertex_count") == oracle["vertex_count"], f"{name}: vertex_count {doc.get('vertex_count')}")
    _expect(doc.get("census") == oracle["census"], f"{name}: census {doc.get('census')} != {oracle['census']}")
    rec = doc["reciprocity"]
    _close(f"{name}: mean R", rec["mean"], oracle["mean"])
    _close(f"{name}: median R", rec["median"], oracle["median"])
    shares = rec["class_proportions"]
    for key, want in zip(("reciprocal", "partially_reciprocal", "non_reciprocal"), oracle["shares"]):
        _close(f"{name}: {key} share", shares[key], want, oracle["share_tol"])
    _close(f"{name}: backbone r", doc["assortativity"]["r"], oracle["r"])
    _expect(doc["assortativity"]["pair_count"] == oracle["pair_count"], f"{name}: assortativity pair_count")
    got = doc["h_star_quantiles"]
    _expect(len(got) == len(oracle["h_star_quantiles"]), f"{name}: H* quantile count")
    for (q_got, v_got), (q, v) in zip(got, oracle["h_star_quantiles"]):
        _close(f"{name}: H* quantile level", q_got, q)
        _close(f"{name}: H* q{q}", v_got, v)


def census_identities(census: dict, vertex_count: int, name: str) -> None:
    _expect(
        census["asymmetric"] + 2 * census["mutual"] == census["total_arcs"],
        f"{name}: asymmetric + 2*mutual != total arcs",
    )
    _expect(
        census["mutual"] + census["asymmetric"] + census["null_dyads"]
        == vertex_count * (vertex_count - 1) // 2,
        f"{name}: dyad classes do not partition the vertex pairs",
    )


# -- workloads ------------------------------------------------------------------------


class Workload:
    """One CLI job on seeded inputs: set-up, the command line, and its checks.

    ``setup`` sets ``input_digest``, ``input_files`` and ``sizes`` (the
    input's arc counts, the base for the per-layer ratios).
    """

    name = ""
    default_spec: object = None

    def __init__(self, spec: object = None) -> None:
        self.spec = self.default_spec if spec is None else spec

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def cli_args(self, outdir: Path) -> list[str]:
        raise NotImplementedError

    def check(self, outdir: Path, stdout: str) -> None:
        """Raise CheckError unless the job's outputs in ``outdir`` are right."""
        raise NotImplementedError

    def fingerprint(self, outdir: Path, stdout: str) -> dict:
        """What a repeat of the job on the same inputs must reproduce exactly."""
        return file_digests(outdir)


class IngestWorkload(Workload):
    """`recipnet ingest` on a phone-call event log."""

    name = "ingest"
    default_spec = INGEST_SPEC

    def setup(self, seed: int, workdir: Path) -> None:
        self.events = workdir / "events.csv"
        self.truth = gen.write_event_log(seed, self.spec, self.events)
        self.expected = {pair: float(c) for pair, c in self.truth.counts.items()}
        self.input_digest = self.truth.digest
        self.input_files = [self.events]
        self.sizes = {
            "graph.arcs": self.truth.arcs,
            "graph.mutual_dyads": self.truth.mutual_dyads,
            "graph.one_way_arcs": self.truth.arcs - 2 * self.truth.mutual_dyads,
        }

    def cli_args(self, outdir: Path) -> list[str]:
        return ["ingest", str(self.events), "-o", str(outdir / "graph.csv")]

    def fingerprint(self, outdir: Path, stdout: str) -> dict:
        stats = json.loads(stdout)
        stats.pop("snapshot", None)  # the output path differs per job
        return {"stats": stats, **file_digests(outdir)}

    def check(self, outdir: Path, stdout: str) -> None:
        t = self.truth
        stats = json.loads(stdout)
        want = {
            "events_read": t.events_read,
            "self_calls_dropped": t.self_calls,
            "malformed_lines": t.malformed,
            "vertices": t.vertices,
            "arcs": t.arcs,
        }
        got = {key: stats.get(key) for key in want}
        _expect(got == want, f"ingest stats {got} != {want}")
        arcs = read_snapshot(outdir / "graph.csv")
        _expect(
            stats["events_read"] == sum(arcs.values()) + stats["self_calls_dropped"] + stats["malformed_lines"],
            "events_read != total weight + self-calls + malformed lines",
        )
        wrong = sum(1 for pair, w in arcs.items() if self.expected.get(pair) != w)
        _expect(
            wrong == 0 and len(arcs) == len(self.expected),
            f"snapshot: {wrong} arc weights differ from the true counts; "
            f"{len(arcs)} arcs, expected {len(self.expected)}",
        )
        self._check_load_back(outdir / "graph.csv")

    def _check_load_back(self, snapshot: Path) -> None:
        """The snapshot and its sidecar load back as the aggregated graph."""
        from recipnet.ingest import load_edge_list

        g = load_edge_list(snapshot)
        _expect(g.vertex_count == self.truth.vertices, f"load-back: {g.vertex_count} vertices")
        label = g.external_label
        loaded = {(label(s), label(d)): w for s, d, w in g.arcs()}
        _expect(loaded == self.expected, "load-back: graph differs from the aggregated counts")


class ReportWorkload(Workload):
    """`recipnet report` on a mixed one-way/mutual graph."""

    name = "report"
    default_spec = REPORT_SPEC

    def setup(self, seed: int, workdir: Path) -> None:
        self.graph_path = workdir / "graph.csv"
        self.graph = gen.make_graph(seed, self.spec)
        gen.write_snapshot(self.graph, self.graph_path)
        self.oracle = report_oracle(self.graph)
        self.input_digest = self.graph.digest
        self.input_files = [self.graph_path, workdir / "graph.vertices.csv"]
        self.sizes = _graph_sizes(self.graph)

    def cli_args(self, outdir: Path) -> list[str]:
        return ["report", str(self.graph_path), "--format", "json", "-o", str(outdir / "report.json")]

    def check(self, outdir: Path, stdout: str) -> None:
        check_report(json.loads((outdir / "report.json").read_text()), self.oracle)


class RegimesWorkload(Workload):
    """`recipnet regimes --save-graphs` on an assortative, dispersed graph."""

    name = "regimes"
    default_spec = REGIMES_SPEC

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed * 7919 % 2**31
        self.graph_path = workdir / "graph.csv"
        self.graph = gen.make_graph(seed, self.spec)
        gen.write_snapshot(self.graph, self.graph_path)
        self.oracle = report_oracle(self.graph)
        self.arcs = graph_arcs(self.graph)
        self.profile = _vertex_profile(self.arcs)
        self.input_digest = self.graph.digest
        self.input_files = [self.graph_path, workdir / "graph.vertices.csv"]
        self.sizes = _graph_sizes(self.graph)

    def cli_args(self, outdir: Path) -> list[str]:
        return ["regimes", str(self.graph_path), "--outdir", str(outdir), "--seed", str(self.seed), "--save-graphs"]

    def check(self, outdir: Path, stdout: str) -> None:
        cmp = json.loads((outdir / "comparison.json").read_text())
        _expect(not cmp["verdict"]["degenerate"], f"degenerate verdict: {cmp['verdict']['description']}")
        for label in CELLS:
            rep = json.loads((outdir / f"{label}.json").read_text())
            census_identities(rep["census"], rep["vertex_count"], label)
            _expect(rep["census"] == self.oracle["census"], f"{label}: census changed by the regime")
        check_report(json.loads((outdir / "observed.json").read_text()), self.oracle, "observed")
        _expect(read_snapshot(outdir / "observed.graph.csv") == self.arcs, "observed snapshot differs from the input")

        rewired = read_snapshot(outdir / "rewired.graph.csv")
        mine = self.profile
        theirs = _vertex_profile(rewired)
        _expect(theirs["backbone_degree"] == mine["backbone_degree"], "rewiring changed a backbone degree")
        _expect(theirs["out_weights"] == mine["out_weights"], "rewiring changed an out-weight multiset")
        _expect(theirs["one_way"] == mine["one_way"], "rewiring changed a one-way arc")
        residual = cmp["rewire"]["residual_assortativity"]
        _expect(residual is not None and abs(residual) < 0.02, f"|residual r| = {residual!r} is not < 0.02")
        _close("residual r against the saved rewired graph", residual, _labelled_backbone_r(rewired))

        for label, topology in (("observed_equidispersed", self.arcs), ("rewired_equidispersed", rewired)):
            eq = read_snapshot(outdir / f"{label}.graph.csv")
            _expect(eq.keys() == topology.keys(), f"{label}: topology differs")
            _check_equal_split(eq, mine["strength"], label)


def _graph_sizes(g: gen.Graph) -> dict[str, int]:
    return {"graph.arcs": g.arc_count, "graph.mutual_dyads": g.mutual_dyads, "graph.one_way_arcs": g.one_way_arcs}


def _vertex_profile(arcs: dict[tuple[str, str], float]) -> dict:
    """Per label: backbone degree, sorted out-weights and strength; the one-way arcs."""
    degree: Counter = Counter()
    out: defaultdict = defaultdict(list)
    one_way = {}
    for (s, d), w in arcs.items():
        out[s].append(w)
        if (d, s) in arcs:
            degree[s] += 1
        else:
            one_way[(s, d)] = w
    return {
        "backbone_degree": degree,
        "out_weights": {v: sorted(ws) for v, ws in out.items()},
        "strength": {v: math.fsum(ws) for v, ws in out.items()},
        "one_way": one_way,
    }


def _labelled_backbone_r(arcs: dict[tuple[str, str], float]) -> float:
    index: dict[str, int] = {}
    pairs = [(s, d) for s, d in arcs if s < d and (d, s) in arcs]
    a = np.array([index.setdefault(s, len(index)) for s, _ in pairs])
    b = np.array([index.setdefault(d, len(index)) for _, d in pairs])
    return gen.backbone_r(a, b, len(index))


def _check_equal_split(arcs: dict[tuple[str, str], float], strength: dict[str, float], label: str) -> None:
    out: defaultdict = defaultdict(list)
    for (s, _), w in arcs.items():
        out[s].append(w)
    _expect(out.keys() == strength.keys(), f"{label}: vertices with out-arcs differ")
    for v, ws in out.items():
        _expect(min(ws) == max(ws), f"{label}: unequal split at {v}")
        _expect(abs(math.fsum(ws) - strength[v]) <= TOL * strength[v], f"{label}: strength of {v} not preserved")


WORKLOADS = {w.name: w for w in (IngestWorkload, ReportWorkload, RegimesWorkload)}

