"""Analysis reports and the four-network regime comparison.

:func:`run_regime_comparison` builds and analyzes the networks of the
:data:`CELLS` table, one per row, and judges the ordering of the four cells.

A report, and a comparison, is one JSON document: a dict of plain values,
built once and only read after. Its blocks are the documents the
measurements return as they are: :func:`recipnet.metrics.histogram` (whose
class shares move to ``reciprocity``), :func:`recipnet.metrics.degree_assortativity`
and the rewire's statistics. A report's CSV is a flat view of that
document. Identical inputs produce byte-identical output (keys sorted,
floats via repr, no timestamps), which the comparison pipeline relies on for
reproducibility checks.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import asdict
from typing import Any

import numpy as np

from . import __version__ as _version
from .errors import UndefinedCorrelationError
from .graph import WeightedDigraph
from .metrics import DEFAULT_BIN_WIDTH, concentration_arrays, degree_assortativity, dyad_r_values, histogram
from .nullmodels import DEFAULT_SWAP_MULTIPLIER, equidisperse, maslov_sneppen_rewire

SCHEMA_VERSION = 3  # 2: input_digest is content digest v2 (binary CSR encoding); 3: only non-empty histogram bins

H_STAR_QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90)

#: The comparison's cells in output order, as ``(name, seeded, build)`` rows. ``build(observed,
#: rewired)`` returns the cell's graph from the observed graph and the seed's rewired graph,
#: which is ``None`` for a cell that is not ``seeded``: that cell is built once for every seed.
CELLS: tuple[tuple[str, bool, Callable[[WeightedDigraph, WeightedDigraph | None], WeightedDigraph]], ...] = (
    ("observed", False, lambda g, rewired: g),
    ("observed_equidispersed", False, lambda g, rewired: equidisperse(g)),
    ("rewired", True, lambda g, rewired: rewired),
    ("rewired_equidispersed", True, lambda g, rewired: equidisperse(rewired)),
)


def analyze(
    g: WeightedDigraph,
    regime: str = "observed",
    seed: int | None = None,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> dict[str, Any]:
    """Run the full per-network measurement sweep on the graph's arrays; return the report's JSON document."""
    r = dyad_r_values(g)
    hist = histogram(r, bin_width)
    shares = hist.pop("class_proportions")  # reported in the reciprocity block
    mean_r, median_r = (float(r.mean()), float(np.median(r))) if len(r) else (None, None)
    del r  # no score column is live during the assortativity and concentration passes
    try:
        assort: dict[str, Any] | None = degree_assortativity(g, mutual_only=True)
    except UndefinedCorrelationError:  # too few pairs or zero degree variance: report the rest without r
        assort = None
    h_star = concentration_arrays(g)[2]
    return {
        "schema": SCHEMA_VERSION,
        "provenance": {"regime": regime, "seed": seed, "input_digest": g.content_digest(), "tool": f"recipnet/{_version}"},
        "vertex_count": g.vertex_count,
        "census": asdict(g.dyad_census()),
        "reciprocity": {"mean": mean_r, "median": median_r, "class_proportions": shares},
        "histogram": hist,
        "assortativity": assort,
        "h_star_quantiles": [[q, float(np.quantile(h_star, q))] for q in H_STAR_QUANTILES] if len(h_star) else [],
    }


def _ordering_verdict(means: dict[str, float | None]) -> dict[str, Any]:
    """Whether the four regime means fall in the predicted order.

    ``partial_ordering``: equidispersed-observed below both middle cells and
    the rewired non-equidispersed network above them. ``final_ordering``: the
    strict chain observed_equidispersed < rewired_equidispersed < observed <
    rewired. Purely descriptive; nothing is asserted.
    """
    m_eq, m_rw_eq, m_obs, m_rw = (
        means[label] for label in ("observed_equidispersed", "rewired_equidispersed", "observed", "rewired")
    )
    degenerate = m_eq == m_rw_eq == m_obs == m_rw
    partial = m_eq < min(m_rw_eq, m_obs) <= max(m_rw_eq, m_obs) < m_rw
    final = m_eq < m_rw_eq < m_obs < m_rw
    return {
        "means": means,
        "partial_ordering": partial,
        "final_ordering": final,
        "degenerate": degenerate,
        "description": (
            "degenerate: ties" if degenerate
            else "final ordering holds" if final
            else "partial ordering holds; final ordering does not" if partial
            else "ordering violated"
        ),
    }


def run_regime_comparison(
    g: WeightedDigraph,
    seeds: Iterable[int],
    swap_multiplier: int = DEFAULT_SWAP_MULTIPLIER,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> tuple[list[dict[str, Any]], dict[str, WeightedDigraph]]:
    """Build and analyze every cell of :data:`CELLS` and judge the ordering, per seed.

    Returns each seed's ``comparison.json`` document and the first seed's graph of every
    cell, the ones ``regimes --save-graphs`` writes; later seeds' graphs are dropped, so R
    replicas keep one seed's graphs alive rather than R seeds'. A cell that does not
    depend on the seed is built and analyzed once; each seed's copy of its report differs
    only in its provenance seed. The seeded cells are built from one rewiring pass per
    seed, so the two rewired cells differ only in their weights, never in topology.
    """
    fixed = {name: build(g, None) for name, seeded, build in CELLS if not seeded}
    base = {name: analyze(graph, name, bin_width=bin_width) for name, graph in fixed.items()}
    comparisons, kept = [], {}
    for seed in seeds:
        rewired, stats = maslov_sneppen_rewire(g, np.random.default_rng(seed), swap_multiplier)
        graphs = {name: fixed[name] if name in fixed else build(g, rewired) for name, _, build in CELLS}
        reports = {
            name: {**base[name], "provenance": {**base[name]["provenance"], "seed": seed}}
            if name in base
            else analyze(graph, name, seed, bin_width)
            for name, graph in graphs.items()
        }
        verdict = _ordering_verdict({label: rep["reciprocity"]["mean"] for label, rep in reports.items()})
        doc = {"schema": SCHEMA_VERSION, "seed": seed, "swap_multiplier": swap_multiplier, "rewire": stats}
        comparisons.append({**doc, "reports": reports, "verdict": verdict})
        kept = kept or graphs  # only the first seed's graphs are ever saved
    return comparisons, kept


# -- serialization ----------------------------------------------------------


def replicas_to_dict(comparisons: list[dict[str, Any]]) -> dict[str, Any]:
    """Cross-replica mean and spread of each cell's mean score (error bars)."""
    verdicts = [c["verdict"] for c in comparisons]
    cells = {}
    for label in comparisons[0]["reports"]:
        values = [v["means"][label] for v in verdicts]
        clean = [v for v in values if v is not None]
        n = len(clean)
        mean = sum(clean) / n if n else None
        std = (sum((v - mean) ** 2 for v in clean) / n) ** 0.5 if n else None
        cells[label] = {"per_seed": values, "mean": mean, "std": std}
    return {
        "schema": SCHEMA_VERSION,
        "seeds": [c["seed"] for c in comparisons],
        "cells": cells,
        "verdicts": [v["description"] for v in verdicts],
        "final_ordering_count": sum(1 for v in verdicts if v["final_ordering"]),
    }


def json_bytes(payload: dict[str, Any]) -> bytes:
    """Canonical JSON encoding: sorted keys, two-space indent, trailing newline."""
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def report_csv(doc: dict[str, Any]) -> str:
    """A report document's flat view: ``metric,value`` rows, blank line, then histogram rows.

    ``None`` is an empty field; every float is written as its repr.
    """
    provenance, census, reciprocity = doc["provenance"], doc["census"], doc["reciprocity"]
    assortativity = doc["assortativity"] or {}
    rows = [
        ("schema", doc["schema"]),
        *((key, provenance[key]) for key in ("regime", "seed", "input_digest", "tool")),
        ("vertex_count", doc["vertex_count"]),
        *((key, census[key]) for key in ("mutual", "asymmetric", "null_dyads", "total_arcs")),
        ("mean_r", reciprocity["mean"]),
        ("median_r", reciprocity["median"]),
        *((f"share_{name}", share) for name, share in reciprocity["class_proportions"].items()),
        ("assortativity_r", assortativity.get("r")),
        ("assortativity_pairs", assortativity.get("pair_count")),
        *((f"h_star_q{int(round(q * 100)):02d}", v) for q, v in doc["h_star_quantiles"]),
    ]
    lines = [
        "metric,value",
        *(f"{key},{'' if value is None else value}" for key, value in rows),
        "",
        "bin_low,bin_high,count",
        *(f"{lo!r},{hi!r},{c}" for lo, hi, c in doc["histogram"]["bins"]),
    ]
    return "".join(line + "\n" for line in lines)


def report_bytes(doc: dict[str, Any], fmt: str) -> bytes:
    """A report document as 'json' or 'csv' bytes; identical documents yield identical bytes."""
    if fmt == "json":
        return json_bytes(doc)
    if fmt == "csv":
        return report_csv(doc).encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")
