"""Analysis reports and the four-network regime comparison.

:func:`run_regime_comparison` builds and analyzes the networks of the
:data:`CELLS` table, one per row, and judges the ordering of the four cells.

Reports are plain dataclasses with stable JSON/CSV serializations: identical
inputs produce byte-identical output (keys sorted, floats via repr, no
timestamps), which the comparison pipeline relies on for reproducibility
checks.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np

from . import __version__ as _version
from .errors import DomainError, UndefinedCorrelationError
from .graph import DyadCensus, WeightedDigraph
from .metrics import (
    AssortativityResult,
    DyadClass,
    ReciprocityHistogram,
    concentration_arrays,
    degree_assortativity,
    dyad_scores,
    DEFAULT_BIN_WIDTH,
)
from .nullmodels import DEFAULT_SWAP_MULTIPLIER, RewireOutcome, equidisperse, maslov_sneppen_rewire

SCHEMA_VERSION = 2  # 2: input_digest is content digest v2 (binary CSR encoding)

H_STAR_QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90)

#: The comparison's cells in output order, as ``(name, seeded, build)`` rows. ``build(observed,
#: outcome)`` returns the cell's graph from the observed graph and the seed's rewiring, which
#: is ``None`` for a cell that is not ``seeded``: that cell is built once for every seed.
CELLS: tuple[tuple[str, bool, Callable[[WeightedDigraph, RewireOutcome | None], WeightedDigraph]], ...] = (
    ("observed", False, lambda g, outcome: g),
    ("observed_equidispersed", False, lambda g, outcome: equidisperse(g)),
    ("rewired", True, lambda g, outcome: outcome.graph),
    ("rewired_equidispersed", True, lambda g, outcome: equidisperse(outcome.graph)),
)


@dataclass(frozen=True)
class Provenance:
    regime: str
    seed: int | None
    input_digest: str
    tool: str


@dataclass(frozen=True)
class AnalysisReport:
    """Census, reciprocity distribution and structural drivers of one network."""

    census: DyadCensus
    vertex_count: int
    class_proportions: tuple[float, float, float]
    mean_r: float | None
    median_r: float | None
    histogram: ReciprocityHistogram
    assortativity: AssortativityResult | None
    h_star_quantiles: tuple[tuple[float, float], ...]
    provenance: Provenance


@dataclass(frozen=True)
class OrderingVerdict:
    """Whether the four regime means fall in the predicted order.

    ``partial_ordering``: equidispersed-observed below both middle cells and
    the rewired non-equidispersed network above them. ``final_ordering``: the
    strict chain observed_equidispersed < rewired_equidispersed < observed <
    rewired. Purely descriptive; nothing is asserted.
    """

    means: dict[str, float | None]
    partial_ordering: bool
    final_ordering: bool
    degenerate: bool
    description: str


@dataclass(frozen=True)
class RegimeComparison:
    """One seed's reports (one per row of :data:`CELLS`), verdict and rewire statistics.

    ``graphs`` holds every cell's graph for the first seed of a
    :func:`run_regime_comparison` run only, the one ``regimes --save-graphs``
    writes; it is empty for every later seed, so R replicas keep one seed's
    seeded graphs alive rather than R seeds'. ``rewire`` holds the swap
    counts, residual assortativity and warning of the seed's rewiring, as
    written to ``comparison.json``.
    """

    reports: dict[str, AnalysisReport]
    verdict: OrderingVerdict
    seed: int
    swap_multiplier: int
    graphs: dict[str, WeightedDigraph]
    rewire: dict[str, Any]


def analyze(
    g: WeightedDigraph,
    regime: str = "observed",
    seed: int | None = None,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> AnalysisReport:
    """Run the full per-network measurement sweep on the graph's arrays."""
    scores = dyad_scores(g)
    histogram = scores.histogram(bin_width)
    r = scores.r_value
    mean_r, median_r = (float(r.mean()), float(np.median(r))) if len(r) else (None, None)
    del scores, r  # no score column is live during the assortativity and concentration passes
    try:
        assort: AssortativityResult | None = degree_assortativity(g, mutual_only=True)
    except (UndefinedCorrelationError, DomainError):
        # Too few pairs or zero degree variance: report the rest without r.
        assort = None
    h_star = concentration_arrays(g)[2]
    quantiles = tuple((q, float(np.quantile(h_star, q))) for q in H_STAR_QUANTILES) if len(h_star) else ()
    return AnalysisReport(
        census=g.dyad_census(),
        vertex_count=g.vertex_count,
        class_proportions=histogram.class_proportions,
        mean_r=mean_r,
        median_r=median_r,
        histogram=histogram,
        assortativity=assort,
        h_star_quantiles=quantiles,
        provenance=Provenance(
            regime=regime,
            seed=seed,
            input_digest=g.content_digest(),
            tool=f"recipnet/{_version}",
        ),
    )


def _ordering_verdict(means: dict[str, float | None]) -> OrderingVerdict:
    m_eq, m_rw_eq, m_obs, m_rw = (
        means[label] for label in ("observed_equidispersed", "rewired_equidispersed", "observed", "rewired")
    )
    degenerate = m_eq == m_rw_eq == m_obs == m_rw
    partial = m_eq < min(m_rw_eq, m_obs) <= max(m_rw_eq, m_obs) < m_rw
    final = m_eq < m_rw_eq < m_obs < m_rw
    return OrderingVerdict(
        means=means,
        partial_ordering=partial,
        final_ordering=final,
        degenerate=degenerate,
        description=(
            "degenerate: ties" if degenerate
            else "final ordering holds" if final
            else "partial ordering holds; final ordering does not" if partial
            else "ordering violated"
        ),
    )


def run_regime_comparison(
    g: WeightedDigraph,
    seeds: Iterable[int],
    swap_multiplier: int = DEFAULT_SWAP_MULTIPLIER,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> list[RegimeComparison]:
    """Build and analyze every cell of :data:`CELLS` and judge the ordering, per seed.

    A cell that does not depend on the seed is built and analyzed once, and
    each seed's copy of its report differs only in its provenance seed. The
    seeded cells are built from one rewiring pass per seed, so the two
    rewired cells differ only in their weights, never in topology. Only the
    first seed's comparison keeps its graphs (see :class:`RegimeComparison`).
    """
    fixed = {name: build(g, None) for name, seeded, build in CELLS if not seeded}
    base = {name: analyze(graph, name, bin_width=bin_width) for name, graph in fixed.items()}
    comparisons = []
    for seed in seeds:
        outcome = maslov_sneppen_rewire(g, np.random.default_rng(seed), swap_multiplier)
        graphs = {name: fixed[name] if name in fixed else build(g, outcome) for name, _, build in CELLS}
        reports = {
            name: replace(base[name], provenance=replace(base[name].provenance, seed=seed))
            if name in base
            else analyze(graph, name, seed, bin_width)
            for name, graph in graphs.items()
        }
        verdict = _ordering_verdict({label: rep.mean_r for label, rep in reports.items()})
        kept = {} if comparisons else graphs  # only the first seed's graphs are ever saved
        comparisons.append(RegimeComparison(reports, verdict, seed, swap_multiplier, kept, outcome.stats()))
    return comparisons


# -- serialization ----------------------------------------------------------


def class_shares(proportions: tuple[float, float, float]) -> dict[str, float]:
    """Share of each dyad class, keyed by its :class:`DyadClass` value."""
    return {cls.value: share for cls, share in zip(DyadClass, proportions)}


def report_to_dict(report: AnalysisReport) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "provenance": asdict(report.provenance),
        "vertex_count": report.vertex_count,
        "census": asdict(report.census),
        "reciprocity": {
            "mean": report.mean_r,
            "median": report.median_r,
            "class_proportions": class_shares(report.class_proportions),
        },
        "histogram": {
            "bin_width": report.histogram.bin_width,
            "total": report.histogram.total,
            "bins": [[lo, hi, c] for lo, hi, c in report.histogram.bins()],
        },
        "assortativity": None if report.assortativity is None else asdict(report.assortativity),
        "h_star_quantiles": [[q, v] for q, v in report.h_star_quantiles],
    }


def comparison_to_dict(cmp: RegimeComparison) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "seed": cmp.seed,
        "swap_multiplier": cmp.swap_multiplier,
        "rewire": cmp.rewire,
        "reports": {label: report_to_dict(rep) for label, rep in cmp.reports.items()},
        "verdict": asdict(cmp.verdict),
    }


def replicas_to_dict(comparisons: list[RegimeComparison]) -> dict[str, Any]:
    """Cross-replica mean and spread of each cell's mean score (error bars)."""
    cells = {}
    for label in comparisons[0].reports:
        values = [c.verdict.means[label] for c in comparisons]
        clean = [v for v in values if v is not None]
        n = len(clean)
        mean = sum(clean) / n if n else None
        std = (sum((v - mean) ** 2 for v in clean) / n) ** 0.5 if n else None
        cells[label] = {"per_seed": values, "mean": mean, "std": std}
    return {
        "schema": SCHEMA_VERSION,
        "seeds": [c.seed for c in comparisons],
        "cells": cells,
        "verdicts": [c.verdict.description for c in comparisons],
        "final_ordering_count": sum(1 for c in comparisons if c.verdict.final_ordering),
    }


def json_bytes(payload: dict[str, Any]) -> bytes:
    """Canonical JSON encoding: sorted keys, two-space indent, trailing newline."""
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def report_csv(report: AnalysisReport) -> str:
    """Summary key/value block, blank line, then histogram rows."""
    rows = [
        ("schema", SCHEMA_VERSION),
        ("regime", report.provenance.regime),
        ("seed", "" if report.provenance.seed is None else report.provenance.seed),
        ("input_digest", report.provenance.input_digest),
        ("tool", report.provenance.tool),
        ("vertex_count", report.vertex_count),
        ("mutual", report.census.mutual),
        ("asymmetric", report.census.asymmetric),
        ("null_dyads", report.census.null_dyads),
        ("total_arcs", report.census.total_arcs),
        ("mean_r", "" if report.mean_r is None else repr(report.mean_r)),
        ("median_r", "" if report.median_r is None else repr(report.median_r)),
        *((f"share_{name}", repr(share)) for name, share in class_shares(report.class_proportions).items()),
        (
            "assortativity_r",
            "" if report.assortativity is None else repr(report.assortativity.r),
        ),
        (
            "assortativity_pairs",
            "" if report.assortativity is None else report.assortativity.pair_count,
        ),
        *((f"h_star_q{int(round(q * 100)):02d}", repr(v)) for q, v in report.h_star_quantiles),
    ]
    lines = [
        "metric,value",
        *(f"{key},{value}" for key, value in rows),
        "",
        "bin_low,bin_high,count",
        *(f"{lo!r},{hi!r},{c}" for lo, hi, c in report.histogram.bins()),
    ]
    return "".join(line + "\n" for line in lines)


def report_bytes(report: AnalysisReport, fmt: str) -> bytes:
    """A report as 'json' or 'csv' bytes; identical reports yield identical bytes."""
    if fmt == "json":
        return json_bytes(report_to_dict(report))
    if fmt == "csv":
        return report_csv(report).encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")
