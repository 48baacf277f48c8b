"""Weighted dyadic reciprocity analysis for directed communication graphs."""

__version__ = "0.1.0"

from .graph import DyadCensus, GraphBuilder, MutualDyad, WeightedDigraph
from .metrics import (
    AssortativityResult,
    ConcentrationScore,
    DyadClass,
    ReciprocityHistogram,
    ReciprocityRecord,
    classify,
    concentration,
    degree_assortativity,
    dyad_scores,
    equidispersion_prediction,
    reciprocity,
    reciprocity_distribution,
    reciprocity_records,
)
from .nullmodels import (
    RewireOutcome,
    equidisperse,
    maslov_sneppen_rewire,
    reattach_weights,
)

__all__ = [
    "AssortativityResult",
    "ConcentrationScore",
    "DyadCensus",
    "DyadClass",
    "GraphBuilder",
    "MutualDyad",
    "ReciprocityHistogram",
    "ReciprocityRecord",
    "RewireOutcome",
    "WeightedDigraph",
    "classify",
    "concentration",
    "degree_assortativity",
    "dyad_scores",
    "equidisperse",
    "equidispersion_prediction",
    "maslov_sneppen_rewire",
    "reattach_weights",
    "reciprocity",
    "reciprocity_distribution",
    "reciprocity_records",
]
