"""Weighted dyadic reciprocity analysis for directed communication graphs."""

__version__ = "0.1.0"

from .graph import DyadCensus, GraphBuilder, WeightedDigraph
from .metrics import (
    DyadClass,
    classify,
    concentration,
    degree_assortativity,
    dyad_scores,
    equidispersion_prediction,
    reciprocity,
)
from .nullmodels import equidisperse, maslov_sneppen_rewire, reattach_weights

__all__ = [
    "DyadCensus",
    "DyadClass",
    "GraphBuilder",
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
]
