"""The public surface: the names ``recipnet`` exports and the README's library example."""

from __future__ import annotations

import re
from pathlib import Path

import recipnet

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_are_pinned_and_resolve():
    assert recipnet.__all__ == [
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
    missing = [name for name in recipnet.__all__ if not hasattr(recipnet, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} (Library)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "ann bo 0.2876820724517809 reciprocal",
        "cy di 0.0 reciprocal",
        "{'reciprocal': 1.0, 'partially_reciprocal': 0.0, 'non_reciprocal': 0.0}",
    ]
    assert [line.split()[0] for line in lines[3:]] == ["7", "8"]
