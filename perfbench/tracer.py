"""Run one recipnet CLI command in-process, with a span around each layer's public calls.

    python perfbench/tracer.py SPANS.json -- <recipnet CLI arguments>

The command runs exactly as ``python -m recipnet.cli`` would run it, through
``recipnet.cli.main``; the spans are written to SPANS.json when it ends.
Wrapping replaces each public function wherever a recipnet module has bound
it, so calls made through ``from .x import f`` names are traced too. A
target that no longer exists is reported in SPANS.json and left out.
"""

from __future__ import annotations

import importlib
import sys

from spans import SpanRecorder

#: (module, attribute, span name); "Class.method" wraps a method.
FUNCTIONS = [
    ("recipnet.ingest", "aggregate_event_file", "ingest.aggregate_event_file"),
    ("recipnet.ingest", "save_snapshot", "ingest.save_snapshot"),
    ("recipnet.ingest", "load_edge_list", "ingest.load_edge_list"),
    ("recipnet.graph", "GraphBuilder.build", "graph.build"),
    ("recipnet.graph", "WeightedDigraph.from_dense_arcs", "graph.from_dense_arcs"),
    ("recipnet.graph", "WeightedDigraph.mutual_dyads", "graph.mutual_dyads"),
    ("recipnet.graph", "WeightedDigraph.dyad_census", "graph.dyad_census"),
    ("recipnet.graph", "WeightedDigraph.content_digest", "graph.content_digest"),
    ("recipnet.metrics", "reciprocity_records", "metrics.reciprocity_records"),
    ("recipnet.metrics", "reciprocity_distribution", "metrics.reciprocity_distribution"),
    ("recipnet.metrics", "degree_assortativity", "metrics.degree_assortativity"),
    ("recipnet.metrics", "concentration_scores", "metrics.concentration_scores"),
    ("recipnet.nullmodels", "maslov_sneppen_rewire", "nullmodels.maslov_sneppen_rewire"),
    ("recipnet.nullmodels", "reattach_weights", "nullmodels.reattach_weights"),
    ("recipnet.nullmodels", "equidisperse", "nullmodels.equidisperse"),
    ("recipnet.report", "analyze", "report.analyze"),
    ("recipnet.report", "report_to_dict", "report.serialize"),
    ("recipnet.report", "comparison_to_dict", "report.serialize"),
    ("recipnet.report", "json_bytes", "report.serialize"),
    ("recipnet.report", "emit_report", "report.serialize"),
    ("recipnet.report", "write_report_csv", "report.serialize"),
    ("recipnet.synth", "generate", "synth.generate"),
]
#: Methods that return a generator: drained inside the span, so the span
#: measures the enumeration and not the caller's loop body.
EAGER = {"graph.mutual_dyads"}


def instrument(rec: SpanRecorder) -> list[str]:
    """Wrap every target; return the ones that could not be found."""
    for module_name in sorted({m for m, _, _ in FUNCTIONS}):
        importlib.import_module(module_name)
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "recipnet"]
    missing = []
    for module_name, attr, span_name in FUNCTIONS:
        owner = sys.modules[module_name]
        *cls_path, name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(name) if owner is not None else None
        if raw is None:
            missing.append(f"{module_name}.{attr}")
            continue
        eager = span_name in EAGER
        if cls_path:
            if isinstance(raw, classmethod):
                setattr(owner, name, classmethod(rec.wrap(raw.__func__, span_name, eager)))
            else:
                setattr(owner, name, rec.wrap(raw, span_name, eager))
            continue
        traced = rec.wrap(raw, span_name, eager)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, traced)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    rec = SpanRecorder()
    import recipnet.cli

    missing = instrument(rec)
    with rec.span("cli.main"):
        code = recipnet.cli.main(cli_args)
    sys.stdout.flush()
    rec.dump(spans_path, exit_code=code, missing=missing)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
