"""Command-line interface.

Subcommands cover the whole pipeline: ingest raw event logs, inspect a
graph (census, reciprocity, concentration, assortativity), build null-model
variants (equidisperse, rewire, regimes), generate synthetic networks, and
emit full reports.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 degenerate input
escalated by --strict.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DegenerateInputError, DomainError, FormatError, UndefinedCorrelationError
from .ingest import aggregate_event_file, load_edge_list, save_snapshot, save_snapshots, write_csvs
from .metrics import DEFAULT_BIN_WIDTH, DyadClass, _classes, _dyads, concentration_arrays, degree_assortativity, dyad_r_values, histogram
from .nullmodels import DEFAULT_SWAP_MULTIPLIER, equidisperse, maslov_sneppen_rewire
from .report import analyze, json_bytes, replicas_to_dict, report_bytes, run_regime_comparison
from .synth import DegreeSpec, SynthConfig, generate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4

def _common_flags(p: argparse.ArgumentParser, strict: bool = False, seed: str = "", fmt: bool = False) -> None:
    """--strict, --seed (described by ``seed``) and --format, each only where the command reads it."""
    if strict:
        p.add_argument("--strict", action="store_true", help="escalate warnings to errors")
    if seed:
        p.add_argument("--seed", type=int, default=0, help=f"{seed} (default 0)")
    if fmt:
        p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")


def _emit(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _warn_or_raise(strict: bool, message: str) -> None:
    if strict:
        raise DegenerateInputError(message)
    warnings.warn(message, stacklevel=2)


def _show_warning(message: Warning | str, *args: object) -> None:
    """Every warning of a command, the library's included, as one ``warning: <message>`` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


class _OutputLock:
    """Guards an output directory against concurrent CLI runs.

    The lockfile holds the owner's pid; a lockfile whose pid no longer
    exists is reclaimed, anything else blocks.
    """

    def __init__(self, directory: Path) -> None:
        self._path = directory / ".recipnet.lock"
        self._fd: int | None = None

    def __enter__(self) -> "_OutputLock":
        if self._holder_is_dead():  # left behind by a crashed run
            self._path.unlink(missing_ok=True)
        try:
            self._fd = os.open(self._path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise DomainError(
                f"output directory is locked by another run ({self._path}); "
                "remove the lockfile if that run is dead"
            ) from None
        os.write(self._fd, str(os.getpid()).encode())
        return self

    def _holder_is_dead(self) -> bool:
        """True only if the lockfile names a pid that no longer exists."""
        try:
            pid = int(self._path.read_text())
            if pid > 0:
                os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (OSError, ValueError, OverflowError):
            pass
        return False

    def __exit__(self, *exc: object) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._path.unlink(missing_ok=True)


def _cmd_ingest(args: argparse.Namespace) -> int:
    g, accounting = aggregate_event_file(args.events, strict=args.strict)
    save_snapshot(g, args.output, extra_provenance=accounting)
    _emit(json_bytes({**accounting, "vertices": g.vertex_count, "arcs": g.arc_count, "snapshot": str(args.output)}), None)
    return EXIT_OK


def _cmd_census(args: argparse.Namespace) -> int:
    g = load_edge_list(args.graph, strict=args.strict)
    _emit(json_bytes({"vertex_count": g.vertex_count, **asdict(g.dyad_census())}), args.output)
    return EXIT_OK


def _cmd_reciprocity(args: argparse.Namespace) -> int:
    g = load_edge_list(args.graph, strict=args.strict)
    r = dyad_r_values(g)
    hist = histogram(r, args.bin_width)
    dyad_count = hist.pop("total")
    if not dyad_count:
        _warn_or_raise(args.strict, "graph has no mutual dyads")
    if args.records:
        labels, classes = np.array(g.external_ids, dtype=object), np.array([c.value for c in DyadClass], dtype=object)
        sel = g._mutual_arcs()

        def dyads(lo: int, hi: int) -> tuple[np.ndarray, ...]:
            a, b, *numbers = _dyads(g, sel[lo:hi])
            return labels[a], labels[b], *numbers, r[lo:hi], classes[_classes(r[lo:hi])]

        write_csvs([([args.records], "a,b,w_ab,w_ba,p_ab,p_ba,r_value,dyad_class\n", dyad_count, dyads)])
    _emit(json_bytes({"dyads": dyad_count, **hist}), args.output)
    return EXIT_OK


def _cmd_concentration(args: argparse.Namespace) -> int:
    g = load_edge_list(args.graph, strict=args.strict)
    vertices, h, h_star = concentration_arrays(g)
    if not len(vertices):
        _warn_or_raise(args.strict, "no vertices with out-degree >= 2")
    if args.records:
        labels, degree = np.array(g.external_ids, dtype=object), np.diff(g._indptr)

        def rows(lo: int, hi: int) -> tuple[np.ndarray, ...]:
            return labels[vertices[lo:hi]], degree[vertices[lo:hi]], h[lo:hi], h_star[lo:hi]

        write_csvs([([args.records], "vertex,out_degree,h,h_star\n", len(vertices), rows)])
    mean_h_star = (sum(h_star.tolist()) / len(vertices)) if len(vertices) else None
    _emit(json_bytes({"vertices_scored": len(vertices), "mean_h_star": mean_h_star}), args.output)
    return EXIT_OK


def _cmd_assortativity(args: argparse.Namespace) -> int:
    g = load_edge_list(args.graph, strict=args.strict)
    try:
        doc = degree_assortativity(g, mutual_only=(args.arcs == "mutual"))
    except UndefinedCorrelationError as exc:
        _warn_or_raise(args.strict, str(exc))
        doc = {"r": None, "pair_count": exc.pair_count}
    _emit(json_bytes({**doc, "arcs": args.arcs}), args.output)
    return EXIT_OK


def _cmd_equidisperse(args: argparse.Namespace) -> int:
    g = load_edge_list(args.graph, strict=args.strict)
    save_snapshot(equidisperse(g), args.output, regime="equidispersed")
    return EXIT_OK


def _cmd_rewire(args: argparse.Namespace) -> int:
    g = load_edge_list(args.graph, strict=args.strict)
    rewired, stats = maslov_sneppen_rewire(g, np.random.default_rng(args.seed), args.swap_multiplier)
    if stats["warning"]:
        _warn_or_raise(args.strict, stats["warning"])
    swaps = {key: stats[key] for key in ("attempted_swaps", "accepted_swaps")}
    save_snapshot(rewired, args.output, regime="rewired", seed=args.seed, extra_provenance=swaps)
    _emit(json_bytes({**stats, "snapshot": str(args.output)}), None)
    return EXIT_OK


def _cmd_regimes(args: argparse.Namespace) -> int:
    if args.replicas < 1:
        raise DomainError("replicas must be a positive integer")
    g = load_edge_list(args.graph, strict=args.strict)
    seeds = range(args.seed, args.seed + args.replicas)
    comparisons, graphs = run_regime_comparison(g, seeds, args.swap_multiplier, args.bin_width)
    for doc in comparisons:
        if doc["rewire"]["warning"]:
            _warn_or_raise(args.strict, f"rewire with seed {doc['seed']}: {doc['rewire']['warning']}")
    first, *later = comparisons
    verdict = first["verdict"]
    if verdict["degenerate"]:
        _warn_or_raise(args.strict, verdict["description"])
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with _OutputLock(outdir):
        for label, rep in first["reports"].items():
            (outdir / f"{label}.{args.format}").write_bytes(report_bytes(rep, args.format))
        (outdir / "comparison.json").write_bytes(json_bytes(first))
        if args.save_graphs:
            cells = [(graph, outdir / f"{label}.graph.csv", {"regime": label, "seed": first["seed"]}) for label, graph in graphs.items()]
            save_snapshots(cells)  # one batched pass: the cells share labels, row bounds and many weight texts
        for doc in later:
            (outdir / f"comparison.seed{doc['seed']}.json").write_bytes(json_bytes(doc))
        if args.replicas > 1:
            (outdir / "replicas.json").write_bytes(json_bytes(replicas_to_dict(comparisons)))
    _emit(json_bytes({"outdir": str(outdir), "replicas": args.replicas, "verdict": verdict["description"]}), None)
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = SynthConfig(
        vertex_count=args.vertices,
        degree_distribution=DegreeSpec.parse(args.degree_dist),
        target_assortativity=args.assortativity,
        dispersion=args.dispersion,
        seed=args.seed,
    )
    g = generate(cfg)
    save_snapshot(g, args.output, regime="synthetic", seed=args.seed)
    payload = {
        "vertices": g.vertex_count,
        "arcs": g.arc_count,
        "mutual_dyads": g.dyad_census().mutual,
        "snapshot": str(args.output),
    }
    _emit(json_bytes(payload), None)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    if any(c in args.regime for c in ",\r\n"):  # the CSV report format has no quoting
        raise FormatError(f"regime label {args.regime!r} contains a comma or line break")
    g = load_edge_list(args.graph, strict=args.strict)
    rep = analyze(g, regime=args.regime, seed=args.seed, bin_width=args.bin_width)
    _emit(report_bytes(rep, args.format), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recipnet",
        description="Weighted reciprocity analysis on directed communication graphs.",
    )
    parser.add_argument("--version", action="version", version=f"recipnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="aggregate an event log into a graph snapshot")
    p.add_argument("events", help="events CSV (timestamp,caller,callee)")
    p.add_argument("-o", "--output", required=True, help="snapshot path (graph CSV)")
    _common_flags(p, strict=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("census", help="mutual/asymmetric/null dyad counts")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    _common_flags(p, strict=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("reciprocity", help="per-dyad reciprocity distribution")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.add_argument("--records", help="also write per-dyad records CSV here")
    p.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH)
    _common_flags(p, strict=True)
    p.set_defaults(func=_cmd_reciprocity)

    p = sub.add_parser("concentration", help="per-vertex weight concentration")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.add_argument("--records", help="also write per-vertex scores CSV here")
    _common_flags(p, strict=True)
    p.set_defaults(func=_cmd_concentration)

    p = sub.add_parser("assortativity", help="degree assortativity across linked dyads")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.add_argument("--arcs", choices=("mutual", "full"), default="mutual")
    _common_flags(p, strict=True)
    p.set_defaults(func=_cmd_assortativity)

    p = sub.add_parser("equidisperse", help="equal-split weight transform")
    p.add_argument("graph")
    p.add_argument("-o", "--output", required=True)
    _common_flags(p, strict=True)
    p.set_defaults(func=_cmd_equidisperse)

    p = sub.add_parser("rewire", help="degree-preserving backbone randomization")
    p.add_argument("graph")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--swap-multiplier", type=int, default=DEFAULT_SWAP_MULTIPLIER)
    _common_flags(p, strict=True, seed="random seed")
    p.set_defaults(func=_cmd_rewire)

    p = sub.add_parser("regimes", help="four-network comparison with ordering verdict")
    p.add_argument("graph")
    p.add_argument("--outdir", required=True)
    p.add_argument("--swap-multiplier", type=int, default=DEFAULT_SWAP_MULTIPLIER)
    p.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH)
    p.add_argument("--save-graphs", action="store_true", help="also write regime snapshots")
    p.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="repeat with consecutive seeds and summarize spread across runs",
    )
    _common_flags(p, strict=True, seed="random seed", fmt=True)
    p.set_defaults(func=_cmd_regimes)

    p = sub.add_parser("synth", help="generate a synthetic network")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--degree-dist", default="poisson:8", help="powerlaw:G, poisson:M or regular:K")
    p.add_argument("--assortativity", type=float, default=0.0)
    p.add_argument("--dispersion", type=float, default=0.0)
    _common_flags(p, seed="random seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("report", help="full analysis report for one graph")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.add_argument("--regime", default="observed", help="regime label for provenance")
    p.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH)
    _common_flags(p, strict=True, seed="recorded in provenance only; report draws no random numbers", fmt=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # restores the hook on return; the filters, so which warnings are errors, stay as set
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except DegenerateInputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DEGENERATE
        except (DomainError, FormatError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
