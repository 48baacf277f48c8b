"""recipnet benchmark: time real CLI jobs on seeded inputs and check their outputs.

    python3 perfbench/run.py --workload {ingest,report,regimes,all} --seed N \\
        --seconds S --trace {0,1}

Each job is a fresh ``python -m recipnet.cli ...`` process, run one at a
time (a closed loop with one client), so a job's time includes interpreter
start-up and first-touch allocation, as a user's does. Jobs start until
``--seconds`` have passed and at least three have run. Every job's outputs
are checked untimed: the first job's against an oracle computed at set-up,
every later job's against the first job's bytes.

``--trace 0`` reports the end-to-end metrics: the median job wall time, the
median peak RSS of the job process (from its own rusage), and set-up time
(the median of three set-ups, plus imports). ``--trace 1`` runs the same
jobs through ``tracer.py`` and reports per-layer metrics from their spans;
end-to-end metrics never come from a traced run.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A failed check is reported on stderr and makes
the exit code 1. Run from a checkout of the repository: the program is
taken from its ``src`` directory, and scratch files go to
``.perfbench_work`` in the checkout.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from launch import Launcher  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_JOBS = 3
SETUPS = 3
IMPORT_PROBES = 3
#: A job is killed (and fails) after JOB_TIMEOUT_S, and none starts after
#: START_DEADLINE_S, so a run ends within 180 s even if its last job hangs.
JOB_TIMEOUT_S = 60.0
START_DEADLINE_S = 100.0
MIN_COVERAGE = 0.95

END_TO_END_UNITS = {"job_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

#: Per-layer metrics as (name, unit). Times are self time summed over calls.
PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.main.s", "s"),
    ("ingest.aggregate_event_file.s", "s"),
    ("ingest.aggregate_event_file.total_s", "s"),
    ("ingest.events_per_s", "1/s"),
    ("ingest.events_read", "count"),
    ("ingest.arcs", "count"),
    ("ingest.bytes_in", "bytes"),
    ("ingest.save_snapshot.s", "s"),
    ("ingest.bytes_out", "bytes"),
    ("ingest.load_edge_list.s", "s"),
    ("ingest.load_edge_list.total_s", "s"),
    ("graph.build.s", "s"),
    ("graph.from_dense_arcs.s", "s"),
    ("graph.mutual_dyads.s", "s"),
    ("graph.dyad_census.s", "s"),
    ("graph.content_digest.s", "s"),
    ("metrics.reciprocity_records.s", "s"),
    ("metrics.reciprocity_distribution.s", "s"),
    ("metrics.degree_assortativity.s", "s"),
    ("metrics.concentration_scores.s", "s"),
    ("report.analyze.s", "s"),
    ("report.analyze.total_s", "s"),
    ("report.analyze.calls", "count"),
    ("report.serialize.s", "s"),
    ("nullmodels.maslov_sneppen_rewire.s", "s"),
    ("nullmodels.maslov_sneppen_rewire.total_s", "s"),
    ("nullmodels.reattach_weights.s", "s"),
    ("nullmodels.equidisperse.s", "s"),
    ("nullmodels.rewire.attempted_swaps", "count"),
    ("nullmodels.rewire.accepted_swaps", "count"),
    ("nullmodels.rewire.accept_ratio", "ratio"),
    ("nullmodels.rewire.swaps_per_s", "1/s"),
    ("nullmodels.rewire.residual_abs_r", "ratio"),
    ("graph.arcs", "count"),
    ("graph.mutual_dyads", "count"),
    ("graph.one_way_arcs", "count"),
    ("ingest.aggregate_event_file.rss_hwm_mb", "MiB"),
    ("report.analyze.rss_hwm_mb", "MiB"),
    ("synth.generate.s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.wall_s", "s"),
]
SELF_TIMES = [
    name[: -len(".s")]
    for name, _ in PER_LAYER
    if name.endswith(".s") and name not in ("synth.generate.s",)
]


@dataclass
class Job:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


class Spawner:
    """Starts processes through the lean launcher, with recipnet's sources on the path."""

    def __init__(self, launcher: Launcher) -> None:
        self._launcher = launcher
        self._env = dict(os.environ)
        path = self._env.get("PYTHONPATH")
        self._env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")

    def __call__(self, argv: list[str], log_dir: Path) -> Job:
        out, err = log_dir / "stdout", log_dir / "stderr"
        reply = self._launcher.run(
            argv=argv, cwd=str(ROOT), env=self._env, stdout=str(out), stderr=str(err), timeout=JOB_TIMEOUT_S
        )
        return Job(
            wall_s=reply["wall_s"],
            peak_rss_mb=reply["peak_rss_kb"] / 1024.0,
            exit_code=reply["exit_code"],
            stdout=out.read_text(errors="replace"),
            stderr=err.read_text(errors="replace"),
        )


def import_probe(spawn: Spawner, workdir: Path) -> float:
    """Seconds a fresh interpreter spends in ``import recipnet.cli``."""
    code = "import time; t = time.perf_counter(); import recipnet.cli; print(time.perf_counter() - t)"
    job = spawn([sys.executable, "-c", code], workdir)
    if job.exit_code != 0:
        raise RuntimeError(f"import recipnet.cli failed: {job.stderr}")
    return float(job.stdout)


NOT_CALLED = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rss_hwm_kb": 0}


def layer_metrics(workload: workloads.Workload, spans_doc: dict, outdir: Path, stdout: str) -> dict[str, float]:
    records = spans_doc["spans"]
    summary = spans.summarize(records)

    def row(name: str) -> dict:
        return summary.get(name, NOT_CALLED)

    m: dict[str, float] = {f"{name}.s": row(name)["self_s"] for name in SELF_TIMES}
    for name in ("ingest.aggregate_event_file", "ingest.load_edge_list", "report.analyze",
                 "nullmodels.maslov_sneppen_rewire"):
        m[f"{name}.total_s"] = row(name)["total_s"]
    m["report.analyze.calls"] = row("report.analyze")["calls"]
    for name in ("ingest.aggregate_event_file", "report.analyze"):
        m[f"{name}.rss_hwm_mb"] = row(name)["rss_hwm_kb"] / 1024.0

    stats = json.loads(stdout) if workload.name == "ingest" else {}
    m["ingest.events_read"] = stats.get("events_read", 0)
    m["ingest.arcs"] = stats.get("arcs", 0)
    aggregate_s = m["ingest.aggregate_event_file.total_s"]
    m["ingest.events_per_s"] = m["ingest.events_read"] / aggregate_s if aggregate_s > 0 else 0.0
    m["ingest.bytes_in"] = sum(p.stat().st_size for p in workload.input_files)
    m["ingest.bytes_out"] = sum(p.stat().st_size for p in outdir.glob("*.csv"))

    rewire = {}
    if (outdir / "comparison.json").exists():
        rewire = json.loads((outdir / "comparison.json").read_text())["rewire"]
    attempted = rewire.get("attempted_swaps", 0)
    rewire_s = m["nullmodels.maslov_sneppen_rewire.total_s"]
    m["nullmodels.rewire.attempted_swaps"] = attempted
    m["nullmodels.rewire.accepted_swaps"] = rewire.get("accepted_swaps", 0)
    m["nullmodels.rewire.accept_ratio"] = rewire.get("accepted_swaps", 0) / attempted if attempted else 0.0
    m["nullmodels.rewire.swaps_per_s"] = attempted / rewire_s if rewire_s > 0 else 0.0
    m["nullmodels.rewire.residual_abs_r"] = abs(rewire.get("residual_assortativity") or 0.0)

    m.update(workload.sizes)
    m["trace.coverage"] = spans.coverage(records)
    m["trace.wall_s"] = records[0]["end"] - records[0]["start"]
    return m


def synth_probe(spawn: Spawner, workload: workloads.RegimesWorkload, workdir: Path) -> float:
    """Traced `recipnet synth` at the regimes graph's size; informational only."""
    spec = workload.spec
    argv = [
        sys.executable, str(HERE / "tracer.py"), str(workdir / "synth.spans.json"), "--",
        "synth", "-o", str(workdir / "synth.csv"), "--vertices", str(spec.vertices),
        "--degree-dist", f"powerlaw:{spec.gamma}", "--assortativity", str(spec.target_r),
        "--dispersion", str(gen.DISPERSION), "--seed", str(workload.seed),
    ]
    job = spawn(argv, workdir)
    if job.exit_code != 0:
        raise RuntimeError(f"traced synth failed: {job.stderr}")
    doc = json.loads((workdir / "synth.spans.json").read_text())
    return spans.summarize(doc["spans"])["synth.generate"]["total_s"]


def run_workload(
    spawn: Spawner, name: str, seed: int, seconds: float, trace: bool, workdir: Path, import_s: float
) -> dict:
    workload = workloads.WORKLOADS[name]()
    setups = []
    digests = set()
    for _ in range(1 if trace else SETUPS):
        t = time.perf_counter()
        workload.setup(seed, workdir)
        setups.append(time.perf_counter() - t)
        digests.add(workload.input_digest)
    if len(digests) != 1:
        raise RuntimeError("the input generator is not deterministic")
    setup_s = import_s + statistics.median(setups)
    print(f"{name}: seed {seed}, inputs sha256 {workload.input_digest}, "
          + ", ".join(f"{k} {v}" for k, v in workload.sizes.items()))

    jobs: list[Job] = []
    layers: list[dict] = []
    failures = 0
    reference = None
    window = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - window < seconds:
        if jobs and time.perf_counter() - T0 > START_DEADLINE_S:
            break
        job_dir = workdir / f"job{len(jobs)}"
        outdir = job_dir / "out"
        outdir.mkdir(parents=True)
        cli = workload.cli_args(outdir)
        if trace:
            argv = [sys.executable, str(HERE / "tracer.py"), str(job_dir / "spans.json"), "--", *cli]
        else:
            argv = [sys.executable, "-m", "recipnet.cli", *cli]
        job = spawn(argv, job_dir)
        jobs.append(job)
        try:
            if job.exit_code != 0:
                raise workloads.CheckError(f"exit code {job.exit_code}: {job.stderr.strip()[-2000:]}")
            if reference is None:
                workload.check(outdir, job.stdout)
                reference = workload.fingerprint(outdir, job.stdout)
            elif workload.fingerprint(outdir, job.stdout) != reference:
                raise workloads.CheckError("outputs differ from the first job's on the same inputs")
            if trace:
                spans_doc = json.loads((job_dir / "spans.json").read_text())
                if spans_doc["missing"]:
                    print(f"warning: not traced: {', '.join(spans_doc['missing'])}", file=sys.stderr)
                layers.append(layer_metrics(workload, spans_doc, outdir, job.stdout))
                if layers[-1]["trace.coverage"] < MIN_COVERAGE:
                    print(f"warning: named spans cover only {layers[-1]['trace.coverage']:.3f} of the job",
                          file=sys.stderr)
        except Exception:  # any malformed or wrong output fails this job, not the run
            failures += 1
            print(f"{name} job {len(jobs)} FAILED:\n{traceback.format_exc()}", file=sys.stderr)
        if len(jobs) > 1:
            shutil.rmtree(job_dir)

    times = [j.wall_s for j in jobs]
    print(f"{name}: job wall times (s): {' '.join(f'{t:.3f}' for t in times)}")
    print(f"{name}: set-up times (s): {' '.join(f'{t:.3f}' for t in setups)} (+{import_s:.3f} imports)")
    if trace:
        if not layers:
            raise RuntimeError("no traced job succeeded")
        merged = {key: statistics.median(d[key] for d in layers) for key in layers[0]}
        merged["cli.import_s"] = statistics.median(import_probe(spawn, workdir) for _ in range(IMPORT_PROBES))
        merged["synth.generate.s"] = synth_probe(spawn, workload, workdir) if name == "regimes" else 0.0
        values = {key: merged[key] for key, _ in PER_LAYER}
        units = dict(PER_LAYER)
    else:
        values = {
            "job_s": statistics.median(times),
            "peak_rss_mb": statistics.median(j.peak_rss_mb for j in jobs),
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS
    for key, value in values.items():
        print(f"{name}: {key} = {value:.6g} {units[key]}")
    print(f"{name}: samples = {len(jobs)} jobs, {len(setups)} set-ups")
    print(f"{name}: error_rate = {failures / len(jobs):.6g} ratio ({failures} failed of {len(jobs)} jobs)")
    return {
        "attempted": len(jobs),
        "failed": failures,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["ingest", "report", "regimes", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "recipnet" / "cli.py").is_file():
        print(f"error: no recipnet sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))  # the ingest check loads snapshots with recipnet
    import_s = time.perf_counter() - T0
    with Launcher(grace_s=JOB_TIMEOUT_S + 10) as launcher:
        spawn = Spawner(launcher)
        names = ["ingest", "report", "regimes"] if args.workload == "all" else [args.workload]
        work_root = ROOT / ".perfbench_work"
        results = {}
        for name in names:
            workdir = work_root / f"{name}-{args.seed}-{os.getpid()}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                results[name] = run_workload(
                    spawn, name, args.seed, args.seconds, bool(args.trace), workdir, import_s
                )
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()

    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
