"""Self-tests of the benchmark: its inputs, its output checks, its tracer and its guard.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gen
import spans
import workloads
from workloads import CheckError

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

SMALL_EVENTS = gen.EventSpec(labels=400, arcs=900, lines=30_000, chunk=7_000)
# At this size the stub-sorting noise gives r of about 0.24, not 0.3.
SMALL_GRAPH = gen.GraphSpec(vertices=3_000, gamma=2.5, target_r=0.24, one_way_share=1 / 6)


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "recipnet.cli", *args], env=env, capture_output=True, text=True, check=True
    )


# -- guard --------------------------------------------------------------------------

#: Interfaces that ROADMAP items 2-5 retire; the benchmark must not depend on them.
RETIRED = [
    r"--threads\b",
    r"\bRECIPNET_THREADS\b",
    r"\bthreads\s*=",
    r"\bdestroy_assortativity\b",
    r"\bimpose_equidispersion\b",
    r"\bapply_regime\b",
    r"\bread_events\b",
    r"\baggregate_events\b",
    r"\bREGIME_LABELS\b",
]


def test_benchmark_uses_no_retired_interface() -> None:
    sources = [p for p in BENCH.rglob("*") if p.is_file() and "tests" not in p.relative_to(BENCH).parts]
    sources.append(ROOT / "BENCHMARK.json")
    assert any(p.name == "run.py" for p in sources)
    hits = [
        f"{p.relative_to(ROOT)}: {pattern}"
        for p in sources
        if p.suffix in (".py", ".md", ".json")
        for pattern in RETIRED
        if re.search(pattern, p.read_text(encoding="utf-8"))
    ]
    assert hits == []


# -- inputs --------------------------------------------------------------------------


def test_generator_never_imports_recipnet() -> None:
    code = "import sys, gen; sys.exit(any(m.split('.')[0] == 'recipnet' for m in sys.modules))"
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True)


def test_same_seed_same_bytes(tmp_path: Path) -> None:
    t1 = gen.write_event_log(3, SMALL_EVENTS, tmp_path / "a.csv")
    t2 = gen.write_event_log(3, SMALL_EVENTS, tmp_path / "b.csv")
    t3 = gen.write_event_log(4, SMALL_EVENTS, tmp_path / "c.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert t1.digest == t2.digest != t3.digest
    g1, g2 = gen.make_graph(3, SMALL_GRAPH), gen.make_graph(3, SMALL_GRAPH)
    gen.write_snapshot(g1, tmp_path / "g1.csv")
    gen.write_snapshot(g2, tmp_path / "g2.csv")
    assert g1.digest == g2.digest


def test_inputs_are_pinned(tmp_path: Path) -> None:
    """A change to the generator changes what every later commit is timed on."""
    assert gen.write_event_log(1, SMALL_EVENTS, tmp_path / "e.csv").digest == (
        "4ace4dafcc37001b6e7f7939484934609f69a5f6cda39d9b9a53f9f0e9a4db35"
    )
    g = gen.make_graph(1, SMALL_GRAPH)
    gen.write_snapshot(g, tmp_path / "g.csv")
    assert g.digest == "a432eeb46b55c9d65bed6548ade605b9afa87d502b949909e94139d01c14ad7f"


def test_event_log_truth_matches_a_recount(tmp_path: Path) -> None:
    """Count the written log line by line, by the events format's own rules."""
    truth = gen.write_event_log(5, SMALL_EVENTS, tmp_path / "events.csv")
    counts: Counter = Counter()
    self_calls = malformed = lines = 0
    with open(tmp_path / "events.csv", encoding="utf-8") as f:
        assert f.readline() == "timestamp,caller,callee\n"
        for line in f:
            lines += 1
            fields = line.rstrip("\n").split(",")
            if len(fields) != 3 or not fields[1] or not fields[2]:
                malformed += 1
            elif fields[1] == fields[2]:
                self_calls += 1
            else:
                counts[(fields[1], fields[2])] += 1
    assert lines == truth.events_read == SMALL_EVENTS.lines
    assert (self_calls, malformed) == (truth.self_calls, truth.malformed) and malformed > 0
    assert dict(counts) == truth.counts
    assert len({v for pair in counts for v in pair}) == truth.vertices
    mutual = sum(1 for a, b in counts if (b, a) in counts) // 2
    assert mutual == truth.mutual_dyads


def test_graph_generator_meets_its_spec() -> None:
    g = gen.make_graph(1, SMALL_GRAPH)
    assert abs(g.one_way_arcs / g.arc_count - SMALL_GRAPH.one_way_share) < 1e-3
    keys = g.src * g.vertex_count + g.dst
    assert (g.src != g.dst).all() and (keys[1:] > keys[:-1]).all()
    assert (g.weight > 0).all()
    reverse = set((g.dst * g.vertex_count + g.src).tolist())
    assert [k in reverse for k in keys.tolist()] == g.mutual.tolist()
    m = g.mutual & (g.src < g.dst)
    assert abs(gen.backbone_r(g.src[m], g.dst[m], g.vertex_count) - SMALL_GRAPH.target_r) <= 0.05
    assert g.labels == sorted(g.labels) and len(set(g.labels)) == g.vertex_count


# -- output checks ----------------------------------------------------------------------


def _corrupt_first_weight(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line[0] == "+")
    src, dst, w = lines[i].rstrip("\n").split(",")
    lines[i] = f"{src},{dst},{float(w) * 2!r}\n"
    path.write_text("".join(lines))


def test_ingest_check_passes_then_catches_a_wrong_weight(tmp_path: Path) -> None:
    w = workloads.IngestWorkload(SMALL_EVENTS)
    w.setup(2, tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    stdout = run_cli(w.cli_args(out)).stdout
    w.check(out, stdout)
    before = w.fingerprint(out, stdout)
    _corrupt_first_weight(out / "graph.csv")
    with pytest.raises(CheckError, match="true counts|total weight"):
        w.check(out, stdout)
    assert w.fingerprint(out, stdout) != before


def test_report_check_passes_then_catches_a_wrong_mean(tmp_path: Path) -> None:
    w = workloads.ReportWorkload(SMALL_GRAPH)
    w.setup(2, tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    run_cli(w.cli_args(out))
    w.check(out, "")
    doc = json.loads((out / "report.json").read_text())
    doc["reciprocity"]["mean"] += 1e-6
    (out / "report.json").write_text(json.dumps(doc))
    with pytest.raises(CheckError, match="mean R"):
        w.check(out, "")


@pytest.mark.parametrize(
    ("victim", "message"),
    [
        ("rewired.graph.csv", "out-weight multiset"),
        ("rewired_equidispersed.graph.csv", "unequal split|strength"),
    ],
)
def test_regimes_check_passes_then_catches_a_broken_regime(tmp_path: Path, victim: str, message: str) -> None:
    w = workloads.RegimesWorkload(SMALL_GRAPH)
    w.setup(2, tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    stdout = run_cli(w.cli_args(out)).stdout
    w.check(out, stdout)
    _corrupt_first_weight(out / victim)
    with pytest.raises(CheckError, match=message):
        w.check(out, stdout)


# -- tracing ------------------------------------------------------------------------------


def test_self_time_and_coverage() -> None:
    spans_ = [
        {"name": "root", "parent": None, "start": 0.0, "end": 10.0, "rss_hwm_kb": 1},
        {"name": "a", "parent": 0, "start": 1.0, "end": 5.0, "rss_hwm_kb": 2},
        {"name": "b", "parent": 1, "start": 2.0, "end": 3.0, "rss_hwm_kb": 3},
        {"name": "b", "parent": 0, "start": 6.0, "end": 9.5, "rss_hwm_kb": 4},
    ]
    summary = spans.summarize(spans_)
    assert summary["root"]["self_s"] == pytest.approx(2.5)
    assert summary["a"]["self_s"] == pytest.approx(3.0)
    assert summary["b"] == {"calls": 2, "total_s": pytest.approx(4.5), "self_s": pytest.approx(4.5), "rss_hwm_kb": 4}
    assert spans.coverage(spans_) == pytest.approx(0.75)


def test_tracer_wraps_every_target(tmp_path: Path) -> None:
    w = workloads.RegimesWorkload(SMALL_GRAPH)
    w.setup(2, tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(BENCH / "tracer.py"), str(tmp_path / "spans.json"), "--", *w.cli_args(out)]
    subprocess.run(cmd, env=env, capture_output=True, check=True)
    doc = json.loads((tmp_path / "spans.json").read_text())
    assert doc["missing"] == [] and doc["exit_code"] == 0
    names = {s["name"] for s in doc["spans"]}
    assert {
        "cli.main", "ingest.load_edge_list", "ingest.save_snapshot", "report.analyze",
        "metrics.reciprocity_records", "graph.mutual_dyads", "nullmodels.maslov_sneppen_rewire",
        "nullmodels.equidisperse", "report.serialize",
    } <= names
    w.check(out, "")  # tracing does not change the outputs


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("tests", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_what_run_reports() -> None:
    import run

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
