"""End-to-end CLI coverage: subcommands, formats, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from recipnet import cli, graph, ingest, metrics, report
from recipnet.cli import EXIT_DEGENERATE, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from recipnet.graph import GraphBuilder
from recipnet.ingest import aggregate_event_file, load_edge_list, save_snapshot
from recipnet.metrics import DyadClass, classify, concentration, degree_assortativity, reciprocity_value
from recipnet.nullmodels import maslov_sneppen_rewire

from conftest import digraph, random_digraph


@pytest.fixture
def events_file(tmp_path):
    path = tmp_path / "events.csv"
    rows = ["1,a,b", "2,b,a", "3,a,b", "4,a,c", "5,c,a", "6,b,c", "7,c,b", "8,a,a"]
    path.write_text("timestamp,caller,callee\n" + "".join(r + "\n" for r in rows))
    return path


@pytest.fixture
def graph_file(tmp_path, events_file, capsys):
    out = tmp_path / "graph.csv"
    assert main(["ingest", str(events_file), "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    return out


@pytest.fixture
def labelled_graph(tmp_path):
    """A graph with text labels and non-integer weights, and its snapshot."""
    rnd = random.Random(7)
    names = [f"user{rnd.randrange(10**6)}" for _ in range(40)]
    builder = GraphBuilder()
    for _ in range(300):
        src, dst = rnd.sample(names, 2)
        builder.add_arc(src, dst, rnd.uniform(0.1, 50.0))
        if rnd.random() < 0.6:
            builder.add_arc(dst, src, rnd.uniform(0.1, 50.0))
    g = builder.build()
    path = tmp_path / "labelled.csv"
    save_snapshot(g, path)
    assert g.external_ids != tuple(map(str, range(g.vertex_count))) and load_edge_list(path) == g
    return g, path


#: Batch sizes the records writers are run with: batches of one row, partial last batches, one batch.
RECORD_BATCHES = [1, 2, 3, 7, pytest.param(ingest._BATCH, id="default")]


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def reciprocity_rows(g) -> list[str]:
    """The lines of ``reciprocity --records`` on ``g``, header first, from the scalar functions."""
    labels = g.external_ids
    rows = ["a,b,w_ab,w_ba,p_ab,p_ba,r_value,dyad_class"]
    for a in range(g.vertex_count):
        for b in range(a + 1, g.vertex_count):
            if g.has_arc(a, b) and g.has_arc(b, a):
                w_ab, w_ba, s_a, s_b = g.weight(a, b), g.weight(b, a), g.out_strength(a), g.out_strength(b)
                r = reciprocity_value(w_ab, w_ba, s_a, s_b)
                rows.append(f"{labels[a]},{labels[b]},{w_ab!r},{w_ba!r},{w_ab / s_a!r},{w_ba / s_b!r},{r!r},{classify(r).value}")
    return rows


class TestPipeline:
    def test_ingest_reports_stats(self, capsys, events_file, tmp_path):
        out = tmp_path / "g.csv"
        code, payload = run_json(capsys, ["ingest", str(events_file), "-o", str(out)])
        assert code == EXIT_OK
        assert payload["events_read"] == 8
        assert payload["self_calls_dropped"] == 1
        assert out.exists()

    def test_ingest_snapshot_records_accounting(self, capsys, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("timestamp,caller,callee\n1,a,b\n2,b,a\n3,a,a\nbad\n4,a,b\n")
        out = tmp_path / "g.csv"
        assert main(["ingest", str(events), "-o", str(out)]) == EXIT_OK
        head = out.read_text().splitlines()[1:4]
        assert head == ["# events_read=5", "# self_calls_dropped=1", "# malformed_lines=1"]
        g, _ = aggregate_event_file(events)
        loaded = load_edge_list(out)
        assert loaded == g
        assert loaded.external_ids == g.external_ids == ("a", "b")

    def test_census(self, capsys, graph_file):
        code, payload = run_json(capsys, ["census", str(graph_file)])
        assert code == EXIT_OK
        assert payload["mutual"] == 3
        assert payload["asymmetric"] == 0

    def test_reciprocity_with_records(self, capsys, graph_file, tmp_path):
        records = tmp_path / "records.csv"
        code, payload = run_json(
            capsys, ["reciprocity", str(graph_file), "--records", str(records)]
        )
        assert code == EXIT_OK
        assert payload["dyads"] == 3
        lines = records.read_text().splitlines()
        assert lines[0] == "a,b,w_ab,w_ba,p_ab,p_ba,r_value,dyad_class"
        assert len(lines) == 4

    @pytest.mark.parametrize("batch", RECORD_BATCHES)
    def test_reciprocity_records_rows_match_the_scalar_reference(self, capsys, labelled_graph, tmp_path, batch):
        g, path = labelled_graph
        records = tmp_path / "records.csv"
        with mock.patch.object(ingest, "_BATCH", batch):
            code, payload = run_json(capsys, ["reciprocity", str(path), "--records", str(records)])
        assert code == EXIT_OK
        want = reciprocity_rows(g)
        assert records.read_text().splitlines() == want
        assert payload["dyads"] == len(want) - 1 > 10

    @pytest.mark.parametrize("batch", [2, 7])
    @pytest.mark.parametrize("block", [1, 3])
    def test_reciprocity_records_classes_from_blocks_that_miss_the_batches(self, labelled_graph, tmp_path, block, batch):
        """Each batch of rows takes its classes from its slice of a score column scored in blocks of another size."""
        g, path = labelled_graph
        records = tmp_path / "records.csv"
        with (
            mock.patch.object(graph, "_SUM_BLOCK", block),
            mock.patch.object(metrics, "_SUM_BLOCK", block),
            mock.patch.object(ingest, "_BATCH", batch),
        ):
            assert main(["reciprocity", str(path), "--records", str(records), "-o", str(tmp_path / "hist.json")]) == EXIT_OK
        want = reciprocity_rows(g)
        assert records.read_text().splitlines() == want
        assert {row.rsplit(",", 1)[1] for row in want[1:]} == {c.value for c in DyadClass}

    @pytest.mark.parametrize("batch", RECORD_BATCHES)
    def test_concentration_records_rows_match_the_scalar_reference(self, capsys, labelled_graph, tmp_path, batch):
        g, path = labelled_graph
        records = tmp_path / "scores.csv"
        with mock.patch.object(ingest, "_BATCH", batch):
            code, payload = run_json(capsys, ["concentration", str(path), "--records", str(records)])
        assert code == EXIT_OK
        labels = g.external_ids
        want, h_stars = ["vertex,out_degree,h,h_star"], []
        for v in range(g.vertex_count):
            if g.out_degree(v) >= 2:
                h, h_star = concentration(g, v)
                want.append(f"{labels[v]},{g.out_degree(v)},{h!r},{h_star!r}")
                h_stars.append(h_star)
        assert records.read_text().splitlines() == want
        assert payload["vertices_scored"] == len(h_stars) > 10
        assert payload["mean_h_star"] == sum(h_stars) / len(h_stars)

    def test_concentration(self, capsys, graph_file, tmp_path):
        records = tmp_path / "scores.csv"
        code, payload = run_json(
            capsys, ["concentration", str(graph_file), "--records", str(records)]
        )
        assert code == EXIT_OK
        assert payload["vertices_scored"] == 3
        assert records.read_text().startswith("vertex,out_degree,h,h_star")

    def test_assortativity(self, capsys, graph_file):
        code, payload = run_json(capsys, ["assortativity", str(graph_file)])
        assert code == EXIT_OK
        # Mutual triangle: all degrees equal, correlation undefined -> null.
        assert payload["r"] is None

    def test_assortativity_strict_escalates(self, graph_file):
        assert main(["assortativity", str(graph_file), "--strict"]) == EXIT_DEGENERATE

    def test_equidisperse_snapshot(self, capsys, graph_file, tmp_path):
        out = tmp_path / "eq.csv"
        assert main(["equidisperse", str(graph_file), "-o", str(out)]) == EXIT_OK
        g = load_edge_list(out)
        assert g.arc_count == 6

    def test_rewire_snapshot(self, capsys, tmp_path):
        synth_out = tmp_path / "s.csv"
        assert (
            main(
                [
                    "synth",
                    "-o",
                    str(synth_out),
                    "--vertices",
                    "200",
                    "--degree-dist",
                    "poisson:5",
                    "--assortativity",
                    "0.2",
                    "--dispersion",
                    "0.4",
                    "--seed",
                    "3",
                ]
            )
            == EXIT_OK
        )
        capsys.readouterr()
        out = tmp_path / "rw.csv"
        code, payload = run_json(
            capsys, ["rewire", str(synth_out), "-o", str(out), "--seed", "5"]
        )
        assert code == EXIT_OK
        assert payload["accepted_swaps"] > 0
        rewired = load_edge_list(out)
        original = load_edge_list(synth_out)
        assert rewired.arc_count == original.arc_count

    def test_regimes_outputs(self, capsys, tmp_path):
        synth_out = tmp_path / "s.csv"
        main(
            [
                "synth", "-o", str(synth_out),
                "--vertices", "200",
                "--degree-dist", "poisson:5",
                "--assortativity", "0.2",
                "--dispersion", "0.4",
                "--seed", "3",
            ]
        )
        capsys.readouterr()
        outdir = tmp_path / "reg"
        code, payload = run_json(
            capsys,
            [
                "regimes", str(synth_out),
                "--outdir", str(outdir),
                "--seed", "7",
                "--save-graphs",
            ],
        )
        assert code == EXIT_OK
        expected = {
            "observed.json",
            "observed_equidispersed.json",
            "rewired.json",
            "rewired_equidispersed.json",
            "comparison.json",
            "rewired.graph.csv",
        }
        assert expected.issubset({p.name for p in outdir.iterdir()})
        assert not (outdir / ".recipnet.lock").exists()
        saved = load_edge_list(outdir / "rewired.graph.csv")
        assert saved.arc_count == load_edge_list(synth_out).arc_count

    def test_regimes_saved_graphs_are_the_cells(self, tmp_path, capsys):
        """One batched save of every cell: equal sidecars, and each snapshot loads back as its cell's graph."""
        g = random_digraph(random.Random(2011), 80, arc_fraction=0.06, mutual_bias=0.7)
        save_snapshot(g, tmp_path / "g.csv")
        outdir = tmp_path / "reg"
        assert main(["regimes", str(tmp_path / "g.csv"), "--outdir", str(outdir), "--seed", "7", "--save-graphs"]) == EXIT_OK
        _, cells = report.run_regime_comparison(load_edge_list(tmp_path / "g.csv"), [7])
        assert list(cells) == [name for name, _, _ in report.CELLS]
        sidecars = {(outdir / f"{label}.graph.vertices.csv").read_bytes() for label in cells}
        assert len(sidecars) == 1
        for label, cell in cells.items():
            assert load_edge_list(outdir / f"{label}.graph.csv") == cell, label

    def test_regimes_replicas_summary(self, capsys, tmp_path):
        synth_out = tmp_path / "s.csv"
        main(
            [
                "synth", "-o", str(synth_out),
                "--vertices", "200",
                "--degree-dist", "poisson:5",
                "--assortativity", "0.2",
                "--dispersion", "0.4",
                "--seed", "3",
            ]
        )
        capsys.readouterr()
        outdir = tmp_path / "reg"
        code, payload = run_json(
            capsys,
            [
                "regimes", str(synth_out),
                "--outdir", str(outdir),
                "--seed", "7",
                "--replicas", "3",
            ],
        )
        assert code == EXIT_OK
        assert payload["replicas"] == 3
        summary = json.loads((outdir / "replicas.json").read_bytes())
        assert summary["seeds"] == [7, 8, 9]
        assert len(summary["cells"]["rewired"]["per_seed"]) == 3
        assert (outdir / "comparison.seed8.json").exists()

    def test_regimes_cell_added_as_one_row(self, tmp_path, capsys):
        synth_out = tmp_path / "s.csv"
        argv = ["synth", "-o", str(synth_out), "--vertices", "200", "--degree-dist", "poisson:5", "--seed", "3"]
        assert main(argv + ["--assortativity", "0.2", "--dispersion", "0.4"]) == EXIT_OK

        def regimes(outdir):
            argv = ["regimes", str(synth_out), "--outdir", str(outdir), "--seed", "7", "--replicas", "2"]
            assert main(argv + ["--save-graphs"]) == EXIT_OK
            return json.loads((outdir / "comparison.json").read_bytes())["verdict"]

        plain = regimes(tmp_path / "plain")
        row = ("observed_again", False, lambda g, rewired: g)  # seed-independent: built once
        with mock.patch.object(report, "CELLS", (*report.CELLS, row)):
            extended = regimes(tmp_path / "extended")
        outdir = tmp_path / "extended"
        added = json.loads((outdir / "observed_again.json").read_bytes())
        assert added["provenance"]["regime"] == "observed_again"
        assert added["provenance"]["seed"] == 7
        saved = load_edge_list(outdir / "observed_again.graph.csv")
        assert saved.content_digest() == load_edge_list(synth_out).content_digest()
        summary = json.loads((outdir / "replicas.json").read_bytes())
        assert summary["cells"]["observed_again"] == summary["cells"]["observed"]
        assert summary["verdicts"] == json.loads((tmp_path / "plain" / "replicas.json").read_bytes())["verdicts"]
        means = extended.pop("means")
        assert means == {**plain.pop("means"), "observed_again": means["observed"]}
        assert extended == plain
        for label in ("observed", "observed_equidispersed", "rewired", "rewired_equidispersed"):
            for name in (f"{label}.json", f"{label}.graph.csv"):
                assert (outdir / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_regimes_lockfile_blocks_concurrent_use(self, tmp_path, capsys):
        synth_out = tmp_path / "s.csv"
        main(
            [
                "synth", "-o", str(synth_out),
                "--vertices", "100",
                "--degree-dist", "poisson:4",
                "--seed", "3",
            ]
        )
        capsys.readouterr()
        outdir = tmp_path / "reg"
        outdir.mkdir()
        (outdir / ".recipnet.lock").write_text("other")
        code = main(["regimes", str(synth_out), "--outdir", str(outdir)])
        assert code == EXIT_VALIDATION

    def test_regimes_reclaims_lock_of_dead_process(self, tmp_path, capsys):
        synth_out = tmp_path / "s.csv"
        main(["synth", "-o", str(synth_out), "--vertices", "100", "--degree-dist", "poisson:4"])
        capsys.readouterr()
        outdir = tmp_path / "reg"
        outdir.mkdir()
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        (outdir / ".recipnet.lock").write_text(str(dead.pid))
        assert main(["regimes", str(synth_out), "--outdir", str(outdir)]) == EXIT_OK
        assert not (outdir / ".recipnet.lock").exists()
        (outdir / ".recipnet.lock").write_text(str(os.getpid()))
        assert main(["regimes", str(synth_out), "--outdir", str(outdir)]) == EXIT_VALIDATION

    def test_report_json_and_csv(self, capsys, graph_file, tmp_path):
        code, payload = run_json(capsys, ["report", str(graph_file)])
        assert code == EXIT_OK
        assert payload["schema"] == 3
        out = tmp_path / "rep.csv"
        assert main(["report", str(graph_file), "--format", "csv", "-o", str(out)]) == EXIT_OK
        assert out.read_text().startswith("metric,value")


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["census", str(tmp_path / "nope.csv")]) == EXIT_IO

    def test_bad_format_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header,here\n1,2,3\n")
        assert main(["census", str(bad)]) == EXIT_VALIDATION

    def test_out_strength_past_the_largest_float_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        path.write_text("src,dst,weight\na,b,1e308\na,c,1e308\nb,a,1\n")
        assert main(["census", str(path)]) == EXIT_VALIDATION
        assert "out-strength of vertex 'a' exceeds the largest float" in capsys.readouterr().err

    def test_bad_synth_config_is_validation_error(self, tmp_path, capsys):
        for dist, message in [
            ("zipf:2", "unknown degree distribution 'zipf'"),
            ("regular:inf", "must be finite and positive"),
            ("powerlaw:inf", "must be finite and positive"),
            ("regular:2.7", "regular degree must be an integer"),
        ]:
            argv = ["synth", "-o", str(tmp_path / "x.csv"), "--vertices", "10", "--degree-dist", dist]
            assert main(argv) == EXIT_VALIDATION
            assert message in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()

    def test_steep_power_law_draws_the_smallest_degree(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["synth", "-o", str(out), "--vertices", "50", "--degree-dist", "powerlaw:1100"])
        assert code == EXIT_OK
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        g = load_edge_list(out)
        assert [g.out_degree(v) for v in range(g.vertex_count)] == [2] * 50

    @pytest.mark.parametrize("regime", ["a,b", "a\nb", "a\rb"])
    def test_report_rejects_regime_the_csv_cannot_hold(self, regime, graph_file, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        argv = ["report", str(graph_file), "--format", "csv", "--regime", regime]
        assert main([*argv, "-o", str(out)]) == EXIT_VALIDATION
        assert "contains a comma or line break" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().out == ""

    def test_zero_replicas_rejected_before_outdir_exists(self, graph_file, tmp_path, capsys):
        outdir = tmp_path / "reg"
        code = main(["regimes", str(graph_file), "--outdir", str(outdir), "--replicas", "0"])
        assert code == EXIT_VALIDATION
        assert "replicas must be a positive integer" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["report", "reciprocity", "regimes"])
    def test_infinite_bin_width_rejected(self, command, graph_file, tmp_path, capsys):
        argv = [command, str(graph_file), "--bin-width", "inf"]
        if command == "regimes":
            argv += ["--outdir", str(tmp_path / "reg")]
        if command == "reciprocity":
            argv += ["--records", str(tmp_path / "r.csv")]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "bin width must be finite and positive" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "reg").exists()
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", ["report", "reciprocity", "regimes"])
    def test_fine_bin_width_lists_only_non_empty_bins(self, command, graph_file, tmp_path, capsys):
        # The top score on graph_file is ln 1.5 = 0.405, so this width spans 20,274 bins, 3 of them used at most.
        argv = [command, str(graph_file), "--bin-width", "2e-5"]
        if command == "regimes":
            argv += ["--outdir", str(tmp_path / "reg")]
        if command == "reciprocity":
            argv += ["--records", str(tmp_path / "r.csv")]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        doc = json.loads((tmp_path / "reg" / "observed.json").read_text() if command == "regimes" else out)
        bins = doc["bins"] if command == "reciprocity" else doc["histogram"]["bins"]
        dyads = load_edge_list(graph_file).dyad_census().mutual
        assert 1 <= len(bins) <= dyads
        assert all(c > 0 for _, _, c in bins)
        assert sum(c for _, _, c in bins) == dyads

    @pytest.mark.parametrize(
        "arcs, command, output, message",
        [
            # A mutual 10-cycle with unit weights: every cell has the same mean score.
            ([(v, (v + d) % 10) for v in range(10) for d in (1, 9)], "regimes", "--outdir", "degenerate: ties"),
            ([(0, 1), (1, 2), (2, 0)], "reciprocity", "--records", "graph has no mutual dyads"),
            ([(0, 1), (1, 0), (2, 0)], "concentration", "--records", "no vertices with out-degree >= 2"),
        ],
        ids=["regimes", "reciprocity", "concentration"],
    )
    def test_strict_escalation_writes_nothing(self, arcs, command, output, message, tmp_path, capsys):
        graph = tmp_path / "g.csv"
        save_snapshot(digraph(10, [(a, b, 1.0) for a, b in arcs]), graph)
        out = tmp_path / "out"
        assert main([command, str(graph), output, str(out), "--strict"]) == EXIT_DEGENERATE
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rewire", "regimes"])
    def test_zero_swap_multiplier_rejected(self, command, graph_file, tmp_path, capsys):
        argv = [command, str(graph_file), "--swap-multiplier", "0"]
        argv += ["-o", str(tmp_path / "rw.csv")] if command == "rewire" else ["--outdir", str(tmp_path / "reg")]
        assert main(argv) == EXIT_VALIDATION
        assert "swap multiplier must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "rw.csv").exists()
        assert not (tmp_path / "reg").exists()

    def test_rewire_that_did_nothing_saves_the_input_unless_strict(self, graph_file, tmp_path, capsys):
        # graph_file is a mutual triangle: every swap is rejected.
        out = tmp_path / "rw.csv"
        assert main(["rewire", str(graph_file), "-o", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "warning: no acceptable swap found; graph returned unchanged\n"
        assert json.loads(captured.out)["accepted_swaps"] == 0
        assert load_edge_list(out) == load_edge_list(graph_file)
        strict = tmp_path / "strict.csv"
        assert main(["rewire", str(graph_file), "-o", str(strict), "--strict"]) == EXIT_DEGENERATE
        assert capsys.readouterr().err == "error: no acceptable swap found; graph returned unchanged\n"
        assert not strict.exists()

    def test_regimes_strict_escalates_rewire_that_did_nothing(self, graph_file, tmp_path, capsys):
        # graph_file is a mutual triangle: every swap is rejected.
        outdir = tmp_path / "reg"
        code = main(["regimes", str(graph_file), "--outdir", str(outdir), "--seed", "3", "--strict"])
        assert code == EXIT_DEGENERATE
        assert "rewire with seed 3: no acceptable swap found" in capsys.readouterr().err
        assert not outdir.exists()

    def test_regimes_warns_of_rewire_that_did_nothing(self, graph_file, tmp_path, capsys):
        outdir = tmp_path / "reg"
        code = main(["regimes", str(graph_file), "--outdir", str(outdir), "--replicas", "2"])
        assert code == EXIT_OK
        err = capsys.readouterr().err
        for seed in (0, 1):
            assert f"warning: rewire with seed {seed}: no acceptable swap found; graph returned unchanged" in err
        assert (outdir / "comparison.json").exists()

    def test_regimes_builds_observed_cells_once(self, graph_file, tmp_path, capsys, monkeypatch):
        calls = Counter()
        for name in ("analyze", "equidisperse"):
            def counted(*args, _real=getattr(report, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(report, name, counted)
        argv = ["regimes", str(graph_file), "--outdir", str(tmp_path / "reg"), "--replicas", "3"]
        assert main(argv) == EXIT_OK
        # Per replica only the two rewired cells are built and analyzed.
        assert calls == {"analyze": 2 + 2 * 3, "equidisperse": 1 + 3}


#: sha256 of every file `rewire --seed 7` and `regimes --save-graphs --seed 7`
#: write for the graph in test_seeded_outputs_are_pinned. A change to these
#: bytes changes what one seed produces and must be named as such.
PINNED_SHA256 = {
    "rw.csv": "b1b80496ddee89dd6260d17fe6dbe98335e4f711a030c3d807dae0cf1aa39446",
    "rw.vertices.csv": "2944110e7129f8608b65cd66d13dba860c592967ca6afd46390e82552a26ba01",
    "comparison.json": "36d459d3c523d35f406962f83365fb24811c04d8ce45b3ef21184061c185f389",
    "observed.graph.csv": "7e300aa3917d5dca570acbcb5f6f3d8430866cf35da1b5413084979289b79cb8",
    "observed.graph.vertices.csv": "2944110e7129f8608b65cd66d13dba860c592967ca6afd46390e82552a26ba01",
    "observed.json": "3fbc99ee490ba95a07bb6bdf98fa3dd62eeaa2e5820fe5eafe1ba937bd1268ca",
    "observed_equidispersed.graph.csv": "5acda60690d0dc40631c43dedd8fc2031a1ce1d52e7d6e9cc3d6d39750564db2",
    "observed_equidispersed.graph.vertices.csv": "2944110e7129f8608b65cd66d13dba860c592967ca6afd46390e82552a26ba01",
    "observed_equidispersed.json": "b13db699a913e2736b2459fb1f07088f93f1465fc80251614d94c1c56f8aa6a4",
    "rewired.graph.csv": "519001c8a6049d4ab7df3a7b4041f81f208c36029ac62de74c1e130c7f3655f7",
    "rewired.graph.vertices.csv": "2944110e7129f8608b65cd66d13dba860c592967ca6afd46390e82552a26ba01",
    "rewired.json": "f207510b73871338670e93e0c83026cedd6040015db7c68c8f58a45d59f83817",
    "rewired_equidispersed.graph.csv": "ed81e6c73e7075b1933b6ca8585fa4801b4dcfc601c4196035db0c996c91830c",
    "rewired_equidispersed.graph.vertices.csv": "2944110e7129f8608b65cd66d13dba860c592967ca6afd46390e82552a26ba01",
    "rewired_equidispersed.json": "d572b17d8c1f54485c0685f4de3d19abb18ed47f305b21d7786c7c9d4885d369",
}
#: The same for `regimes --save-graphs --seed 7 --replicas 5`: seed 7 writes the
#: files above, seeds 8 to 11 add one comparison each, replicas.json sums up.
#: Only seed 7's graphs are kept and saved; later replicas drop theirs.
PINNED_REPLICAS_SHA256 = {
    **{name: digest for name, digest in PINNED_SHA256.items() if not name.startswith("rw")},
    "comparison.seed8.json": "9485233f38a0f5751affe3a7110d820723a63350b10ca6841852399eb66d4b53",
    "comparison.seed9.json": "e50fc6ea15b3d1059dbf586277c023840ea4e42d63c0df7a9d725aeca86d4a84",
    "comparison.seed10.json": "1dab07a1a5dad6d0b260bd097df1af8b7202a9ce5940ec31d5dfde393870167e",
    "comparison.seed11.json": "3307573ef6b121d7ab052682fab9b85e6a7c00ef62c1021187a148b6eafd39e6",
    "replicas.json": "4b9b993ef715cb697357ebc2ff07aeeb4b69a3679ee8424a9f07ec7123865282",
}


def test_seeded_outputs_are_pinned(tmp_path, capsys):
    # stdlib random only, so the input does not depend on the synthetic generator;
    # 158 mutual dyads and 63 one-way arcs, so blocked landings are exercised.
    g = random_digraph(random.Random(2011), 80, arc_fraction=0.06, mutual_bias=0.7)
    save_snapshot(g, tmp_path / "g.csv")
    (tmp_path / "rw").mkdir()
    rewire = ["rewire", str(tmp_path / "g.csv"), "-o", str(tmp_path / "rw" / "rw.csv")]
    assert main([*rewire, "--seed", "7"]) == EXIT_OK
    regimes = ["regimes", str(tmp_path / "g.csv"), "--outdir", str(tmp_path / "reg")]
    assert main([*regimes, "--seed", "7", "--save-graphs"]) == EXIT_OK
    written = [*(tmp_path / "rw").iterdir(), *(tmp_path / "reg").iterdir()]
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written} == PINNED_SHA256
    replicas = ["regimes", str(tmp_path / "g.csv"), "--outdir", str(tmp_path / "reg5")]
    assert main([*replicas, "--seed", "7", "--replicas", "5", "--save-graphs"]) == EXIT_OK
    written = (tmp_path / "reg5").iterdir()
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written} == PINNED_REPLICAS_SHA256


#: sha256 of the CSV reports `regimes --format csv --seed 7` writes for the graph
#: in test_seeded_outputs_are_pinned, and of `report --format csv` on a graph
#: with no mutual dyad.
PINNED_CSV_SHA256 = {
    "observed.csv": "3ecfaead9b56a7759e468c0fef8209938dfb27e32c2888e8fb934c6160a27980",
    "observed_equidispersed.csv": "c00b9b7886818efebbedd84d9a2eb48a6cda97fe223e791580db36b2dc9c676a",
    "rewired.csv": "5ff0726468a00b43c3433688106fd553732039eca00957079aa871ec13bca784",
    "rewired_equidispersed.csv": "e36b96a93c7ee6d2fc7a304143c9b9357d320b2d31fe4f98fb53310787cc2933",
    "one_way.report.csv": "e3ed01cd4ee3599c6257c3351011b338233977de7c60b08ff4a40c26da43bd97",
}


def test_csv_reports_are_pinned(tmp_path, capsys):
    g = random_digraph(random.Random(2011), 80, arc_fraction=0.06, mutual_bias=0.7)
    save_snapshot(g, tmp_path / "g.csv")
    regimes = ["regimes", str(tmp_path / "g.csv"), "--outdir", str(tmp_path / "reg")]
    assert main([*regimes, "--seed", "7", "--format", "csv"]) == EXIT_OK
    written = [*(tmp_path / "reg").glob("*.csv")]
    # A directed 3-cycle: no mutual dyad and no out-degree of 2, so no score, r or H* value.
    save_snapshot(digraph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]), tmp_path / "one_way.csv")
    written.append(tmp_path / "one_way.report.csv")
    assert main(["report", str(tmp_path / "one_way.csv"), "--format", "csv", "-o", str(written[-1])]) == EXIT_OK
    rows = written[-1].read_text().splitlines()
    assert {"mean_r,", "median_r,", "assortativity_r,", "assortativity_pairs,"} <= set(rows)
    assert not [row for row in rows if row.startswith("h_star_q")]
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written} == PINNED_CSV_SHA256


def test_regimes_residual_is_rewired_report_r(tmp_path, capsys):
    # One r per backbone: the rewire's residual and the rewired cell's report agree bit for bit.
    g = random_digraph(random.Random(2011), 80, arc_fraction=0.06, mutual_bias=0.7)
    save_snapshot(g, tmp_path / "g.csv")
    argv = ["regimes", str(tmp_path / "g.csv"), "--outdir", str(tmp_path / "reg"), "--seed", "7", "--replicas", "5"]
    assert main(argv) == EXIT_OK
    for path in sorted((tmp_path / "reg").glob("comparison*.json")):
        comparison = json.loads(path.read_text())
        assert comparison["rewire"]["residual_assortativity"] == comparison["reports"]["rewired"]["assortativity"]["r"]


@pytest.mark.parametrize("command", ["report", "reciprocity", "regimes"])
def test_share_that_underflows_to_zero_is_scored(command, tmp_path, capsys):
    # Every weight is finite and positive, but a's share of b, 5e-324 / 1e308, rounds to 0.0.
    (tmp_path / "g.csv").write_text("src,dst,weight\na,b,5e-324\nb,a,1\na,c,1e308\nc,a,1\n")
    argv = [command, str(tmp_path / "g.csv")]
    argv += ["--outdir", str(tmp_path / "reg")] if command == "regimes" else ["-o", str(tmp_path / "out.json")]
    assert main(argv) == EXIT_OK
    if command == "report":
        rep = json.loads((tmp_path / "out.json").read_text())
        assert rep["reciprocity"]["mean"] == pytest.approx(1453.6 / 2, abs=0.1)
        # At the default width 0.1 the score 1453.6 lists its own bin, not the 14,535 empty ones below it.
        bins = rep["histogram"]["bins"]
        assert [c for _, _, c in bins] == [1, 1]
        assert bins[0][:2] == [0.0, 0.1] and 1453 < bins[1][0] < 1454
        assert main([*argv[:2], "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out.split("\n\n")[1].splitlines()[1:] == [f"{lo!r},{hi!r},{c}" for lo, hi, c in bins]


def test_assortativity_without_mutual_dyads_is_undefined(tmp_path, capsys):
    # As in `report`, which prints "assortativity": null for this graph: a warning, not a validation error.
    path = tmp_path / "one_way.csv"
    save_snapshot(digraph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]), path)
    assert main(["assortativity", str(path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"r": None, "pair_count": 0, "arcs": "mutual"}
    assert captured.err == "warning: assortativity needs at least two endpoint pairs\n"
    assert main(["assortativity", str(path), "--strict"]) == EXIT_DEGENERATE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: assortativity needs at least two endpoint pairs\n")
    assert run_json(capsys, ["report", str(path)])[1]["assortativity"] is None


@pytest.mark.parametrize("arcs", ["mutual", "full"])
def test_undefined_assortativity_prints_its_pair_count(tmp_path, capsys, arcs):
    # The mutual triangle: 3 dyads taken both ways round, or 6 arcs, all of one degree.
    path = tmp_path / "triangle.csv"
    path.write_text("src,dst,weight\na,b,1\nb,a,1\nb,c,1\nc,b,1\na,c,1\nc,a,1\n", encoding="utf-8")
    argv = ["assortativity", str(path), "--arcs", arcs]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"r": None, "pair_count": 6, "arcs": arcs}
    assert captured.err == "warning: degree correlation undefined: zero variance in the degree sequence\n"
    assert main([*argv, "--strict"]) == EXIT_DEGENERATE


def test_library_warning_is_one_stderr_line(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("src,dst,weight\na,b,1\na,b,2\nb,a,1\n")
    assert main(["census", str(path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == f"warning: {path}: aggregated 1 duplicate arc rows\n"
    assert json.loads(captured.out)["mutual"] == 1


def test_warning_hook_keeps_the_warning_filters(graph_file, monkeypatch, capsys):
    # Printing warnings changes neither which warnings are errors nor the hook outside the command.
    real_load, hook = cli.load_edge_list, lambda *args: None
    monkeypatch.setattr(warnings, "showwarning", hook)

    def load_and_divide(*args, **kwargs):
        np.divide(np.ones(1), np.zeros(1))  # numpy's divide-by-zero RuntimeWarning
        return real_load(*args, **kwargs)

    monkeypatch.setattr(cli, "load_edge_list", load_and_divide)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            main(["census", str(graph_file)])
    monkeypatch.setattr(cli, "load_edge_list", real_load)
    assert main(["census", str(graph_file)]) == EXIT_OK
    assert warnings.showwarning is hook
    assert capsys.readouterr().err == ""


def test_printed_documents_are_the_library_values(tmp_path, capsys):
    g = random_digraph(random.Random(2011), 80, arc_fraction=0.06, mutual_bias=0.7)
    save_snapshot(g, tmp_path / "g.csv")
    for arcs in ("mutual", "full"):
        code, doc = run_json(capsys, ["assortativity", str(tmp_path / "g.csv"), "--arcs", arcs])
        assert code == EXIT_OK and doc.pop("arcs") == arcs
        assert doc == degree_assortativity(g, mutual_only=(arcs == "mutual"))
    code, doc = run_json(capsys, ["rewire", str(tmp_path / "g.csv"), "-o", str(tmp_path / "rw.csv"), "--seed", "7"])
    assert code == EXIT_OK and doc.pop("snapshot") == str(tmp_path / "rw.csv")
    rewired, stats = maslov_sneppen_rewire(g, np.random.default_rng(7))
    assert doc == stats
    assert load_edge_list(tmp_path / "rw.csv") == rewired
    events = tmp_path / "events.csv"
    events.write_text("timestamp,caller,callee\n1,a,b\n2,b,a\n3,a,a\nbad\n4,a,b\n5,c,a\n")
    code, doc = run_json(capsys, ["ingest", str(events), "-o", str(tmp_path / "i.csv")])
    ingested, accounting = aggregate_event_file(events)
    assert code == EXIT_OK and accounting == {"events_read": 6, "self_calls_dropped": 1, "malformed_lines": 1}
    assert doc == {**accounting, "vertices": 3, "arcs": 3, "snapshot": str(tmp_path / "i.csv")}
    head = dict(line[2:].split("=", 1) for line in (tmp_path / "i.csv").read_text().splitlines() if line.startswith("# "))
    assert {key: int(head[key]) for key in accounting} == accounting
    assert (ingested.vertex_count, ingested.arc_count) == (3, 3)


#: sha256 of the snapshot, sidecar and printed stats of `ingest` on the log in
#: test_ingest_output_is_pinned.
PINNED_INGEST_SHA256 = {
    "g.csv": "5150c5c345c923f488441bfe9c307449c6162efc89f897e99baa233bddffc818",
    "g.vertices.csv": "c89b5d5b378b15109e89673475cd95a0972102221cca444e63e159762da7bcd8",
    "stdout": "aea5fdf3a0d734d447f181dcf7bb2f86e5fd4e1c25ba408ee66e1b7b06af94af",
}


def test_ingest_output_is_pinned(tmp_path, capsys, monkeypatch):
    # One arc as a CRLF and an LF line, digit labels ("10" sorts before "9"),
    # non-ASCII labels, an empty timestamp, a self-call and a malformed line.
    lines = [
        "1,a,b\r\n", "2,a,b\n", "3,0,1\n", "4,1,0\n", "5,10,9\n", "6,9,10\n", "7,9,10\r\n",
        "8,ä,ö\n", "9,ö,ä\n", ",Δ,a\n", "10,b,a\n", "11,a,a\n", "12,a,b,c\n", "13,ö,0\n",
    ]
    (tmp_path / "events.csv").write_bytes(("timestamp,caller,callee\n" + "".join(lines)).encode())
    monkeypatch.chdir(tmp_path)
    assert main(["ingest", "events.csv", "-o", "g.csv"]) == EXIT_OK
    files = ("g.csv", "g.vertices.csv")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in files}
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == PINNED_INGEST_SHA256


def test_cli_import_stays_light():
    # Start-up cost: the CLI must not pull in heavy or unused modules.
    heavy = ("scipy", "networkx", "concurrent.futures")
    code = f"import sys, recipnet.cli; print([m for m in {heavy!r} if m in sys.modules])"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, "-c", code]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "g.csv", "--format", "csv"],
        ["census", "g.csv", "--seed", "1"],
        ["rewire", "g.csv", "-o", "r.csv", "--format", "csv"],
        ["ingest", "e.csv", "-o", "g.csv", "--seed", "1"],
        ["synth", "-o", "s.csv", "--vertices", "10", "--strict"],
    ],
)
def test_seed_and_format_only_where_read(argv, capsys):
    # --strict too: synth never escalates anything, so it does not take the flag.
    with pytest.raises(SystemExit):
        main(argv)
    assert "unrecognized arguments" in capsys.readouterr().err


def test_threads_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["census", str(tmp_path / "g.csv"), "--threads", "2"])
    assert "--threads" in capsys.readouterr().err
