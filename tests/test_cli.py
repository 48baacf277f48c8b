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

import pytest

from recipnet import ingest, report
from recipnet.cli import EXIT_DEGENERATE, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from recipnet.graph import GraphBuilder, WeightedDigraph
from recipnet.ingest import aggregate_event_file, load_edge_list, save_snapshot
from recipnet.metrics import classify, concentration, reciprocity_value

from conftest import random_digraph


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
    assert g.external_ids is not None and load_edge_list(path) == g
    return g, path


#: Batch sizes the records writers are run with: batches of one row, partial last batches, one batch.
RECORD_BATCHES = [1, 2, 3, 7, pytest.param(ingest._BATCH, id="default")]


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


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
        labels = g.labels()
        want = ["a,b,w_ab,w_ba,p_ab,p_ba,r_value,dyad_class"]
        for a in range(g.vertex_count):
            for b in range(a + 1, g.vertex_count):
                if g.has_arc(a, b) and g.has_arc(b, a):
                    w_ab, w_ba, s_a, s_b = g.weight(a, b), g.weight(b, a), g.out_strength(a), g.out_strength(b)
                    r = reciprocity_value(w_ab, w_ba, s_a, s_b)
                    want.append(
                        f"{labels[a]},{labels[b]},{w_ab!r},{w_ba!r},{w_ab / s_a!r},{w_ba / s_b!r},{r!r},{classify(r).value}"
                    )
        assert records.read_text().splitlines() == want
        assert payload["dyads"] == len(want) - 1 > 10

    @pytest.mark.parametrize("batch", RECORD_BATCHES)
    def test_concentration_records_rows_match_the_scalar_reference(self, capsys, labelled_graph, tmp_path, batch):
        g, path = labelled_graph
        records = tmp_path / "scores.csv"
        with mock.patch.object(ingest, "_BATCH", batch):
            code, payload = run_json(capsys, ["concentration", str(path), "--records", str(records)])
        assert code == EXIT_OK
        labels = g.labels()
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
        row = ("observed_again", False, lambda g, outcome: g)  # seed-independent: built once
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
        assert payload["schema"] == 2
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
    def test_bin_width_needing_too_many_bins_rejected(self, command, graph_file, tmp_path, capsys):
        # The top score on graph_file is ln 1.5 = 0.405, so this width needs 20,274 bins.
        argv = [command, str(graph_file), "--bin-width", "2e-5"]
        if command == "regimes":
            argv += ["--outdir", str(tmp_path / "reg")]
        if command == "reciprocity":
            argv += ["--records", str(tmp_path / "r.csv")]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "would need more than 10000 histogram bins" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "reg").exists()
        assert not (tmp_path / "r.csv").exists()

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
        save_snapshot(WeightedDigraph.from_dense_arcs(10, [(a, b, 1.0) for a, b in arcs]), graph)
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
    "comparison.json": "3861b7c231a6f61e38e81f73f76bb3c05252169e3a8a6a0fedc227c90b92ba3a",
    "observed.graph.csv": "7e300aa3917d5dca570acbcb5f6f3d8430866cf35da1b5413084979289b79cb8",
    "observed.graph.vertices.csv": "2944110e7129f8608b65cd66d13dba860c592967ca6afd46390e82552a26ba01",
    "observed.json": "11fba5480f182186458ae9a82a05addbb9dcb3d3d3bc7f0cc65896d5ceda3a3b",
    "observed_equidispersed.graph.csv": "5acda60690d0dc40631c43dedd8fc2031a1ce1d52e7d6e9cc3d6d39750564db2",
    "observed_equidispersed.graph.vertices.csv": "2944110e7129f8608b65cd66d13dba860c592967ca6afd46390e82552a26ba01",
    "observed_equidispersed.json": "f0da4050fda71f6f3371813cefc87f6796f7ca63631b19b041604e140bba448e",
    "rewired.graph.csv": "519001c8a6049d4ab7df3a7b4041f81f208c36029ac62de74c1e130c7f3655f7",
    "rewired.graph.vertices.csv": "2944110e7129f8608b65cd66d13dba860c592967ca6afd46390e82552a26ba01",
    "rewired.json": "73a672fcf19cbbf5e280ee3a1addf0725285ddb828bc471f2ebcab35238d800f",
    "rewired_equidispersed.graph.csv": "ed81e6c73e7075b1933b6ca8585fa4801b4dcfc601c4196035db0c996c91830c",
    "rewired_equidispersed.graph.vertices.csv": "2944110e7129f8608b65cd66d13dba860c592967ca6afd46390e82552a26ba01",
    "rewired_equidispersed.json": "92091a9d67fc11a8e976d466c1edf3be517ebef5d4c77635d264e6552cb10aa9",
}
#: The same for `regimes --save-graphs --seed 7 --replicas 5`: seed 7 writes the
#: files above, seeds 8 to 11 add one comparison each, replicas.json sums up.
#: Only seed 7's graphs are kept and saved; later replicas drop theirs.
PINNED_REPLICAS_SHA256 = {
    **{name: digest for name, digest in PINNED_SHA256.items() if not name.startswith("rw")},
    "comparison.seed8.json": "71ed7c41817b3d77c5af48a08dba48054ce250e6770f52cda2675665d69c68f0",
    "comparison.seed9.json": "bb46904537828cb9128d19dbb4ad555ddb854ba7db4161c92a1d6e7573c349ef",
    "comparison.seed10.json": "455f3ad3e1a28b0e69de3ba34429d60831214f68839f74e9bf348d55b87a7226",
    "comparison.seed11.json": "40c4babbd28e500aee40b9498eb1192e0f08b8007a49070c2f7ff56618e9604f",
    "replicas.json": "fc6987e061d249465c3182acf54039dacfbf9f5e68dfa77c78f672e33b6580d5",
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


def test_regimes_residual_is_rewired_report_r(tmp_path, capsys):
    # One r per backbone: the rewire's residual and the rewired cell's report agree bit for bit.
    g = random_digraph(random.Random(2011), 80, arc_fraction=0.06, mutual_bias=0.7)
    save_snapshot(g, tmp_path / "g.csv")
    argv = ["regimes", str(tmp_path / "g.csv"), "--outdir", str(tmp_path / "reg"), "--seed", "7", "--replicas", "5"]
    assert main(argv) == EXIT_OK
    for path in sorted((tmp_path / "reg").glob("comparison*.json")):
        comparison = json.loads(path.read_text())
        assert comparison["rewire"]["residual_assortativity"] == comparison["reports"]["rewired"]["assortativity"]["r"]


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
