"""Event aggregation, snapshot formats, round-trips."""

from __future__ import annotations

import bisect
import errno
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from recipnet import __version__, ingest
from recipnet.cli import EXIT_OK, EXIT_VALIDATION, main
from recipnet.errors import DomainError, FormatError
from recipnet.graph import GraphBuilder, WeightedDigraph
from recipnet.ingest import (
    aggregate_event_file,
    load_edge_list,
    save_snapshot,
    save_snapshots,
    sidecar_path,
)
from recipnet.metrics import dyad_scores
from recipnet.report import analyze

from conftest import digraph, random_digraph


def write_events(path, rows, header="timestamp,caller,callee"):
    path.write_text(header + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")


def aggregate_rows(tmp_path, rows, strict=False):
    """aggregate_event_file on a temporary events file holding ``rows``."""
    path = tmp_path / "events.csv"
    write_events(path, rows)
    return aggregate_event_file(path, strict=strict)


class TestAggregateEvents:
    def test_repeated_events_accumulate(self, tmp_path):
        g, accounting = aggregate_rows(tmp_path, ["1,a,b"] * 3)
        assert g.arc_count == 1
        assert g.weight(0, 1) == 3.0
        assert accounting["events_read"] == 3

    def test_mutual_pair(self, tmp_path):
        g, accounting = aggregate_rows(tmp_path, ["1,a,b", "2,b,a"])
        assert g.dyad_census().mutual == 1
        assert g.weight(0, 1) == 1.0
        assert g.weight(1, 0) == 1.0

    def test_self_calls_dropped_and_counted(self, tmp_path):
        g, accounting = aggregate_rows(tmp_path, ["1,a,a", "2,a,b", "3,a,a"])
        assert accounting["self_calls_dropped"] == 2
        assert accounting["events_read"] == 3
        assert g.arc_count == 1

    def test_strict_mode_aborts_on_self_call(self, tmp_path):
        with pytest.raises(FormatError):
            aggregate_rows(tmp_path, ["1,a,a"], strict=True)

    def test_order_invariant(self, tmp_path):
        rows = [f"{i},{i % 7},{(i * 3) % 5 + 7}" for i in range(50)]
        g1, _ = aggregate_rows(tmp_path, rows)
        g2, _ = aggregate_rows(tmp_path, list(reversed(rows)))
        assert g1 == g2

    def test_accounting_identity(self, tmp_path):
        g, accounting = aggregate_rows(tmp_path, ["1,a,b", "2,a,a", "3,b,a", "garbage"])
        total_weight = sum(w for _, _, w in g.arcs())
        assert accounting["malformed_lines"] == 1
        assert accounting["events_read"] == total_weight + accounting["self_calls_dropped"] + accounting["malformed_lines"]


class TestEventFiles:
    def test_file_matches_sort_and_count_oracle(self, tmp_path):
        rnd = random.Random(19)
        rows = []
        for _ in range(10_000):
            caller = f"u{rnd.randrange(60)}"
            callee = f"u{rnd.randrange(60)}"
            rows.append(f"{rnd.randrange(10 ** 6)},{caller},{callee}")
        path = tmp_path / "events.csv"
        write_events(path, rows)

        g, accounting = aggregate_event_file(path)

        # Oracle: sort the (caller, callee) pairs and group-count them.
        pairs = sorted(
            (r.split(",")[1], r.split(",")[2]) for r in rows if r.split(",")[1] != r.split(",")[2]
        )
        counted = Counter(pairs)
        oracle = GraphBuilder()
        for (caller, callee), n in counted.items():
            oracle.add_arc(caller, callee, float(n))
        assert g == oracle.build()
        assert accounting["events_read"] == 10_000

    def test_malformed_lines_counted(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events(path, ["1,a,b", "garbage", "2,,b", "3,c,d,e", "4,b,a"])
        g, accounting = aggregate_event_file(path)
        assert accounting["malformed_lines"] == 3
        assert accounting["events_read"] == 5
        assert g.arc_count == 2

    def test_strict_mode_aborts_on_malformed(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events(path, ["1,a,b", "garbage"])
        with pytest.raises(FormatError):
            aggregate_event_file(path, strict=True)

    def test_header_required(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events(path, ["1,a,b"], header="time,from,to")
        with pytest.raises(FormatError):
            aggregate_event_file(path)

    def test_fast_path_equals_event_stream_path(self, tmp_path):
        """Empty or non-numeric timestamps are ignored; self-calls are dropped."""
        path = tmp_path / "events.csv"
        write_events(path, ["1,a,b", ",b,a", "2,a,b", "3,c,c", "x,b,a"])
        g, accounting = aggregate_event_file(path)
        builder = GraphBuilder()
        builder.add_arc("a", "b", 2.0)
        builder.add_arc("b", "a", 2.0)
        assert g == builder.build()
        assert g.external_ids == ("a", "b")
        assert (accounting["events_read"], accounting["self_calls_dropped"], accounting["malformed_lines"]) == (5, 1, 0)
        assert (g.vertex_count, g.arc_count) == (2, 2)


def reference_aggregate(path, strict=False):
    """The per-line aggregation loop that aggregate_event_file replaced, kept as its oracle."""
    counts: dict[tuple[str, str], int] = {}
    with open(path, "r", encoding="utf-8", newline="") as f:
        header = f.readline().rstrip("\r\n")
        if header != "timestamp,caller,callee":
            raise FormatError(f"expected header {'timestamp,caller,callee'!r}, got {header!r}")
        read = dropped = malformed = 0
        for line in f:
            read += 1
            fields = line.rstrip("\r\n").split(",")
            if len(fields) != 3 or not fields[1] or not fields[2]:
                if strict:
                    raise FormatError(f"{path}: malformed event line {read + 1}")
                malformed += 1
                continue
            caller, callee = fields[1], fields[2]
            if caller == callee:
                if strict:
                    raise FormatError(f"{path}: self-call for id {caller!r}")
                dropped += 1
                continue
            counts[(caller, callee)] = counts.get((caller, callee), 0) + 1
    builder = GraphBuilder()
    for (caller, callee), n in counts.items():
        builder.add_arc(caller, callee, float(n))
    return builder.build(), {"events_read": read, "self_calls_dropped": dropped, "malformed_lines": malformed}


def outcome(aggregate, path, strict):
    """(graph, external ids, accounting) of a run, or the message of the FormatError it raised."""
    try:
        g, accounting = aggregate(path, strict=strict)
    except FormatError as exc:
        return str(exc)
    return g, g.external_ids, accounting


#: Chunk sizes in bytes for the readers: cuts fall inside labels, inside "é" and between "\r" and "\n".
CHUNK_SIZES = [1, 2, 3, 7, ingest._CHUNK]

# Fields of generated event lines: empty, ASCII, non-ASCII and digit labels, labels that differ only in
# their last byte past 8 bytes, and labels with NUL bytes.
event_fields = st.sampled_from(["", "a", "b", "0", "1", "10", "é", "日本", "x y", "abcdefghi1", "abcdefghi2", "a\x00", "\x00"])
event_lines = st.tuples(
    st.lists(event_fields, min_size=0, max_size=5),  # 0 fields is a blank line
    st.sampled_from(["\n", "\r\n", "\r"]),
)
# Well-formed calls and self-calls over few labels, so that tails repeat across chunks.
call_lines = st.tuples(
    st.lists(st.sampled_from(["1", "a", "b", "abcdefghi1", "abcdefghi2", "\x00"]), min_size=3, max_size=3),
    st.sampled_from(["\n", "\r\n", "\r"]),
)
event_logs = st.lists(st.one_of(event_lines, call_lines), max_size=40)


def write_event_text(tmp_path_factory, lines, cut_end, head_end):
    """An events file of generated ``lines`` after a header ending in ``head_end``; its last line break dropped if ``cut_end``."""
    text = "timestamp,caller,callee" + head_end
    text += "".join(",".join(fields) + end for fields, end in lines)
    if cut_end:
        text = text.rstrip("\r\n")
    path = tmp_path_factory.mktemp("events") / "events.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


class TestAgainstReferenceLoop:
    @given(
        event_logs,
        st.booleans(),  # drop the final line break
        st.sampled_from(["\n", "\r\n", "\r"]),  # header line break
        st.sampled_from(CHUNK_SIZES),
    )
    @example([(["1", "a", "b"], "\r")] * 4 + [(["2", "b", "a"], "\r\n")] * 4 + [(["3", "é"], "\n")], False, "\r", 2)
    @example([(["1", "a", "b"], "\r")] * 9, True, "\r\n", 2)  # no LF in the body
    @example([(["1", "a", "b"], "\n"), (["2", "a", "a"], "\r"), (["3", "b", "a"], "\r\n")] * 5, False, "\n", 2)
    @example([([], "\n")] * 2, False, "\n", 2)
    @example([([], "\n"), ([], "\n"), (["a"], "\n")], True, "\r", 2)  # the header's \r and the body's \n are one \r\n
    @example([(["1", "b", "b"], "\n"), (["2", "a", "a"], "\n")], False, "\n", ingest._CHUNK)  # the first self-call in file order
    @settings(max_examples=300, deadline=None)
    def test_equal_graph_stats_and_errors(self, tmp_path_factory, lines, cut_end, head_end, chunk):
        path = write_event_text(tmp_path_factory, lines, cut_end, head_end)
        with mock.patch.object(ingest, "_CHUNK", chunk):
            for strict in (False, True):
                want = outcome(reference_aggregate, path, strict)
                got = outcome(aggregate_event_file, path, strict)
                assert got == want

    @given(event_logs, st.sampled_from(CHUNK_SIZES))
    @settings(max_examples=50, deadline=None)
    def test_equal_when_every_label_shares_one_head(self, tmp_path_factory, lines, chunk):
        """Identity never rests on the head: with every head equal, labels are told apart by their bytes."""
        path = write_event_text(tmp_path_factory, lines, False, "\n")
        one_head = lambda keys: np.zeros(len(keys), np.uint64)  # noqa: E731
        with mock.patch.object(ingest, "_CHUNK", chunk), mock.patch.object(ingest, "_heads", one_head):
            for strict in (False, True):
                assert outcome(aggregate_event_file, path, strict) == outcome(reference_aggregate, path, strict)

    @pytest.mark.parametrize("self_call_first", [False, True])
    def test_strict_reports_first_offence_beyond_first_batch(self, tmp_path, self_call_first):
        rows = [f"{i},u{i},v{i}" for i in range(3 * ingest._BATCH)]
        first, second = ingest._BATCH + 5, 2 * ingest._BATCH + 9
        malformed, self_call = f"{first},u,v,w", f"{first},s{first},s{first}"
        rows[first], rows[second] = (self_call, "oops") if self_call_first else (malformed, "9,t,t")
        path = tmp_path / "events.csv"
        write_events(path, rows)
        want = outcome(reference_aggregate, path, True)
        assert want == (
            f"{path}: self-call for id 's{first}'"
            if self_call_first
            else f"{path}: malformed event line {first + 2}"
        )
        chunk = 1 << 14
        offset = lambda row: len("timestamp,caller,callee\n") + sum(len(r) + 1 for r in rows[:row])  # noqa: E731
        assert 0 < offset(first) // chunk < offset(second) // chunk  # each offence in a later chunk
        for size in (chunk, ingest._CHUNK):
            with mock.patch.object(ingest, "_CHUNK", size):
                assert outcome(aggregate_event_file, path, True) == want
        g, accounting = aggregate_event_file(path)
        assert (accounting["malformed_lines"], accounting["self_calls_dropped"]) == (1, 1)
        assert g.arc_count == 3 * ingest._BATCH - 2

    def test_malformed_lines_do_not_accumulate(self, tmp_path):
        def peak(n):
            path = tmp_path / f"bad{n}.csv"
            write_events(path, [f"{i},u{i},v{i},w{i}" for i in range(n)])
            tracemalloc.start()
            try:
                g, accounting = aggregate_event_file(path)
                return tracemalloc.get_traced_memory()[1], accounting, g.arc_count
            finally:
                tracemalloc.stop()

        batch = 1000
        with mock.patch.object(ingest, "_CHUNK", 1 << 14):
            small, small_accounting, _ = peak(8 * batch)
            large, large_accounting, large_arcs = peak(32 * batch)
        assert (small_accounting["malformed_lines"], large_accounting["malformed_lines"]) == (8 * batch, 32 * batch)
        assert large_arcs == 0
        assert large < 1.25 * small, f"peak {large} B for 4x the lines vs {small} B"

    def test_errors_in_a_late_chunk_start_no_process_and_leave_nothing(self, tmp_path):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        rows = [f"{i},u{i % 11},v{i % 13}" for i in range(2000)]
        good, bad, invalid = tmp_path / "good.csv", tmp_path / "bad.csv", tmp_path / "invalid.csv"
        write_events(good, rows)
        write_events(bad, rows + ["7,w,w"])
        invalid.write_bytes(good.read_bytes() + b"9,\xff,b\n")
        with mock.patch.object(ingest, "_CHUNK", 1 << 12), mock.patch.object(tempfile, "tempdir", str(scratch)):
            assert aggregate_event_file(good) == reference_aggregate(good)
            with pytest.raises(FormatError, match="self-call for id 'w'"):
                aggregate_event_file(bad, strict=True)
            with pytest.raises(UnicodeDecodeError):
                aggregate_event_file(invalid)
            assert main(["ingest", str(invalid), "-o", str(tmp_path / "g.csv")]) == EXIT_VALIDATION
        with pytest.raises(ChildProcessError):  # each count's helper process was reaped
            os.waitpid(-1, os.WNOHANG)
        assert list(scratch.iterdir()) == []
        assert not (tmp_path / "g.csv").exists()


class TestSplitCountLifeCycle:
    """An event log of two chunks or more is counted in two processes: however the count ends, it gives what one pass
    in file order gives, and no helper process outlives it."""

    ROWS = [f"{i},u{i % 11},v{i % 13}" for i in range(2000)]  # about 25 KiB: six chunks of 4 KiB
    UNDECODABLE = b"9,\xff,b\n"

    @pytest.fixture(autouse=True)
    def small_chunks(self):
        with mock.patch.object(ingest, "_CHUNK", 1 << 12):
            yield

    @staticmethod
    def counted(path, strict=False, forks=1):
        """:func:`outcome` of a count that forked ``forks`` times, checked against the oracle's; no child is left."""
        with counted_forks() as calls:
            got = outcome(aggregate_event_file, path, strict)
        assert len(calls) == forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert got == outcome(reference_aggregate, path, strict)
        return got

    def test_normal_return_reaps_the_helper(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events(path, self.ROWS)
        for strict in (False, True):
            g, _, accounting = self.counted(path, strict)
            assert (accounting["events_read"], g.arc_count) == (len(self.ROWS), 143)

    @pytest.mark.parametrize("half", ["first", "second"])
    @pytest.mark.parametrize("bad, message", [("7,w,w", "self-call for id 'w'"), ("7,w", "malformed event line {line}")])
    def test_error_in_either_half_is_the_oracles(self, tmp_path, half, bad, message):
        rows, at = list(self.ROWS), 300 if half == "first" else 1700
        rows[at] = bad
        path = tmp_path / "events.csv"
        write_events(path, rows)
        assert self.counted(path, strict=True) == f"{path}: " + message.format(line=at + 2)  # after the header line
        self.counted(path)  # dropped and counted, as one pass does

    @pytest.mark.parametrize("first, second", [("oops", "7,w,w"), ("7,w,w", "oops")])
    def test_error_in_both_halves_is_the_first(self, tmp_path, first, second):
        rows = list(self.ROWS)
        rows[200], rows[1500] = first, second
        path = tmp_path / "events.csv"
        write_events(path, rows)
        want = "malformed event line 202" if first == "oops" else "self-call for id 'w'"
        assert self.counted(path, strict=True) == f"{path}: {want}"

    @pytest.mark.parametrize("first_half", ["good", "a self-call"])
    def test_decode_error_in_the_second_half(self, tmp_path, first_half):
        rows = list(self.ROWS)
        if first_half == "a self-call":
            rows[300] = "7,w,w"
        path = tmp_path / "events.csv"
        write_events(path, rows)
        path.write_bytes(path.read_bytes() + self.UNDECODABLE + "\n".join(self.ROWS[:200]).encode())
        with pytest.raises(UnicodeDecodeError):
            reference_aggregate(path)
        for strict in (False, True):
            if strict and first_half == "a self-call":  # an error in the first half comes first
                assert self.counted(path, strict) == f"{path}: self-call for id 'w'"
                continue
            with counted_forks() as forks, pytest.raises(UnicodeDecodeError):
                aggregate_event_file(path, strict)
            assert len(forks) == 1
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("how", ["raises", "is killed"])
    def test_failed_helper_gives_the_oracles_graph(self, tmp_path, monkeypatch, how):
        parent, real = os.getpid(), ingest._event_tails

        def event_tails(*args):
            if os.getpid() != parent:
                if how == "raises":
                    raise RuntimeError("helper failed")
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(ingest, "_event_tails", event_tails)
        rows = list(self.ROWS)
        rows[1500], rows[1600] = "7,w,w", "oops"  # met again when the whole log is counted here in one pass
        path = tmp_path / "events.csv"
        write_events(path, rows)
        self.counted(path)
        assert self.counted(path, strict=True) == f"{path}: self-call for id 'w'"

    def test_failed_fork_gives_the_oracles_results(self, tmp_path):
        rows = list(self.ROWS)
        rows[1700] = "oops"  # in the second half
        path = tmp_path / "events.csv"
        write_events(path, rows)
        with mock.patch.object(os, "fork", side_effect=OSError(errno.EAGAIN, "fork failed")) as fork:
            got = [outcome(aggregate_event_file, path, strict) for strict in (False, True)]
        assert fork.call_count == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert got == [outcome(reference_aggregate, path, strict) for strict in (False, True)]
        assert got[1] == f"{path}: malformed event line 1702"

    def test_labels_new_in_the_second_half(self, tmp_path):
        late = [f"{i},late{i},u{i % 11}" for i in range(20)] + [f"{i},v{i % 13},late{i % 7}x" for i in range(30)]
        lone = [f"{i},lone{i % 3},lone{i % 3}" for i in range(30)]  # labels of self-calls only: no vertex
        path = tmp_path / "events.csv"
        write_events(path, self.ROWS + late + lone)
        g, labels, accounting = self.counted(path)
        assert {f"late{i}" for i in range(20)} | {f"late{i}x" for i in range(7)} <= set(labels)
        assert not any(label.startswith("lone") for label in labels)
        assert accounting["self_calls_dropped"] == 30

    @pytest.mark.parametrize("where", ["small file", "last line"])
    def test_no_fork_without_lines_on_both_sides_of_the_split(self, tmp_path, where):
        path = tmp_path / "events.csv"
        if where == "small file":  # less than two chunks
            write_events(path, self.ROWS[:100])
        else:  # the first line break after the middle byte ends the file
            write_events(path, self.ROWS[:9] + [f"0,{'a' * 30_000},b"])
        self.counted(path, forks=0)

    def test_no_fork_for_a_fifo(self, tmp_path):
        path, fifo = tmp_path / "events.csv", tmp_path / "events.fifo"
        write_events(path, self.ROWS)
        os.mkfifo(fifo)
        writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', str(path), str(fifo)])  # a process: no thread runs
        try:
            with counted_forks() as forks:
                got = outcome(aggregate_event_file, fifo, False)
        finally:
            writer.wait()
        assert len(forks) == 0
        assert got[0] == reference_aggregate(path)[0]

    def test_no_fork_while_another_thread_runs(self, tmp_path):
        path, stop = tmp_path / "events.csv", threading.Event()
        write_events(path, self.ROWS)
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            self.counted(path, forks=0)
        finally:
            stop.set()
            other.join()

    def test_parent_peak_is_below_the_one_pass_peak(self, tmp_path):
        """The parent's traced peak on a split log stays below a one-pass count's of the same file.

        Each half's tail table holds its own lines' distinct tails, and the
        halves' arcs are merged by a sort of each and a search of one in the
        other: the parent's peak measured 0.83 of one pass's. A merge by
        ``np.unique`` over the concatenated keys, a temporary that spans the
        union of both halves' arcs, measured 1.00.
        """
        rng = np.random.default_rng(5)
        src = rng.integers(0, 20_000, 60_000)
        dst = (src + 1 + rng.integers(0, 19_999, 60_000)) % 20_000
        path = tmp_path / "events.csv"
        write_events(path, [f"{i},u{src[j]},u{dst[j]}" for i, j in enumerate(rng.integers(0, 60_000, 100_000).tolist())])

        def peak(one_pass):
            split_point = (lambda f: None) if one_pass else ingest._split_point
            with mock.patch.object(ingest, "_CHUNK", 1 << 14), mock.patch.object(ingest, "_split_point", split_point):
                with counted_forks() as forks:
                    tracemalloc.start()
                    try:
                        g, _ = aggregate_event_file(path)
                        return tracemalloc.get_traced_memory()[1], g, len(forks)
                    finally:
                        tracemalloc.stop()

        peak(False)  # first-call allocations are not the count's
        (split, g, forks), (one_pass, want, no_forks) = peak(False), peak(True)
        assert (g, forks, no_forks) == (want, 1, 0)
        assert split < 0.92 * one_pass, f"split peak {split} B vs one pass {one_pass} B"


# One arc with all three line breaks, a malformed line, a self-call and non-ASCII labels.
PIPED_EVENTS = (
    "timestamp,caller,callee\r\n"
    + "".join(f"{i},u{i % 9},ü{i % 4}" + ("\n", "\r\n", "\r")[i % 3] for i in range(300))
    + "x,a\n7,s,s\n"
).encode("utf-8")


class TestPipeInput:
    """A pipe is read by the chunk reader of a regular file, to the same bytes."""

    def ingest_regular_file(self, tmp_path, capsys):
        (tmp_path / "events.csv").write_bytes(PIPED_EVENTS)
        assert main(["ingest", str(tmp_path / "events.csv"), "-o", str(tmp_path / "file.csv")]) == EXIT_OK
        return self.result(tmp_path / "file.csv", capsys.readouterr().out)

    @staticmethod
    def result(snapshot, stdout):
        stats = json.loads(stdout)
        del stats["snapshot"]
        return stats, snapshot.read_bytes(), ingest.sidecar_path(snapshot).read_bytes()

    def test_fifo(self, tmp_path, capsys):
        want = self.ingest_regular_file(tmp_path, capsys)
        fifo = tmp_path / "events.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(PIPED_EVENTS,))
        writer.start()
        try:
            with mock.patch.object(ingest, "_CHUNK", 7):
                assert main(["ingest", str(fifo), "-o", str(tmp_path / "fifo.csv")]) == EXIT_OK
        finally:
            writer.join()
        assert self.result(tmp_path / "fifo.csv", capsys.readouterr().out) == want

    def test_dev_stdin_of_a_subprocess(self, tmp_path, capsys):
        want = self.ingest_regular_file(tmp_path, capsys)
        code = "import sys; from recipnet import cli, ingest; ingest._CHUNK = 7; sys.exit(cli.main(sys.argv[1:]))"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-c", code, "ingest", "/dev/stdin", "-o", str(tmp_path / "stdin.csv")]
        out = subprocess.run(argv, input=PIPED_EVENTS, capture_output=True, env=env, check=True)
        assert self.result(tmp_path / "stdin.csv", out.stdout.decode()) == want


def reference_load(path, strict=False):
    """The per-line snapshot loop that load_edge_list replaced, kept as its oracle."""
    path = Path(path)
    srcs, dsts, weights = [], [], []
    blank_before = []
    inf = float("inf")
    with open(path, "r", encoding="utf-8", newline="") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.rstrip("\r\n")
            if text.startswith("#"):
                continue
            if text != "src,dst,weight":
                raise FormatError(f"expected header {'src,dst,weight'!r}, got {text!r}")
            break
        else:
            raise FormatError(f"{path}: missing header line")
        first_row = lineno + 1
        for lineno, line in enumerate(f, start=first_row):
            text = line.rstrip("\r\n")
            if not text:
                blank_before.append(len(srcs))
                continue
            fields = text.split(",")
            if len(fields) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
            src, dst, w_text = fields
            try:
                w = float(w_text)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: weight {w_text!r} is not a number") from None
            if not 0.0 < w < inf:
                kind = "non-positive" if w <= 0 else "non-finite"
                raise FormatError(f"{path}:{lineno}: {kind} weight {w}")
            if src == dst:
                raise FormatError(f"{path}:{lineno}: self-loop at {src!r}")
            srcs.append(src)
            dsts.append(dst)
            weights.append(w)

    side = sidecar_path(path)
    if side.exists():
        index = {}
        with open(side, "r", encoding="utf-8", newline="") as f:
            header = f.readline().rstrip("\r\n")
            if header != "external_id,dense_id":
                raise FormatError(f"expected header {'external_id,dense_id'!r} in {side}, got {header!r}")
            for lineno, line in enumerate(f, start=2):
                fields = line.rstrip("\r\n").split(",")
                if len(fields) != 2:
                    raise FormatError(f"{side}:{lineno}: malformed vertex line")
                label, dense_text = fields
                try:
                    dense = int(dense_text)
                except ValueError:
                    raise FormatError(f"{side}:{lineno}: dense id {dense_text!r} is not an integer") from None
                if label in index:
                    raise FormatError(f"{side}:{lineno}: duplicate external id {label!r}")
                index[label] = dense
        if sorted(index.values()) != list(range(len(index))):
            raise FormatError(f"{side}: dense ids are not contiguous 0..V-1")
        labels = sorted(index, key=index.get)
    else:
        labels = sorted({*srcs, *dsts})
        index = {label: i for i, label in enumerate(labels)}
    if any(label not in index for label in (*srcs, *dsts)):
        raise FormatError(f"{path}: arc references id missing from sidecar")
    summed = {}
    for row, key in enumerate(zip(srcs, dsts)):
        if key in summed:
            if strict:
                lineno = first_row + row + bisect.bisect_right(blank_before, row)
                raise FormatError(f"{path}:{lineno}: duplicate arc {key[0]!r} -> {key[1]!r}")
            summed[key] += weights[row]
        else:
            summed[key] = weights[row]
    if len(summed) < len(srcs):
        warnings.warn(f"{path}: aggregated {len(srcs) - len(summed)} duplicate arc rows")
    arcs = [(index[s], index[d], w) for (s, d), w in summed.items()]
    return digraph(len(labels), arcs, tuple(labels))


def reference_save(g, path, regime=None, seed=None, extra_provenance=None):
    """The per-line snapshot writer that save_snapshot replaced, kept as its oracle."""
    path = Path(path)
    labels = g.external_ids
    bad = next((s for s in labels if "," in s or "\n" in s or "\r" in s), None)
    if bad is not None:
        raise FormatError(f"vertex label {bad!r} contains a comma or line break")
    head = [f"# tool=recipnet/{__version__}"]
    if regime is not None:
        head.append(f"# regime={regime}")
    if seed is not None:
        head.append(f"# seed={seed}")
    head.extend(f"# {key}={value}" for key, value in (extra_provenance or {}).items())
    head.append("src,dst,weight")
    body = (f"{labels[src]},{labels[dst]},{w!r}\n" for src, dst, w in g.arcs())
    path.write_text("".join(line + "\n" for line in head) + "".join(body), encoding="utf-8")
    side = (f"{label},{v}\n" for v, label in enumerate(labels))
    sidecar_path(path).write_text("".join(["external_id,dense_id\n", *side]), encoding="utf-8")


def load_outcome(load, path, strict):
    """(graph, external ids, warning texts) of a load, or the message of the FormatError it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = load(path, strict=strict)
        except FormatError as exc:
            return str(exc)
    return g, g.external_ids, [str(w.message) for w in caught]


SNAPSHOT_LABELS = ["a", "b", "c", "#x", "0", "1", "2", "é", "x y"]
GOOD_WEIGHTS = ["1", "2.5", "1e-300", "1_0", " 4 ", "0.1"]
BAD_WEIGHTS = ["0", "-1", "inf", "-inf", "nan", "x", ""]
line_ends = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def snapshot_files(draw):
    """(snapshot text, sidecar text or None) covering the cases the loader must reject or repair."""
    clean = draw(st.booleans())  # only rows the loader accepts (duplicates aside)
    labels = st.sampled_from(SNAPSHOT_LABELS[: draw(st.integers(2, len(SNAPSHOT_LABELS)))])
    weights = st.sampled_from(GOOD_WEIGHTS if clean else GOOD_WEIGHTS + BAD_WEIGHTS)
    arc = st.tuples(labels, labels, weights)
    if clean:
        arc = arc.filter(lambda row: row[0] != row[1])
    if clean:
        other = st.sampled_from(["", "#x,a,1"])
    else:  # numeric fields, so rows of 2 and 4 fields could pass for two of 3 if misread
        fields = st.lists(st.sampled_from(["0", "1", "2", "a", "2.5", ""]), min_size=1, max_size=5)
        other = st.one_of(st.sampled_from(["", "#note"]), fields.map(",".join))
    rows = draw(st.lists(st.tuples(st.one_of(arc.map(",".join), other), line_ends), max_size=30))
    head = draw(st.lists(st.sampled_from(["# tool=recipnet/0", "# seed=3", "#"]), max_size=2))
    text = "".join(h + draw(line_ends) for h in head) + "src,dst,weight" + draw(line_ends)
    text += "".join(row + end for row, end in rows)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    sidecar = draw(st.sampled_from([None, "all", "some", "bad"]))
    if sidecar is None:
        return text, None
    table = draw(st.permutations(SNAPSHOT_LABELS))
    if sidecar == "some":  # arcs may reference ids the sidecar lacks
        table = table[: draw(st.integers(0, len(table)))]
    lines = [f"{label},{i}" for i, label in enumerate(table)]
    if sidecar == "bad":  # rows of 3 and 1 fields could pass for two of 2 if misread
        for bad in draw(st.lists(st.sampled_from(["a,x", "a", "a,0", "z,99", "b,1,0", "1"]), min_size=1, max_size=2)):
            lines.insert(draw(st.integers(0, len(lines))), bad)
    return text, "external_id,dense_id" + "".join(draw(line_ends) + line for line in lines) + "\n"


@st.composite
def labelled_events(draw):
    """(caller, callee, line break) events over digit labels ("0".."V-1", "10" after "9") or non-ASCII ones."""
    digits = list(map(str, range(draw(st.integers(2, 12)))))
    pool = draw(st.sampled_from([digits, [*digits, "é", "日本"], ["9", "10", "ä", "x"]]))
    pair = st.tuples(st.sampled_from(pool), st.sampled_from(pool)).filter(lambda p: p[0] != p[1])
    return [(*p, end) for p, end in draw(st.lists(st.tuples(pair, st.sampled_from(["\n", "\r\n"])), max_size=30))]


class TestLabelPathsAgree:
    @given(labelled_events())
    @example([("0", "1", "\n"), ("1", "0", "\r\n"), ("1", "2", "\n"), ("1", "2", "\r\n")])
    @settings(max_examples=200, deadline=None)
    def test_ingest_load_and_builder_give_one_graph(self, tmp_path_factory, events):
        out = tmp_path_factory.mktemp("paths")
        log = "timestamp,caller,callee\n" + "".join(f"{i},{a},{b}{end}" for i, (a, b, end) in enumerate(events))
        (out / "events.csv").write_bytes(log.encode("utf-8"))
        ingested, _ = aggregate_event_file(out / "events.csv")
        snapshot = "src,dst,weight\n" + "".join(f"{a},{b},1{end}" for a, b, end in events)
        (out / "graph.csv").write_bytes(snapshot.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # repeated rows aggregate with a warning
            loaded = load_edge_list(out / "graph.csv")
        builder = GraphBuilder()
        for a, b, _ in events:
            builder.add_arc(a, b)
        built = builder.build()
        assert ingested == loaded == built
        want = tuple(sorted({label for a, b, _ in events for label in (a, b)}))  # the rule, not sorted_order
        assert ingested.external_ids == loaded.external_ids == built.external_ids == want


class TestSnapshots:
    def test_documented_example(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("src,dst,weight\n1,2,6\n2,1,4\n", encoding="utf-8")
        g = load_edge_list(path)
        _, _, w_ab, w_ba = dyad_scores(g)[:4]
        assert (w_ab.tolist(), w_ba.tolist()) == ([6.0], [4.0])

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("src,dst,weight\n", encoding="utf-8")
        g = load_edge_list(path)
        assert g.vertex_count == 0
        assert g.arc_count == 0

    def test_round_trip_fuzz(self, tmp_path):
        rnd = random.Random(23)
        for i in range(100):
            g = random_digraph(rnd, rnd.randint(2, 25), arc_fraction=rnd.uniform(0.02, 0.3))
            path = tmp_path / f"g{i}.csv"
            save_snapshot(g, path)
            assert load_edge_list(path) == g

    def test_round_trip_preserves_external_ids(self, tmp_path):
        b = GraphBuilder()
        b.add_arc("alice", "bob", 2.5)
        b.add_arc("bob", "alice", 1.0)
        b.add_vertex("mallory")  # isolated vertex survives via the sidecar
        g = b.build()
        path = tmp_path / "graph.csv"
        save_snapshot(g, path)
        loaded = load_edge_list(path)
        assert loaded == g
        assert loaded.vertex_count == 3
        assert loaded.external_label(2) == "mallory"

    def test_save_writes_exact_text_across_batches(self, tmp_path):
        v = 100
        arcs = [(a, b, (a * v + b + 1) / 7) for a in range(v) for b in range(v) if a != b]
        assert len(arcs) > ingest._BATCH
        labels = tuple(f"v{i}" for i in range(v))
        g = digraph(v, arcs, labels)
        path = tmp_path / "graph.csv"
        save_snapshot(g, path, regime="rewired", seed=3, extra_provenance={"accepted_swaps": 9})
        head = f"# tool=recipnet/{__version__}\n# regime=rewired\n# seed=3\n# accepted_swaps=9\n"
        body = "".join(f"v{a},v{b},{w!r}\n" for a, b, w in arcs)
        assert path.read_text(encoding="utf-8") == head + "src,dst,weight\n" + body
        side = "".join(f"v{i},{i}\n" for i in range(v))
        assert sidecar_path(path).read_text(encoding="utf-8") == "external_id,dense_id\n" + side
        assert load_edge_list(path) == g

    def test_provenance_header_ignored(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text(
            "# tool=recipnet/0.0\n# regime=rewired\n# seed=7\nsrc,dst,weight\na,b,1.5\n",
            encoding="utf-8",
        )
        g = load_edge_list(path)
        assert g.arc_count == 1
        assert g.weight(0, 1) == 1.5

    def test_duplicate_rows_aggregate_with_warning(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("src,dst,weight\na,b,1\na,b,2\n", encoding="utf-8")
        with pytest.warns(UserWarning):
            g = load_edge_list(path)
        assert g.weight(0, 1) == 3.0
        with pytest.raises(FormatError):
            load_edge_list(path, strict=True)

    def test_non_positive_weight_rejected(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("src,dst,weight\na,b,0\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_edge_list(path)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("source,target,w\na,b,1\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_edge_list(path)

    @pytest.mark.parametrize("text", ["", "# tool=recipnet/0.0\n# seed=1\n"], ids=["empty", "provenance_only"])
    def test_snapshot_without_header_line_is_validation_error(self, tmp_path, capsys, text):
        path = tmp_path / "graph.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["census", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {path}: missing header line\n"

    def test_sidecar_header_mismatch_names_the_sidecar(self, tmp_path, capsys):
        path = tmp_path / "graph.csv"
        path.write_text("src,dst,weight\na,b,1\n", encoding="utf-8")
        side = sidecar_path(path)
        side.write_text("label,id\na,0\nb,1\n", encoding="utf-8")
        assert main(["census", str(path)]) == EXIT_VALIDATION
        want = f"error: expected header 'external_id,dense_id' in {side}, got 'label,id'\n"
        assert capsys.readouterr().err == want

    def test_sidecar_must_be_contiguous(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("src,dst,weight\na,b,1\n", encoding="utf-8")
        sidecar_path(path).write_text("external_id,dense_id\na,0\nb,2\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_edge_list(path)

    def test_fractional_weights_survive(self, tmp_path):
        g = GraphBuilder()
        g.add_arc(0, 1, 1 / 3)
        g.add_arc(1, 0, 2.5e-7)
        graph = g.build()
        path = tmp_path / "graph.csv"
        save_snapshot(graph, path)
        loaded = load_edge_list(path)
        assert loaded.weight(0, 1) == graph.weight(0, 1)
        assert loaded.weight(1, 0) == graph.weight(1, 0)


def splits(data, chunk):
    """Whether a load parses the snapshot bytes ``data``, read ``chunk`` bytes at a time, in two processes: when they
    are at least two chunks long, a line starts after the first ``\\n`` from the middle byte on, and the header is
    among the lines before it."""
    cut = data.find(b"\n", len(data) // 2) + 1
    if len(data) < 2 * chunk or cut in (0, len(data)):
        return False
    return next((line for line in data[:cut].splitlines() if not line.startswith(b"#")), None) == b"src,dst,weight"


@contextmanager
def counted_forks():
    """The calls of ``os.fork`` in the block, counted by a pass-through wrapper."""
    calls, real = [], os.fork

    def fork():
        calls.append(1)
        return real()

    with mock.patch.object(os, "fork", fork):
        yield calls


class TestLoadAgainstReferenceLoop:
    @given(snapshot_files(), st.sampled_from(CHUNK_SIZES))
    @settings(max_examples=400, deadline=None)
    def test_equal_graph_warnings_and_errors(self, tmp_path_factory, files, chunk):
        text, sidecar = files
        path = tmp_path_factory.mktemp("snapshot") / "graph.csv"
        path.write_bytes(text.encode("utf-8"))
        if sidecar is not None:
            sidecar_path(path).write_bytes(sidecar.encode("utf-8"))
        for strict in (False, True):
            with mock.patch.object(ingest, "_CHUNK", chunk), counted_forks() as forks:
                assert load_outcome(load_edge_list, path, strict) == load_outcome(reference_load, path, strict)
            assert len(forks) == splits(path.read_bytes(), chunk)

    def test_rows_of_four_and_two_fields_are_not_read_as_two_arcs(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("src,dst,weight\n0,1,2,1\n2,1\n", encoding="utf-8")
        want = f"{path}:2: expected 3 fields, got 4"
        assert load_outcome(reference_load, path, False) == want
        assert load_outcome(load_edge_list, path, False) == want

    def test_sidecar_rows_of_three_and_one_fields_are_not_read_as_two(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("src,dst,weight\na,b,1\n", encoding="utf-8")
        sidecar_path(path).write_text("external_id,dense_id\na,0\nb,1,2\n3\n", encoding="utf-8")
        want = f"{sidecar_path(path)}:3: malformed vertex line"
        assert load_outcome(reference_load, path, False) == want
        assert load_outcome(load_edge_list, path, False) == want

    @pytest.mark.parametrize(
        "rows, bad",
        [
            (["a,0", "b,1", "c,2", "d,3", "e,4", "b,5"], "7: duplicate external id 'b'"),
            (["a,0", "b,1", "c,2", "d,3", "e,4", "f,x", "a,6"], "7: dense id 'x' is not an integer"),
            (["a,0", "b,1", "c,2", "d,3", "e,4", "f,6"], None),
            (["a,0", "b,1", "c,2", "d,3", "e,4", f"f,{2**64}"], None),  # an id past int64
        ],
        ids=["duplicate-of-an-earlier-batch", "non-integer-in-a-later-batch", "non-contiguous", "past-int64"],
    )
    def test_sidecar_errors_beyond_the_first_batch(self, tmp_path, rows, bad):
        path = tmp_path / "graph.csv"
        path.write_text("src,dst,weight\na,b,1\n", encoding="utf-8")
        side = sidecar_path(path)
        side.write_text("external_id,dense_id\n" + "".join(row + "\n" for row in rows), encoding="utf-8")
        want = f"{side}:{bad}" if bad else f"{side}: dense ids are not contiguous 0..V-1"
        assert load_outcome(reference_load, path, False) == want
        for chunk in [*CHUNK_SIZES, 16]:  # 16 bytes: lines 2-5, then 6 onwards
            with mock.patch.object(ingest, "_CHUNK", chunk):
                assert load_outcome(load_edge_list, path, False) == want

    @pytest.mark.parametrize("with_sidecar", [False, True])
    def test_labels_are_told_apart_by_every_byte(self, tmp_path, with_sidecar):
        # Labels of one length that differ only in their last byte (also past a shared 8-byte head),
        # multibyte labels, and labels with an embedded or a trailing NUL byte, which fixed-width byte
        # strings drop from their ends.
        labels = ["ab", "ac", "a", "", "a\x00", "\x00a", "\x00", "ab\x00", "a\x00b", "é", "e\u0301", "日本", "日木"]
        labels += ["abcdefgh", "abcdefgh1", "abcdefgh2", "abcdefghé", "abcdefgh\x00"]
        rows = [f"{a},{b},{i + 1}" for i, (a, b) in enumerate(zip(labels, labels[1:] + labels[:1]))]
        rows += [f"{b},{a},0.5" for a, b in zip(labels[::2], labels[1::2])]
        path = tmp_path / "graph.csv"
        path.write_text("src,dst,weight\n" + "".join(row + "\n" for row in rows), encoding="utf-8")
        if with_sidecar:  # ids in no label order
            side = "".join(f"{label},{i}\n" for i, label in enumerate(reversed(labels)))
            sidecar_path(path).write_text("external_id,dense_id\n" + side, encoding="utf-8")
        want = load_outcome(reference_load, path, False)
        assert sorted(want[0].external_ids) == sorted(labels)
        for chunk in CHUNK_SIZES:
            with mock.patch.object(ingest, "_CHUNK", chunk):
                assert load_outcome(load_edge_list, path, False) == want

    def test_sidecar_memory_per_label_stays_near_the_mapping(self, tmp_path):
        """The sidecar is read one chunk of bytes at a time: peak memory grows by the label table alone.

        At the peak a label costs about 66 bytes: its bytes, head and id in
        the table, and the copies a chunk's new labels are inserted by. A
        dict from label texts to dense ids, read in batches of lines, cost
        about 120; reading the file whole about 310. The bound leaves 14
        bytes of margin.
        """

        def peak(n):
            side = tmp_path / f"g{n}.vertices.csv"
            side.write_text("external_id,dense_id\n" + "".join(f"label{i:07d},{i}\n" for i in range(n)))
            tracemalloc.start()
            try:
                assert len(ingest._load_sidecar(side)) == n
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with mock.patch.object(ingest, "_CHUNK", 1 << 14):
            small, large = peak(20_000), peak(80_000)
        per_label = (large - small) / 60_000
        assert per_label < 80, f"{per_label:.0f} B of peak memory per extra label"

    def test_load_memory_per_arc_stays_near_the_arrays(self, tmp_path):
        """No per-arc text is kept: peak memory grows by the arc arrays alone.

        At the peak an arc costs about 51 bytes: the three columns, each grown
        in place chunk by chunk, and beside them the graph's sort (sort keys
        and order, the gathered columns), which is also the duplicate check.
        Joining the three columns at once and keeping a second duplicate
        check's sort through the graph's build cost about 76;
        keeping a Python string per label occurrence, as the per-line loop
        did, about 260.
        """
        v = 400
        pairs = [(a, b) for a in range(v) for b in range(v) if a != b]

        def peak(n):
            path = tmp_path / f"g{n}.csv"
            path.write_text("src,dst,weight\n" + "".join(f"u{a},u{b},1.5\n" for a, b in pairs[:n]))
            tracemalloc.start()
            try:
                assert load_edge_list(path).arc_count == n
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with mock.patch.object(ingest, "_CHUNK", 1 << 14):
            small, large = peak(20_000), peak(80_000)
        per_arc = (large - small) / 60_000
        assert per_arc < 60, f"{per_arc:.0f} B of peak memory per extra arc"

    def test_analyze_memory_per_arc_stays_near_the_reverse_index(self):
        """Past the built graph, ``analyze`` holds its reverse-arc index and little more.

        Each vertex has six or seven out-arcs, two thirds of them mutual,
        about as in the ``report`` benchmark graph. At the peak an arc costs
        about 17 bytes: the 8-byte reverse index beside per-dyad columns,
        the backbone's ends and their degrees in the assortativity, or the
        scores and their bin indices or classes in the histogram. With whole-graph
        temporaries in the passes (the reversed keys and their argsort, all
        eight score columns, a column of squared shares) it cost about 36.
        """

        def peak(v):
            tail, every_fourth = np.arange(v), np.arange(0, v, 4)
            offsets = np.array([-2, -1, 1, 2, 5, 7])  # 5 and 7 have no arc back
            src = np.concatenate((np.repeat(tail, 6), every_fourth, every_fourth + 3))
            dst = np.concatenate(((tail[:, None] + offsets).ravel() % v, every_fourth + 3, every_fourth))
            weights = np.random.default_rng(v).random(len(src)) + 0.5
            g = WeightedDigraph.from_columns(v, src, dst, weights, tuple(f"u{i}" for i in range(v)))
            del src, dst, weights
            tracemalloc.start()
            try:
                doc = analyze(g)
                assert doc["census"]["mutual"] == 2 * v + v // 4 and doc["assortativity"] is not None
                return tracemalloc.get_traced_memory()[1], g.arc_count
            finally:
                tracemalloc.stop()

        peak(1000)  # first-call allocations are not per arc
        (small, small_arcs), (large, large_arcs) = peak(25_000), peak(75_000)
        per_arc = (large - small) / (large_arcs - small_arcs)
        assert per_arc < 25, f"{per_arc:.1f} B of peak memory per extra arc"

    def test_strict_duplicate_beyond_first_batch_reports_its_line(self, tmp_path):
        batch = 64
        rows = [f"u{i},v{i},1" for i in range(3 * batch)]
        rows[2 * batch + 5] = "u7,v7,2"  # repeats row 7
        rows.insert(batch + 3, "")  # a blank line shifts every later line number
        path = tmp_path / "graph.csv"
        path.write_text("# seed=1\nsrc,dst,weight\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
        want = f"{path}:{2 * batch + 5 + 4}: duplicate arc 'u7' -> 'v7'"
        assert load_outcome(reference_load, path, True) == want
        for chunk in [*CHUNK_SIZES, 256]:  # 256 bytes: the repeat is in a later chunk than the row it repeats
            with mock.patch.object(ingest, "_CHUNK", chunk):
                assert load_outcome(load_edge_list, path, True) == want
                g, _, caught = load_outcome(load_edge_list, path, False)
            assert caught == [f"{path}: aggregated 1 duplicate arc rows"]
            assert g.arc_count == 3 * batch - 1


class TestSplitLoadLifeCycle:
    """A snapshot of two chunks or more is parsed in two processes: however the load ends, it gives what one pass in
    file order gives, and no helper process outlives it."""

    ROWS = [f"u{i % 37},v{i % 41},{i + 0.5}" for i in range(1500)]  # about 25 KiB: six chunks of 4 KiB

    @pytest.fixture(autouse=True)
    def small_chunks(self):
        with mock.patch.object(ingest, "_CHUNK", 1 << 12):
            yield

    @staticmethod
    def write(path, rows, sidecar=None):
        path.write_text("# seed=1\nsrc,dst,weight\n" + "".join(row + "\n" for row in rows), encoding="utf-8")
        if sidecar is not None:
            sidecar_path(path).write_text("external_id,dense_id\n" + "".join(f"{label},{i}\n" for i, label in enumerate(sidecar)))
        return path

    @staticmethod
    def loaded(path, strict=False):
        """:func:`load_outcome` of a load that forked once, checked against the oracle; no child is left."""
        with counted_forks() as forks:
            got = load_outcome(load_edge_list, path, strict)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert got == load_outcome(reference_load, path, strict)
        return got

    def test_normal_return_reaps_the_helper(self, tmp_path):
        g, _, caught = self.loaded(self.write(tmp_path / "g.csv", self.ROWS))
        assert (g.arc_count, caught) == (len(self.ROWS), [])

    @pytest.mark.parametrize("half", ["first", "second"])
    def test_error_in_either_half_is_the_oracles(self, tmp_path, half):
        rows = list(self.ROWS)
        rows[300 if half == "first" else 1200] = "w,w,1"  # a self-loop
        rows[100:100] = rows[1000:1000] = [""]  # a blank line in each half shifts the later line numbers
        got = self.loaded(self.write(tmp_path / "g.csv", rows))
        assert got == f"{tmp_path / 'g.csv'}:{rows.index('w,w,1') + 3}: self-loop at 'w'"  # after two head lines

    def test_error_in_both_halves_is_the_first(self, tmp_path):
        rows = list(self.ROWS)
        rows[200], rows[1200] = "a,b,-1", "w,w,1"
        assert self.loaded(self.write(tmp_path / "g.csv", rows)) == f"{tmp_path / 'g.csv'}:203: non-positive weight -1.0"

    def test_strict_duplicate_across_the_halves(self, tmp_path):
        rows = list(self.ROWS)
        rows[1400] = rows[10]
        rows[700:700] = [""]
        path = self.write(tmp_path / "g.csv", rows)
        assert self.loaded(path, strict=True) == f"{path}:{1401 + 3}: duplicate arc 'u10' -> 'v10'"
        assert self.loaded(path)[2] == [f"{path}: aggregated 1 duplicate arc rows"]

    @pytest.mark.parametrize("how", ["raises", "is killed"])
    def test_failed_helper_gives_the_oracles_graph(self, tmp_path, monkeypatch, how):
        parent, real = os.getpid(), ingest._field_bounds

        def field_bounds(*args):
            if os.getpid() != parent:
                if how == "raises":
                    raise RuntimeError("helper failed")
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(ingest, "_field_bounds", field_bounds)
        path = self.write(tmp_path / "g.csv", self.ROWS)
        assert self.loaded(path)[0].content_digest() == reference_load(path).content_digest()

    def test_failed_fork_gives_the_oracles_results(self, tmp_path):
        rows = list(self.ROWS)
        rows[1400] = rows[10]  # a duplicate in the second half
        rows[100:100] = [""]  # a blank line in the first half shifts the later line numbers
        duplicate = self.write(tmp_path / "g.csv", rows)
        rows[1300] = "w,w,1"  # a self-loop in the second half
        self_loop = self.write(tmp_path / "h.csv", rows)
        runs = [(duplicate, False), (duplicate, True), (self_loop, False)]
        with mock.patch.object(os, "fork", side_effect=OSError(errno.EAGAIN, "fork failed")) as fork:
            got = [load_outcome(load_edge_list, path, strict) for path, strict in runs]
        assert fork.call_count == len(runs)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert got == [load_outcome(reference_load, path, strict) for path, strict in runs]
        assert got[1:] == [f"{duplicate}:{1401 + 3}: duplicate arc 'u10' -> 'v10'", f"{self_loop}:{1300 + 3}: self-loop at 'w'"]

    @pytest.mark.parametrize("sidecar", ["none", "complete", "missing the new labels"])
    def test_labels_new_in_the_second_half(self, tmp_path, sidecar):
        rows = self.ROWS + [f"late{i},u{i % 37},1" for i in range(20)] + [f"v{i},late{i % 7}x,2" for i in range(30)]
        late = [f"late{i}" for i in range(20)] + [f"late{i}x" for i in range(7)]
        labels = [f"u{i}" for i in range(37)] + [f"v{i}" for i in range(41)]
        table = {"none": None, "complete": labels[::-1] + late, "missing the new labels": labels}[sidecar]
        got = self.loaded(self.write(tmp_path / "g.csv", rows, table))
        if sidecar == "missing the new labels":
            assert got == f"{tmp_path / 'g.csv'}: arc references id missing from sidecar"
        else:
            assert sorted(got[0].external_ids) == sorted(labels + late)

    @pytest.mark.parametrize("where", ["provenance", "last line"])
    def test_no_fork_without_arc_lines_on_both_sides_of_the_split(self, tmp_path, where):
        path = tmp_path / "g.csv"
        if where == "provenance":  # the lines before the split hold no header
            path.write_text("".join(f"# note={i}\n" for i in range(2000)) + "src,dst,weight\n" + "".join(r + "\n" for r in self.ROWS[:9]))
        else:  # the first line break after the middle byte ends the file
            path.write_text("src,dst,weight\n" + "".join(r + "\n" for r in self.ROWS[:9]) + f"{'a' * 30_000},b,1\n")
        with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
            assert load_outcome(load_edge_list, path, False) == load_outcome(reference_load, path, False)

    def test_no_fork_while_another_thread_runs(self, tmp_path):
        path, stop = self.write(tmp_path / "g.csv", self.ROWS), threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
                got = load_outcome(load_edge_list, path, False)
        finally:
            stop.set()
            other.join()
        assert got == load_outcome(reference_load, path, False)

    def test_split_load_warns_nothing(self, tmp_path):
        path = self.write(tmp_path / "g.csv", self.ROWS)
        with warnings.catch_warnings(), counted_forks() as forks:
            warnings.simplefilter("error")
            load_edge_list(path)
        assert len(forks) == 1


class TestSnapshotThroughPipe:
    """The loader reads its input once, so a snapshot and sidecar fed through FIFOs load as the same files do."""

    @pytest.mark.parametrize("with_sidecar", [True, False])
    def test_fifo_loads_equal_to_the_file(self, tmp_path, with_sidecar):
        b = GraphBuilder()
        for i in range(40):
            b.add_arc(f"v{i}", f"v{(i * 7 + 3) % 40}", i + 0.5)
        b.add_vertex("isolated")  # kept by the sidecar alone
        files, pipes = tmp_path / "files", tmp_path / "pipes"
        files.mkdir()
        pipes.mkdir()
        save_snapshot(b.build(), files / "g.csv")
        if not with_sidecar:
            sidecar_path(files / "g.csv").unlink()
        writers = []
        for file in sorted(files.iterdir()):
            os.mkfifo(pipes / file.name)
            writers.append(threading.Thread(target=(pipes / file.name).write_bytes, args=(file.read_bytes(),), daemon=True))
            writers[-1].start()
        # A loader that opened a FIFO a second time would wait for a writer: the subprocess's timeout ends it.
        # A FIFO is read in one pass, however many chunks it holds: a fork fails the subprocess.
        code = "import os, sys; from recipnet import ingest; ingest._CHUNK = 7; os.fork = lambda: sys.exit('forked'); "
        code += "print(ingest.load_edge_list(sys.argv[1]).content_digest())"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code, str(pipes / "g.csv")], capture_output=True, env=env, timeout=60)
        for writer in writers:
            writer.join(timeout=10)
        assert out.returncode == 0, out.stderr.decode()
        assert not any(writer.is_alive() for writer in writers), "a FIFO was not read to its end"
        want = load_edge_list(files / "g.csv")
        assert out.stdout.decode().strip() == want.content_digest()
        assert ("isolated" in want.external_ids) == with_sidecar


#: Floats whose repr takes each form: subnormal, exponent, long fraction, integral.
REPR_EDGE_WEIGHTS = [5e-324, 1e-05, 0.30000000000000004, 1e16, 1e15, 3.0, 1.7976931348623157e308]
WRITER_LABELS = ["#x", "#", "é", "日本", "0", "1", "12", "007", "a", "x y"]


@st.composite
def writable_graphs(draw):
    """Graphs with writable labels (or none), isolated vertices and weights repeated within and across batches."""
    v = draw(st.integers(0, 8))
    labels = None if draw(st.booleans()) else tuple(draw(st.permutations(WRITER_LABELS))[:v])
    if labels is not None and len(labels) < v:  # more vertices than the pool: fall back to digit labels
        labels = None
    pairs = [(a, b) for a in range(v) for b in range(v) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    pool = draw(st.lists(st.sampled_from(REPR_EDGE_WEIGHTS) | st.floats(5e-324, 1e308), min_size=1, max_size=4))
    weights = [draw(st.sampled_from(pool)) for _ in chosen]  # a small pool repeats weights
    try:
        return digraph(v, [(a, b, w) for (a, b), w in zip(chosen, weights)], labels)
    except DomainError:  # a vertex's strength is not finite: no graph holds it
        reject()


class TestSaveAgainstReferenceWriter:
    @given(
        writable_graphs(),
        st.sampled_from([1, 2, 3, 7, ingest._BATCH]),
        st.sampled_from([(None, None, None), ("rewired", 3, {"accepted_swaps": 9})]),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_snapshot_and_sidecar_bytes(self, tmp_path_factory, g, batch, provenance):
        out = tmp_path_factory.mktemp("save")
        with mock.patch.object(ingest, "_BATCH", batch):
            save_snapshot(g, out / "new.csv", *provenance)
        reference_save(g, out / "ref.csv", *provenance)
        for new, ref in ((out / "new.csv", out / "ref.csv"), (out / "new.vertices.csv", out / "ref.vertices.csv")):
            assert new.read_bytes() == ref.read_bytes(), new.name

    def test_repr_edge_weights_within_and_across_batches(self, tmp_path):
        v = 6
        pairs = [(a, b) for a in range(v) for b in range(v) if a != b]
        weights = REPR_EDGE_WEIGHTS * 3  # period 7 in batches of 8: repeats within and across batches
        arcs = [(a, b, w) for (a, b), w in zip(pairs, weights)]
        g = digraph(v, arcs, tuple(WRITER_LABELS[:v]))
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        with mock.patch.object(ingest, "_BATCH", 8):
            save_snapshot(g, new)
        reference_save(g, ref)
        assert new.read_bytes() == ref.read_bytes()
        assert sidecar_path(new).read_bytes() == sidecar_path(ref).read_bytes()
        spelled = ["5e-324", "1e-05", "0.30000000000000004", "1e+16", "1000000000000000.0", "3.0",
                   "1.7976931348623157e+308"]
        texts = [line.rsplit(",", 1)[1] for line in new.read_text(encoding="utf-8").splitlines()[2:]]
        assert texts == spelled * 3
        assert load_edge_list(new) == g

    def test_write_csv_numbers_are_per_row_reprs(self, tmp_path):
        """Numbers repeated within and across batches, -0.0 beside 0.0 and int64 values each read as their row's repr."""
        x = np.array([0.0, -0.0, 1.5, -0.0, 0.0, 1.5, 0.1 + 0.2, 1.5, -0.0, 0.0, 5e-324])
        k = np.array([3, -1, 3, 0, 2**62, 3, -1, 0, 7, 3, -(2**63)], dtype=np.int64)
        names = np.array([f"v{i}" for i in range(len(x))], dtype=object)
        path = tmp_path / "rows.csv"
        for order in ((names, x, k), (x, k, names)):  # an object column first and last
            with mock.patch.object(ingest, "_BATCH", 4):
                ingest.write_csvs([([path], "head\n", len(x), lambda lo, hi: [col[lo:hi] for col in order])])
            rows = zip(*(col.tolist() for col in order))
            want = "head\n" + "".join(",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n" for row in rows)
            assert path.read_text(encoding="utf-8") == want
        assert [line.split(",")[0] for line in want.splitlines()[1:6]] == ["0.0", "-0.0", "1.5", "-0.0", "0.0"]

    def test_save_memory_does_not_grow_per_arc(self, tmp_path):
        """No per-arc Python object outlives its batch: the save's peak does not grow with the arcs.

        The per-line writer held whole-graph lists of sources, targets and
        weights: about 60 bytes per extra arc here. The bound holds for one
        graph and for a four-graph call, two topologies with two weightings
        each, as ``regimes --save-graphs`` writes them.
        """
        v = 400
        pairs = np.array([(a, b) for a in range(v) for b in range(v) if a != b])
        weights = np.arange(1, len(pairs) + 1) / 7  # every weight distinct: the most repr texts

        def peak(n, cells):
            labels = tuple(f"u{i}" for i in range(v))
            g = WeightedDigraph.from_columns(v, pairs[:n, 0], pairs[:n, 1], weights[:n], labels)
            turned = WeightedDigraph.from_columns(v, pairs[:n, 1], pairs[:n, 0], weights[:n][::-1], labels)
            graphs = [g, turned, g._reweighted(weights[:n] * 3), turned._reweighted(weights[:n] / 3)][:cells]
            tracemalloc.start()
            try:
                save_snapshots([(graph, tmp_path / f"g{n}_{k}.csv", {}) for k, graph in enumerate(graphs)])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for cells in (1, 4):
            with mock.patch.object(ingest, "_BATCH", 1000):
                small, large = peak(20_000, cells), peak(80_000, cells)
            per_arc = (large - small) / 60_000
            assert per_arc < 8, f"{per_arc:.1f} B of peak memory per extra arc with {cells} graphs"


@st.composite
def snapshot_groups(draw):
    """1-4 graphs sharing, or not, their row bounds, targets, label tuples and weights with a first graph.

    Beside the first graph itself: its topology with other (often repeated)
    weights; equal arrays and labels rebuilt as new objects; its row bounds
    with other targets; its topology with other labels; an unrelated graph.
    """
    base = draw(writable_graphs())
    v, arcs = base.vertex_count, list(base.arcs())
    pool = [w for _, _, w in arcs] + REPR_EDGE_WEIGHTS
    graphs = []
    for kind in draw(st.lists(st.sampled_from(["same", "reweighted", "rebuilt", "retargeted", "relabelled", "other"]), min_size=1, max_size=4)):
        if kind == "same":
            graphs.append(base)
        elif kind == "reweighted":
            try:
                graphs.append(base._reweighted(np.array([draw(st.sampled_from(pool)) for _ in arcs], dtype=np.float64)))
            except DomainError:  # a vertex's strength is not finite
                reject()
        elif kind == "rebuilt":
            graphs.append(digraph(v, arcs, tuple(list(base.external_ids))))
        elif kind == "retargeted":  # the same out-degrees and row weights, each row's targets drawn anew
            moved = []
            for a in range(v):
                row = [(b, w) for s, b, w in arcs if s == a]
                targets = draw(st.permutations([b for b in range(v) if b != a]))
                moved += [(a, b, w) for b, (_, w) in zip(targets, row)]
            graphs.append(digraph(v, moved, base.external_ids))
        elif kind == "relabelled":
            graphs.append(digraph(v, arcs, tuple(f"r{i}" for i in range(v))))
        else:
            graphs.append(draw(writable_graphs()))
    return graphs


class TestSaveSnapshots:
    @given(snapshot_groups(), st.sampled_from([1, 3, 8, ingest._BATCH]))
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_one_graph_saves_and_reference_writer(self, tmp_path_factory, graphs, batch):
        out = tmp_path_factory.mktemp("group")
        provenance = [{"regime": f"cell{k}", "seed": k} for k in range(len(graphs))]
        with mock.patch.object(ingest, "_BATCH", batch):
            save_snapshots([(g, out / f"group{k}.csv", p) for k, (g, p) in enumerate(zip(graphs, provenance))])
            for k, (g, p) in enumerate(zip(graphs, provenance)):
                save_snapshot(g, out / f"one{k}.csv", **p)
        for k, (g, p) in enumerate(zip(graphs, provenance)):
            reference_save(g, out / f"ref{k}.csv", **p)
            for name in (f"{{}}{k}.csv", f"{{}}{k}.vertices.csv"):
                group = (out / name.format("group")).read_bytes()
                assert group == (out / name.format("one")).read_bytes() == (out / name.format("ref")).read_bytes(), name

    def test_int64_and_float64_of_equal_bits_write_their_own_texts(self, tmp_path):
        one = np.array([1.0, -0.0, 0.0, 2.5])
        bits = one.view(np.int64)  # the same bit patterns as int64 values
        names = np.array(["a", "b", "c", "d"], dtype=object)
        paths = [tmp_path / "floats.csv", tmp_path / "ints.csv", tmp_path / "both.csv"]
        with mock.patch.object(ingest, "_BATCH", 3):
            ingest.write_csvs([
                ([paths[0]], "", 4, lambda lo, hi: (names[lo:hi], one[lo:hi])),
                ([paths[1]], "", 4, lambda lo, hi: (names[lo:hi], bits[lo:hi])),
                ([paths[2]], "", 4, lambda lo, hi: (bits[lo:hi], one[lo:hi])),
            ])
        floats = [repr(x) for x in one.tolist()]
        ints = [repr(x) for x in bits.tolist()]
        assert ints[0] == "4607182418800017408" and floats[:3] == ["1.0", "-0.0", "0.0"]
        assert paths[0].read_text() == "".join(f"{n},{x}\n" for n, x in zip(names, floats))
        assert paths[1].read_text() == "".join(f"{n},{k}\n" for n, k in zip(names, ints))
        assert paths[2].read_text() == "".join(f"{k},{x}\n" for k, x in zip(ints, floats))

    def test_unwritable_label_creates_no_file_of_the_group(self, tmp_path):
        good = digraph(2, [(0, 1, 1.0)], ("a", "b"))
        bad = digraph(2, [(0, 1, 1.0)], ("a", "b,c"))
        paths = [tmp_path / "good.csv", tmp_path / "bad.csv"]
        with pytest.raises(FormatError, match="'b,c'"):
            save_snapshots([(good, paths[0], {}), (bad, paths[1], {})])
        assert list(tmp_path.iterdir()) == []

    def test_shared_sidecar_is_written_to_each_path(self, tmp_path):
        g = digraph(3, [(0, 1, 2.0), (1, 0, 0.5), (2, 0, 1.0)], ("x", "y", "z"))
        cells = [g, g._reweighted(np.array([1.0, 1.0, 1.0])), digraph(3, [(0, 2, 1.0), (1, 0, 0.5), (2, 1, 2.0)], g.external_ids)]
        save_snapshots([(cell, tmp_path / f"c{k}.csv", {"regime": f"c{k}"}) for k, cell in enumerate(cells)])
        sidecars = {sidecar_path(tmp_path / f"c{k}.csv").read_text() for k in range(3)}
        assert sidecars == {"external_id,dense_id\nx,0\ny,1\nz,2\n"}
        for k, cell in enumerate(cells):
            assert load_edge_list(tmp_path / f"c{k}.csv") == cell


class TestHostileInput:
    def test_non_finite_weight_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "graph.csv"
        for text in ("inf", "nan", "-inf"):
            path.write_text(f"# seed=1\nsrc,dst,weight\na,b,1\nb,a,{text}\n", encoding="utf-8")
            with pytest.raises(FormatError, match=r"graph\.csv:4: "):
                load_edge_list(path)

    def test_hash_label_after_header_is_an_arc(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("# tool=x\nsrc,dst,weight\n#a,b,1\nb,#a,2\nc,b,3\n", encoding="utf-8")
        g = load_edge_list(path)
        assert g.arc_count == 3
        assert g.external_ids == ("#a", "b", "c")

    def test_hash_label_round_trip(self, tmp_path):
        b = GraphBuilder()
        b.add_arc("#x", "y", 1.0)
        b.add_arc("y", "#x", 2.0)
        b.add_arc("z", "#x", 3.0)
        g = b.build()
        path = tmp_path / "graph.csv"
        save_snapshot(g, path)
        assert load_edge_list(path) == g

    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb", "x\n"])
    def test_unwritable_label_rejected_before_writing(self, tmp_path, label):
        b = GraphBuilder()
        b.add_arc(label, "ok", 1.0)
        path = tmp_path / "graph.csv"
        with pytest.raises(FormatError):
            save_snapshot(b.build(), path)
        assert not path.exists()
        assert not sidecar_path(path).exists()

    @given(
        st.lists(
            st.text(alphabet="#,\n 0123456789", max_size=4), min_size=2, max_size=6, unique=True
        ),
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(1e-300, 1e300)),
            max_size=15,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_save_load_identity_or_up_front_error(self, tmp_path_factory, labels, arcs):
        b = GraphBuilder()
        for label in labels:
            b.add_vertex(label)
        for i, j, w in arcs:
            b.add_arc(labels[i % len(labels)], labels[j % len(labels)], w)
        g = b.build()
        path = tmp_path_factory.mktemp("hostile") / "graph.csv"
        if any("," in s or "\n" in s for s in labels):
            with pytest.raises(FormatError):
                save_snapshot(g, path)
            assert not path.exists()
        else:
            save_snapshot(g, path)
            assert load_edge_list(path) == g
