"""Event-log aggregation and graph snapshot persistence.

File formats (UTF-8, LF, plain comma separation, no quoting; a field
containing a comma makes the line malformed):

* events: header ``timestamp,caller,callee``; timestamp may be empty and is
  ignored by aggregation.
* graph snapshot: optional provenance lines starting with ``#`` (regime,
  seed, tool version), then the header ``src,dst,weight``. After the header
  every non-empty line is an arc, so a label may start with ``#``; no label
  may contain a comma or a line break. A sidecar ``<name>.vertices.csv``
  with header ``external_id,dense_id`` pins the dense-id mapping, including
  isolated vertices.

Aggregation streams the event file in batches of lines: memory is bounded by
the distinct ``caller,callee`` line texts of arcs (one per arc and line-break
style) plus one batch, not by the number of events. A large regular file is
cut into byte ranges at line starts, one per usable CPU up to two, each
counted by a forked worker with the same bound; the parent merges the exact
counts. Loading a snapshot reads it in batches too: memory is bounded by one
batch of lines, the distinct labels and the arc arrays, not by per-arc
Python objects. Saving a snapshot
writes it in batches of arcs, gathered from the graph's arrays: memory is
bounded by one batch of lines plus one text per label.

Aggregation and a load without a sidecar assign dense ids as
:class:`~recipnet.graph.GraphBuilder` does, through the label table of
:mod:`recipnet.graph`; a sidecar's dense ids are taken as written.
"""

from __future__ import annotations

import bisect
import io
import os
import pickle
import stat
import warnings
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

import numpy as np

from . import __version__ as _version
from .errors import FormatError
from .graph import FirstSeenIds, WeightedDigraph, stored_labels

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

EVENT_HEADER = "timestamp,caller,callee"
GRAPH_HEADER = "src,dst,weight"
VERTEX_HEADER = "external_id,dense_id"

_BATCH = 1 << 13  # lines per C-level pass: event and snapshot lines read, snapshot lines written
# Event-body bytes per forked worker, at least: two workers were not
# reliably faster than one process on logs up to 14 MiB, and were from 20 MiB.
_RANGE_MIN = 1 << 23
# Forked workers at most. Nearly every arc shows up in every range, so each
# worker holds about a whole in-process count: memory grows with k, and
# k = 2 is the most that has been measured.
_MAX_WORKERS = 2


@dataclass
class IngestStats:
    """Line-level accounting for one aggregation run.

    events_read always equals the aggregated weight total plus dropped
    self-calls plus malformed lines.
    """

    events_read: int = 0
    self_calls_dropped: int = 0
    malformed_lines: int = 0
    vertices: int = 0
    arcs: int = 0


def _fields(tail: str) -> list[str] | None:
    """``[caller, callee]`` of an event line's text after its first comma.

    ``tail`` may end in the line break. None means the line is malformed: it
    has no comma, not exactly three fields, or an empty caller or callee.
    """
    fields = tail.rstrip("\r\n").split(",")
    if len(fields) != 2 or not fields[0] or not fields[1]:
        return None
    return fields


def _first_bad_line(lines: list[str]) -> tuple[int, str | None]:
    """(index, None) of the first bad line of ``lines`` if it is malformed, (index, id) if a self-call."""
    for i, line in enumerate(lines):
        fields = _fields(line.partition(",")[2])
        if fields is None:
            return i, None
        if fields[0] == fields[1]:
            return i, fields[0]
    raise AssertionError("no bad line in the batch")


class _Part(NamedTuple):
    """The count of one byte range (or of a whole stream)."""

    labels: list[str]  # in provisional-id order
    ends: np.ndarray  # provisional caller, callee ids of each arc text, interleaved
    w: np.ndarray  # the count of each arc text
    tally: tuple[int, int, int]  # lines read, self-calls dropped, malformed lines
    bad: tuple[int, str | None] | None  # strict mode: (index, self-call id) of the first bad line


def _count_lines(f: Iterable[str], strict: bool) -> _Part:
    """Count the event lines of ``f`` by arc text and number the arcs' labels as first seen.

    In strict mode the count stops at the first bad line; the part then
    holds no arcs, and the tally counts the lines before that line's batch.
    """
    counts: Counter[str] = Counter()
    tail_of = itemgetter(2)  # of str.partition: the text after the first comma
    comma = repeat(",")
    read = dropped = malformed = 0
    while lines := list(islice(f, _BATCH)):
        seen = len(counts)
        counts.update(map(tail_of, map(str.partition, lines, comma)))
        # Texts new in this batch are the last ones in the (insertion-ordered) dict.
        for tail in list(islice(reversed(counts), len(counts) - seen)):
            fields = _fields(tail)
            if fields is not None and fields[0] != fields[1]:
                continue
            if strict:
                index, self_call = _first_bad_line(lines)
                bad = (read + index, self_call)
                return _Part([], np.empty(0, np.int64), np.empty(0), (read, dropped, malformed), bad)
            if fields is None:
                malformed += counts.pop(tail)
            else:
                dropped += counts.pop(tail)
        read += len(lines)
    # Only arc texts are left, each ``caller,callee`` and its line break: a
    # batch of them joined at commas and split again gives caller, callee, ...
    ids = FirstSeenIds()
    texts = iter(counts)
    ends = [np.empty(0, np.int64)]
    while batch := list(islice(texts, _BATCH)):
        fields = ",".join(map(str.rstrip, batch, repeat("\r\n"))).split(",")
        ends.append(np.fromiter(map(ids.__getitem__, fields), dtype=np.int64, count=2 * len(batch)))
    w = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    return _Part(list(ids), np.concatenate(ends), w, (read, dropped, malformed), None)


class _ByteRange(io.RawIOBase):
    """Bytes ``[start, stop)`` of an open file as a raw stream, read with ``pread``.

    ``pread`` does not move the file's offset, so workers forked from one
    process read their ranges of one descriptor side by side.
    """

    def __init__(self, fd: int, start: int, stop: int) -> None:
        self._fd, self._pos, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        data = os.pread(self._fd, min(len(b), self._stop - self._pos), self._pos)
        b[: len(data)] = data
        self._pos += len(data)
        return len(data)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether this process may fork workers.

    The platform must have ``fork``; the process must not be daemonic (those
    may have no children) nor run other threads, whose locks a forked child
    would inherit held.
    """
    import multiprocessing
    import threading

    return (
        "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
        and threading.active_count() == 1
    )


def _next_line_start(fd: int, pos: int, stop: int) -> int:
    """The offset just after the first ``b"\n"`` at or after ``pos``, or ``stop`` if none comes before it."""
    while pos < stop:
        chunk = os.pread(fd, min(1 << 16, stop - pos), pos)
        if not chunk:
            break
        i = chunk.find(b"\n")
        if i >= 0:
            return pos + i + 1
        pos += len(chunk)
    return stop


def _byte_ranges(fd: int, start: int) -> list[tuple[int, int]]:
    """The body ``[start, EOF)`` of a regular file cut into k ranges that start lines; [] if k < 2.

    k is the number of usable CPUs, at most ``_MAX_WORKERS``, or fewer so
    that no range is planned under ``_RANGE_MIN`` bytes. Each cut moves forward to just after a
    ``b"\n"``: that byte ends a line under universal newlines and is never
    part of a multi-byte UTF-8 character. Cuts that meet are merged, so no
    range is empty and k never exceeds the ranges.
    """
    st = os.fstat(fd)
    if not stat.S_ISREG(st.st_mode):
        return []
    size = st.st_size
    k = min(_usable_cpus(), _MAX_WORKERS, (size - start) // _RANGE_MIN)
    if k < 2 or not _can_fork():
        return []
    cuts = [start]
    for i in range(1, k):
        cut = _next_line_start(fd, max(start + (size - start) * i // k, cuts[-1]), size)
        if cuts[-1] < cut < size:
            cuts.append(cut)
    cuts.append(size)
    return list(zip(cuts[:-1], cuts[1:])) if len(cuts) > 2 else []


def _count_range(fd: int, start: int, stop: int, strict: bool, out: str) -> None:
    """Worker: count bytes ``[start, stop)`` of descriptor ``fd``; pickle the part, or its error, to ``out``.

    The range is read through a universal-newline text reader, so memory is
    one batch of lines plus the range's distinct arc texts.
    """
    try:
        with io.TextIOWrapper(io.BufferedReader(_ByteRange(fd, start, stop)), encoding="utf-8", newline="") as f:
            result: _Part | Exception = _count_lines(f, strict)
    except Exception as exc:  # raised again by the parent, in range order
        result = exc
    with open(out, "wb") as f:
        pickle.dump(result, f, protocol=pickle.HIGHEST_PROTOCOL)


def _load_part(worker: BaseProcess, out: str) -> _Part:
    """The part that ``worker`` pickled to ``out``, once it has exited; the worker's error is raised here."""
    worker.join()
    if worker.exitcode != 0:
        raise ChildProcessError(f"an ingest worker exited with code {worker.exitcode}")
    with open(out, "rb") as f:
        result = pickle.load(f)
    if isinstance(result, Exception):
        raise result
    return result


@contextmanager
def _range_workers(fd: int, ranges: list[tuple[int, int]], strict: bool) -> Iterator[Iterator[_Part]]:
    """The parts of ``ranges``, in range order, each counted by its own forked worker.

    A worker pickles its part to a file in a temporary directory, which the
    parent reads once the worker has exited. Leaving the ``with`` block
    stops any worker still running (after an error in an earlier range),
    waits for every worker and removes the directory.
    """
    import multiprocessing
    import tempfile

    fork = multiprocessing.get_context("fork")
    with tempfile.TemporaryDirectory(prefix="recipnet-ingest-") as tmp:
        outs = [os.path.join(tmp, f"{i}.pickle") for i in range(len(ranges))]
        tasks = [(fd, lo, hi, strict, out) for (lo, hi), out in zip(ranges, outs)]
        workers = [fork.Process(target=_count_range, args=task) for task in tasks]
        try:
            for worker in workers:
                worker.start()
            yield map(_load_part, workers, outs)
        finally:
            for worker in workers:
                if worker.pid is not None:  # started
                    worker.terminate()  # does nothing to a worker that has exited
                    worker.join()


def _merged(parts: Iterable[_Part], path: str | Path) -> tuple[FirstSeenIds, np.ndarray, np.ndarray, list[int]]:
    """One label table for ``parts``, their arcs' ends in its ids, their weights and summed tally.

    The parts are walked in file order. In strict mode the first part that
    stopped raises for its bad line, whose number counts the lines of the
    earlier parts, all of them complete.
    """
    ids = FirstSeenIds()
    ends, weights, tally = [], [], [0, 0, 0]
    for part in parts:
        if part.bad is not None:
            index, self_call = part.bad
            if self_call is None:
                raise FormatError(f"{path}: malformed event line {tally[0] + index + 2}")
            raise FormatError(f"{path}: self-call for id {self_call!r}")
        remap = np.fromiter(map(ids.__getitem__, part.labels), dtype=np.int64, count=len(part.labels))
        ends.append(remap[part.ends])
        weights.append(part.w)
        tally = [a + b for a, b in zip(tally, part.tally)]
    return ids, np.concatenate(ends), np.concatenate(weights), tally


def aggregate_event_file(
    path: str | Path,
    strict: bool = False,
) -> tuple[WeightedDigraph, IngestStats]:
    """Count events per ordered (caller, callee) pair into arc weights.

    Malformed lines and self-calls are dropped and counted (in strict mode
    the first one in file order aborts); the timestamp field is not parsed.
    The result is independent of line order: arc weights are sums and the
    dense ids follow the sorted labels (see :class:`~recipnet.graph.FirstSeenIds`).

    The body of a regular file is cut into k byte ranges that start lines,
    where k is the number of usable CPUs, at most ``_MAX_WORKERS`` (2), or
    fewer so that each range holds at least ``_RANGE_MIN`` bytes (8 MiB).
    Each range is counted by its own forked worker, which pickles its part
    to a file in a temporary directory: no part passes through a pipe,
    whose receiving end would hold the pickled bytes and the part at once.
    A pipe, a smaller file or a process that may not fork (k = 1, see
    ``_can_fork``) is counted in-process by the same loop. No worker or
    temporary file outlives the call.

    The loop counts lines by their text after the first comma (``caller,callee``
    plus the line break) in C-level passes over batches of lines. Python
    checks only the texts a batch sees for the first time, and drops those
    of malformed and self-call lines from the count at once, so memory is
    bounded by the distinct arc texts plus one batch of lines, not by the
    number of events. In strict mode a range stops at its first batch with a
    bad text, and only that batch is rescanned for the line. At the end a
    range's arc texts are split and their labels numbered one batch at a
    time.

    The parent walks the parts in range order. In strict mode the first
    part that stopped names the file's first bad line. Otherwise each part's
    labels are mapped through one label table, and the texts of one arc
    (which differ in their line break or come from different ranges) are
    summed as arrays. Counts are exact integers, so the result does not
    depend on k.
    """
    with open(path, "r", encoding="utf-8", newline="") as f:
        header = f.readline()
        text = header.rstrip("\r\n")
        if text != EVENT_HEADER:
            raise FormatError(f"expected header {EVENT_HEADER!r}, got {text!r}")
        # The reader returns the header with its own line break, so its UTF-8 length is the body's offset.
        ranges = _byte_ranges(f.fileno(), len(header.encode("utf-8")))
        if ranges:
            with _range_workers(f.fileno(), ranges, strict) as parts:
                ids, ends, w, (read, dropped, malformed) = _merged(parts, path)
        else:
            ids, ends, w, (read, dropped, malformed) = _merged([_count_lines(f, strict)], path)
    labels, dense = ids.sorted_order()
    del ids
    v = len(labels)
    ends = dense[ends]
    # Texts of one arc are summed: those that differ in their line break or come from different ranges.
    g = WeightedDigraph.from_columns(v, *_summed(v, ends[0::2] * v + ends[1::2], w), stored_labels(labels))
    return g, IngestStats(read, dropped, malformed, g.vertex_count, g.arc_count)


def _summed(v: int, keys: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, weight) of arcs keyed ``src * V + dst``: each key once, its weights summed in input order."""
    keys, inverse = np.unique(keys, return_inverse=True)
    return (*np.divmod(keys, v), np.bincount(inverse, weights=w))  # bincount adds in input order


def sidecar_path(path: str | Path) -> Path:
    p = Path(path)
    return p.with_name(p.stem + ".vertices.csv")


def save_snapshot(
    g: WeightedDigraph,
    path: str | Path,
    regime: str | None = None,
    seed: int | None = None,
    extra_provenance: dict[str, object] | None = None,
) -> None:
    """Write a graph snapshot plus its vertex sidecar.

    Weights are written with ``repr`` so a load/save cycle is lossless. The
    provenance header records the tool version and, when given, the regime
    label, seed and any extra key=value pairs (e.g. swap statistics) that
    produced the graph. A vertex label containing a comma or a line break
    cannot be represented and raises FormatError before anything is written.

    Lines are built one batch of arcs at a time in C-level passes: the label
    texts are gathered from one object array by the arcs' source and target
    ids, ``repr`` is called once per distinct weight of the batch (equal
    floats have equal reprs), and the columns are joined into the batch's
    text. No per-arc Python object outlives its batch, so memory is bounded
    by one batch of lines plus one text per label. The sidecar is written
    the same way.
    """
    path = Path(path)
    labels = g.labels()
    bad = next((s for s in labels if "," in s or "\n" in s or "\r" in s), None)
    if bad is not None:
        raise FormatError(f"vertex label {bad!r} contains a comma or line break")
    head = [f"# tool=recipnet/{_version}"]
    if regime is not None:
        head.append(f"# regime={regime}")
    if seed is not None:
        head.append(f"# seed={seed}")
    head.extend(f"# {key}={value}" for key, value in (extra_provenance or {}).items())
    head.append(GRAPH_HEADER)
    fields = np.array([label + "," for label in labels], dtype=object)  # a label as a leading field
    indptr, dst, w = g._indptr, g._indices, g._weights
    with path.open("w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in head))
        for lo in range(0, g.arc_count, _BATCH):
            hi = min(lo + _BATCH, g.arc_count)
            src = np.searchsorted(indptr, np.arange(lo, hi), side="right") - 1  # the row holding each arc
            distinct, inverse = np.unique(w[lo:hi], return_inverse=True)
            ends = np.array([f"{x!r}\n" for x in distinct.tolist()], dtype=object)  # one repr per distinct weight
            f.write(_joined_rows(fields[src], fields[dst[lo:hi]], ends[inverse]))
    with sidecar_path(path).open("w", encoding="utf-8") as f:
        f.write(VERTEX_HEADER + "\n")
        for lo in range(0, len(fields), _BATCH):
            batch = fields[lo : lo + _BATCH]
            dense = np.array([f"{v}\n" for v in range(lo, lo + len(batch))], dtype=object)
            f.write(_joined_rows(batch, dense))


def _joined_rows(*columns: np.ndarray) -> str:
    """Equal-length object arrays of strings, concatenated row by row into one text."""
    return "".join(np.column_stack(columns).ravel().tolist())


def _raise_first_bad_vertex_line(texts: list[str], path: Path) -> None:
    """Raise the error for the first malformed sidecar line of ``texts`` (lines 2 onwards)."""
    seen: set[str] = set()
    for lineno, text in enumerate(texts, start=2):
        fields = text.split(",")
        if len(fields) != 2:
            raise FormatError(f"{path}:{lineno}: malformed vertex line")
        label, dense_text = fields
        try:
            int(dense_text)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: dense id {dense_text!r} is not an integer") from None
        if label in seen:
            raise FormatError(f"{path}:{lineno}: duplicate external id {label!r}")
        seen.add(label)


def _load_sidecar(path: Path) -> dict[str, int]:
    """External id -> dense id, parsed in C-level passes; a bad file is rescanned for its first bad line."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        header = f.readline().rstrip("\r\n")
        if header != VERTEX_HEADER:
            raise FormatError(f"expected header {VERTEX_HEADER!r} in {path}, got {header!r}")
        texts = list(map(str.rstrip, f, repeat("\r\n")))
    mapping: dict[str, int] = {}
    n = len(texts)
    fields = ",\n,".join(texts).split(",")  # "\n" fields end the rows, as in _arc_columns
    if len(fields) == 3 * n - 1 and fields[2::3].count("\n") == n - 1:
        with suppress(ValueError):  # a dense id that is not an integer
            mapping = dict(zip(fields[0::3], map(int, fields[1::3])))
    if len(mapping) != n:  # a malformed line, a bad dense id or a duplicate label
        _raise_first_bad_vertex_line(texts, path)
    dense_ids = sorted(mapping.values())
    if dense_ids != list(range(len(dense_ids))):
        raise FormatError(f"{path}: dense ids are not contiguous 0..V-1")
    return mapping


def _raise_first_bad_arc_line(texts: list[str], first_lineno: int, path: Path) -> None:
    """Raise the error for the first malformed arc line of ``texts`` (lines without line breaks)."""
    inf = float("inf")
    for lineno, text in enumerate(texts, start=first_lineno):
        if not text:
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


def _arc_columns(arcs: list[str], ids: FirstSeenIds) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(src ids, dst ids, weights) of non-empty arc line texts; None if any line is bad.

    Splits, parses and checks in C-level passes. A ``"\n"`` field, which no
    line text contains, ends each row: every row has three fields exactly
    when the n - 1 row ends sit at fields 3, 7, 11, ...
    """
    n = len(arcs)
    fields = ",\n,".join(arcs).split(",")
    if len(fields) != 4 * n - 1 or fields[3::4].count("\n") != n - 1:
        return None
    try:
        w = np.fromiter(map(float, fields[2::4]), dtype=np.float64, count=n)
    except ValueError:
        return None
    src = np.fromiter(map(ids.__getitem__, fields[0::4]), dtype=np.int64, count=n)
    dst = np.fromiter(map(ids.__getitem__, fields[1::4]), dtype=np.int64, count=n)
    if ((src == dst) | ~((w > 0) & (w < np.inf))).any():
        return None
    return src, dst, w


def load_edge_list(path: str | Path, strict: bool = False) -> WeightedDigraph:
    """Load a graph snapshot, honoring its sidecar when present.

    ``#`` provenance lines are recognised only before the header; after it
    every non-empty line is an arc. Duplicate (src, dst) rows aggregate with a
    warning (error in strict mode); non-positive or non-finite weights,
    self-loops and header mismatches are always errors, reported for the
    first offending line in file order. Without a sidecar, dense ids are
    assigned by sorting the distinct labels.

    The body is read in batches of lines, each split, mapped and checked in
    C-level passes: labels are looked up in the sidecar's mapping (without a
    sidecar they get provisional ids in first-seen order, remapped once per
    vertex at the end), weights are parsed with ``float``, and the checks are
    array masks. Only a batch whose mask fires is rescanned line by line, to
    report the exact line. No per-arc text outlives its batch, so memory is
    bounded by one batch of lines, the distinct labels and the arc arrays.
    """
    path = Path(path)
    side = sidecar_path(path)
    ids = FirstSeenIds()
    side_error: Exception | None = None
    has_side = side.exists()
    if has_side:
        try:  # its dense ids are the ids; its errors rank below the body's, so they wait
            ids.update(_load_sidecar(side))
        except (OSError, ValueError) as exc:
            side_error = exc
    v = len(ids)  # a label the sidecar lacks gets an id >= v
    empty = np.empty(0, np.int64)
    batches = [(empty, empty, np.empty(0))]  # (src ids, dst ids, weights) per batch
    blank_before: list[int] = []  # row index after each skipped blank line
    rows = 0
    with open(path, "r", encoding="utf-8", newline="") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.rstrip("\r\n")
            if text.startswith("#"):
                continue
            if text != GRAPH_HEADER:
                raise FormatError(f"expected header {GRAPH_HEADER!r}, got {text!r}")
            break
        else:
            raise FormatError(f"{path}: missing header line")
        first_row = lineno = lineno + 1
        while lines := list(islice(f, _BATCH)):
            texts = list(map(str.rstrip, lines, repeat("\r\n")))
            arcs = texts
            if "" in texts:
                blanks = [i for i, text in enumerate(texts) if not text]
                blank_before.extend(rows + i - k for k, i in enumerate(blanks))
                arcs = list(filter(None, texts))
            if arcs:
                columns = _arc_columns(arcs, ids)
                if columns is None:
                    _raise_first_bad_arc_line(texts, lineno, path)
                batches.append(columns)  # type: ignore[arg-type]  # the rescan raised otherwise
            rows += len(arcs)
            lineno += len(lines)
    src_ids, dst_ids, w_col = map(np.concatenate, zip(*batches))
    del batches  # free the batch arrays (and below, the label dict) before the sort

    if side_error is not None:
        raise side_error
    if has_side:
        if len(ids) > v:
            raise FormatError(f"{path}: arc references id missing from sidecar")
        labels = sorted(ids, key=ids.__getitem__)
    else:  # dense ids follow the sorted labels
        labels, dense = ids.sorted_order()
        v = len(labels)
        src_ids, dst_ids = dense[src_ids], dense[dst_ids]
    del ids

    keys = src_ids * v + dst_ids
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order][1:] == keys[order][:-1]]  # later rows of a repeated key
    if len(repeats):
        if strict:
            row = int(repeats.min())
            lineno = first_row + row + bisect.bisect_right(blank_before, row)
            src, dst = labels[src_ids[row]], labels[dst_ids[row]]
            raise FormatError(f"{path}:{lineno}: duplicate arc {src!r} -> {dst!r}")
        warnings.warn(f"{path}: aggregated {len(repeats)} duplicate arc rows", stacklevel=2)
        src_ids, dst_ids, w_col = _summed(v, keys, w_col)
    return WeightedDigraph.from_columns(v, src_ids, dst_ids, w_col, stored_labels(labels))
