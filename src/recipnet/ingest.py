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
counts. Loading a snapshot reads it and its sidecar once, in chunks of
bytes cut at line breaks, each parsed in array passes: labels are looked up
in an exact table of byte strings, weights and dense ids parsed with
``float`` and ``int`` on their texts. Memory is bounded by one chunk, the
label table and the arc columns, each held once, not by per-arc Python
objects. Saving a snapshot writes it in batches of arcs, gathered from the
graph's arrays: memory is bounded by one batch of lines plus one text per
label.

Aggregation and a load without a sidecar assign dense ids as
:class:`~recipnet.graph.GraphBuilder` does, through the label table of
:mod:`recipnet.graph`; a sidecar's dense ids are taken as written.
"""

from __future__ import annotations

import io
import os
import pickle
import stat
import warnings
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import __version__ as _version
from .errors import FormatError
from .graph import FirstSeenIds, WeightedDigraph, stored_labels

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

EVENT_HEADER = "timestamp,caller,callee"
GRAPH_HEADER = "src,dst,weight"
VERTEX_HEADER = "external_id,dense_id"

_BATCH = 1 << 13  # lines per C-level pass: event lines read, snapshot lines written
_CHUNK = 1 << 19  # bytes per array pass when a snapshot or sidecar is loaded
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


def _raise_first_bad_vertex_line(texts: list[str], first_lineno: int, seen: set[str], path: Path) -> None:
    """Raise the error for the first malformed sidecar line of ``texts``, given the labels ``seen`` on earlier lines."""
    for lineno, text in enumerate(texts, start=first_lineno):
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


def _line_texts(data: bytes, starts: np.ndarray, stops: np.ndarray) -> list[str]:
    """The decoded texts ``data[start:stop]``."""
    return [data[a:b].decode() for a, b in zip(starts.tolist(), stops.tolist())]


def _line_chunks(f: BinaryIO) -> Iterator[tuple[bytes, np.ndarray, np.ndarray, int]]:
    """(bytes, where each line's text starts and stops, first line number) of ``f``'s chunks of lines.

    ``f`` is read once, ``_CHUNK`` bytes at a time, and each read is cut after its last line break,
    the rest carried over. Line breaks are ``\\n``, ``\\r\\n`` and a lone ``\\r``, as a universal-newline
    reader's, so a ``\\r`` that ends a read waits for the next byte. Each chunk is checked as UTF-8.
    """
    pending, lineno = bytearray(), 1
    while True:
        block = f.read(_CHUNK)
        new = max(len(pending) - 1, 0)  # only the new bytes, and a held-back \r, may hold a cut: a long line costs no rescans
        pending += block
        cut = max(pending.rfind(b"\n", new), pending.rfind(b"\r", new, len(pending) - 1)) + 1 if block else len(pending)
        data = bytes(memoryview(pending)[:cut])
        del pending[:cut]
        if data:
            data.decode("utf-8")  # raises UnicodeDecodeError, a ValueError
            u = np.frombuffer(data, np.uint8)
            breaks = np.flatnonzero((u == 10) | (u == 13))
            second = (u[breaks] == 10) & (u[breaks - 1] == 13) & (breaks > 0)  # the \n of a \r\n
            starts = np.append(0, breaks[~np.append(second, False)[1:]] + 1)
            stops = np.append(breaks[~second], len(data))
            n = len(starts) - int(starts[-1] == len(data))  # no line follows a final line break
            yield data, starts[:n], stops[:n], lineno
            lineno += n
        if not block:
            return


def _first_line(f: BinaryIO, comments: bool) -> tuple[str | None, int, Iterator[tuple[bytes, np.ndarray, np.ndarray, int]]]:
    """The first line's text (None if none), the next line's number and the chunks after it; ``#`` lines skipped if ``comments``."""
    chunks = _line_chunks(f)
    for data, starts, stops, first in chunks:
        for i in range(len(starts)):
            text = data[starts[i] : stops[i]].decode()
            if not (comments and text.startswith("#")):
                return text, first + i + 1, chain([(data, starts[i + 1 :], stops[i + 1 :], first + i + 1)], chunks)
    return None, 0, iter(())


def _field_bounds(u: np.ndarray, starts: np.ndarray, stops: np.ndarray, commas: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Where in ``u`` the fields of each line start and stop, one row per line; None if a line has other than ``commas`` commas.

    Only line breaks follow the first line: when the commas from it on, ``commas`` per row, each lie in their row's line, all do.
    """
    at = np.flatnonzero(u == 44)
    at = at[np.searchsorted(at, starts[0]) :] if len(starts) else at[:0]
    if len(at) != commas * len(starts):
        return None
    at = at.reshape(-1, commas)
    if ((at[:, 0] < starts) | (at[:, -1] >= stops)).any():
        return None
    return np.column_stack((starts, at + 1)), np.column_stack((at, stops))


def _texts_between(u: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> list[str]:
    """The texts ``u[start:stop]``, each stopping at a comma or a line end, cut out by one mask and decoded at once."""
    buf = np.append(u, np.uint8(44))  # a copy, with room after a last line that has no line break
    buf[stops] = 44  # a comma ends each text: none holds one
    edges = np.column_stack((starts, stops + 1)).ravel()  # each text and its comma lie between two edges
    keep = np.repeat(np.arange(len(edges) + 1) % 2 == 1, np.diff(edges, prepend=0, append=len(buf)))
    return buf[keep].tobytes().decode().split(",")[:-1]


def _heads(keys: np.ndarray) -> np.ndarray:
    """The first 8 bytes of each label of ``keys`` as one integer, zero-padded: heads sort as their labels do."""
    head = np.zeros((len(keys), 8), np.uint8)
    head[:, : min(keys.itemsize, 8)] = keys.view(np.uint8).reshape(len(keys), -1)[:, :8]
    return head.view(">u8")[:, 0].astype(np.uint64)


class _LabelTable:
    """Label bytes -> id, exact: per byte length n, the labels as sorted ``S{n}`` values, their heads and ids.

    ``S{n}`` values of one length compare as their bytes. A label is found by ``searchsorted`` on the heads (or on
    the labels where others share its head) and an equality test: no hash decides identity. ``b""`` is held as a NUL.
    """

    def __init__(self) -> None:
        self.groups: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}  # n -> (sorted labels, heads, ids)

    def __len__(self) -> int:
        return sum(len(ids) for _, _, ids in self.groups.values())

    def _find(self, n: int, keys: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each label of ``keys`` is or would go in group n, and whether it is there."""
        table, table_heads, _ = self.groups[n]
        at = np.searchsorted(table_heads, heads)
        shared = np.take(table_heads, at + 1, mode="clip") == heads  # also true at a last entry with the head: harmless
        at[shared] = np.searchsorted(table, keys[shared])
        return at, np.take(table, at, mode="clip") == keys  # a label past the last entry is not the last entry

    def number(self, u: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The id of each label ``u[start:start + length]``; labels new to the table get the next ids.

        A run of equal labels is looked up once, and runs in head order, so successive searches touch nearby entries.
        """
        ids = np.empty(len(starts), np.int64)
        order = np.argsort(lengths, kind="stable")
        for rows in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1) if len(order) else []:
            n = int(lengths[rows[0]])
            keys = sliding_window_view(u, n)[starts[rows]].view(f"S{n}")[:, 0] if n else np.zeros(len(rows), "S1")
            runs = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
            heads = _heads(keys[runs])
            by_head = np.argsort(heads)
            keys, heads = keys[runs[by_head]], heads[by_head]
            at, found = self._find(n, keys, heads) if n in self.groups else (None, np.zeros(len(keys), bool))
            if not found.all():
                new = np.sort(keys[~found], kind="stable")  # nearly sorted already
                new = new[np.append(True, new[1:] != new[:-1])]
                table, table_heads, table_ids = self.groups.get(n, (new[:0], heads[:0], ids[:0]))
                where = np.searchsorted(table, new)
                self.groups[n] = (
                    np.insert(table, where, new),
                    np.insert(table_heads, where, _heads(new)),
                    np.insert(table_ids, where, np.arange(len(self), len(self) + len(new))),
                )
                at = self._find(n, keys, heads)[0]
            run_ids = np.empty(len(runs), np.int64)
            run_ids[by_head] = self.groups[n][2][at]
            ids[rows] = np.repeat(run_ids, np.diff(runs, append=len(rows)))
        return ids

    def labels(self) -> list[str]:
        """The labels as texts, in the order of their ids, which are 0..len - 1."""
        texts = np.empty(len(self), dtype=object)
        for n, (keys, _, ids) in self.groups.items():
            block = np.full((len(keys), n + 1), 10, np.uint8)  # each label and a line break, which none holds
            block[:, :n] = keys.view(np.uint8).reshape(len(keys), -1)[:, :n]
            texts[ids] = str(block, "utf-8").split("\n")[:-1]
        return texts.tolist()


def _load_sidecar(path: Path) -> _LabelTable:
    """The sidecar's labels and dense ids as a label table, read in chunks of bytes like the snapshot.

    A chunk's lines are split at their one comma by array masks, its ids parsed with ``int``, and its labels
    numbered in the table, where a label that is not new repeats one. A chunk that fails a check is split into
    line texts and rescanned against the earlier labels, for the message and line of a line-by-line read.
    """
    table, dense = _LabelTable(), [np.empty(0, np.int64)]  # the dense id of each id of the table
    with open(path, "rb") as f:
        header, _, chunks = _first_line(f, comments=False)
        if header != VERTEX_HEADER:
            raise FormatError(f"expected header {VERTEX_HEADER!r} in {path}, got {header or ''!r}")
        for data, starts, stops, first in chunks:
            u, known, ids, written = np.frombuffer(data, np.uint8), len(table), None, None
            if (fields := _field_bounds(u, starts, stops, 1)) is not None:
                lo, hi = fields
                with suppress(ValueError, OverflowError):  # an id that is not an integer, or past int64
                    written = np.fromiter(map(int, _texts_between(u, lo[:, 1], hi[:, 1])), np.int64, len(starts))
                ids = table.number(u, lo[:, 0], hi[:, 0] - lo[:, 0])
            if written is None or len(table) != known + len(starts):
                seen = set(table.labels()[:known])
                _raise_first_bad_vertex_line(_line_texts(data, starts, stops), first, seen, path)
                written = np.full(len(starts), -1)  # only ids past int64 pass the rescan: they are not contiguous
            dense.append(np.empty(len(starts), np.int64))
            dense[-1][ids - known] = written
    dense_ids = np.concatenate(dense)
    if not np.array_equal(np.sort(dense_ids), np.arange(len(dense_ids))):
        raise FormatError(f"{path}: dense ids are not contiguous 0..V-1")
    table.groups = {n: (keys, heads, dense_ids[ids]) for n, (keys, heads, ids) in table.groups.items()}
    return table


def load_edge_list(path: str | Path, strict: bool = False) -> WeightedDigraph:
    """Load a graph snapshot, honoring its sidecar when present.

    ``#`` provenance lines are recognised only before the header; after it
    every non-empty line is an arc. Duplicate (src, dst) rows aggregate with a
    warning (error in strict mode); non-positive or non-finite weights,
    self-loops and header mismatches are always errors, reported for the
    first offending line in file order. Without a sidecar, dense ids are
    assigned by sorting the distinct labels.

    The file is read once, in chunks of ``_CHUNK`` bytes cut after a line
    break, each split, mapped and checked in array passes over its bytes:
    line breaks and commas are found with ``np.flatnonzero``, labels looked
    up in an exact label table (the sidecar's; without one the table grows
    chunk by chunk and its ids are remapped to the sorted labels at the end),
    weights parsed with ``float`` on their texts, and the checks are masks.
    Only a chunk whose mask fires is split into line texts and rescanned, to
    report the exact line. Memory is bounded by one chunk, the label table
    and the arc columns, each grown in place and so held once; the duplicate
    check's sort is freed before the graph sorts the arcs again.
    """
    path = Path(path)
    side = sidecar_path(path)
    table = _LabelTable()
    side_error: Exception | None = None
    has_side = side.exists()
    if has_side:
        try:  # its dense ids are the ids; its errors rank below the body's, so they wait
            table = _load_sidecar(side)
            labels = table.labels()  # made before the arc columns, while memory is low
        except (OSError, ValueError) as exc:
            side_error = exc
    v = len(table)  # a label the sidecar lacks gets an id >= v
    columns = (bytearray(), bytearray(), bytearray())  # src ids, dst ids, weights, each grown in place chunk by chunk
    blank_before = [np.empty(0, np.int64)]  # row index after each skipped blank line
    rows = 0
    with open(path, "rb") as f:
        header, first_row, chunks = _first_line(f, comments=True)
        if header is None:
            raise FormatError(f"{path}: missing header line")
        if header != GRAPH_HEADER:
            raise FormatError(f"expected header {GRAPH_HEADER!r}, got {header!r}")
        for data, line_starts, line_stops, first in chunks:
            u, w = np.frombuffer(data, np.uint8), None
            starts, stops, blank = line_starts, line_stops, np.flatnonzero(line_starts == line_stops)
            if len(blank):
                blank_before.append(rows + blank - np.arange(len(blank)))
                starts, stops = np.delete(starts, blank), np.delete(stops, blank)
            if (fields := _field_bounds(u, starts, stops, 2)) is not None:
                lo, hi = fields
                with suppress(ValueError):  # a weight that is not a number
                    w = np.fromiter(map(float, _texts_between(u, lo[:, 2], hi[:, 2])), np.float64, len(stops))
                src, dst = table.number(u, lo[:, :2].T.ravel(), (hi - lo)[:, :2].T.ravel()).reshape(2, -1)
            if w is None or ((src == dst) | ~((w > 0) & (w < np.inf))).any():
                _raise_first_bad_arc_line(_line_texts(data, line_starts, line_stops), first, path)
            for column, part in zip(columns, (src, dst, w)):
                column += memoryview(part)  # bytes appended in place: no column is ever held twice
            rows += len(stops)
    src_ids, dst_ids, w_col = (np.frombuffer(column, dtype) for column, dtype in zip(columns, (np.int64, np.int64, np.float64)))
    del columns  # each column's bytes are freed with its array

    if side_error is not None:
        raise side_error
    if has_side:
        if len(table) > v:
            raise FormatError(f"{path}: arc references id missing from sidecar")
    else:  # dense ids follow the sorted labels, as the label table of recipnet.graph assigns them
        labels, dense = FirstSeenIds(zip(table.labels(), range(len(table)))).sorted_order()
        v = len(labels)
        src_ids, dst_ids = dense[src_ids], dense[dst_ids]
    del table

    keys = src_ids * v + dst_ids
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]  # later rows of a repeated key
    del order, ordered  # the graph sorts the arcs again: only one sort is live at a time
    if len(repeats):
        if strict:
            row = int(repeats.min())
            lineno = first_row + row + int(np.searchsorted(np.concatenate(blank_before), row, side="right"))
            src, dst = labels[src_ids[row]], labels[dst_ids[row]]
            raise FormatError(f"{path}:{lineno}: duplicate arc {src!r} -> {dst!r}")
        warnings.warn(f"{path}: aggregated {len(repeats)} duplicate arc rows", stacklevel=2)
        src_ids, dst_ids, w_col = _summed(v, keys, w_col)
    del keys
    return WeightedDigraph.from_columns(v, src_ids, dst_ids, w_col, stored_labels(labels))

