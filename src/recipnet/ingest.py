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

Every input is read in chunks of bytes cut at line breaks, each parsed in
array passes: an event log (a regular file, a FIFO or ``/dev/stdin``
alike), a snapshot and its sidecar. Labels, and the ``caller,callee`` tails
of event lines, are looked up in exact tables of byte strings. A regular
log or snapshot of two chunks or more is read in two halves, the second by
one forked helper process (:func:`_in_two`), and again whole in one pass if
the helper fails; no thread is started. Memory is bounded by a chunk per
process and the distinct tails, labels and arcs, not by the number of
lines. Files are written by :func:`write_csvs`, in batches of array rows.

Aggregation and a load without a sidecar assign dense ids by
:func:`~recipnet.graph.sorted_order`, the order of the sorted labels, as
:class:`~recipnet.graph.GraphBuilder` does; a sidecar's dense ids are taken
as written.
"""

from __future__ import annotations

import gc
import operator
import os
import signal
import stat
import threading
import warnings
from contextlib import ExitStack, suppress
from functools import cache, lru_cache
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from . import __version__ as _version
from .errors import DuplicateArcError, FormatError
from .graph import WeightedDigraph, sorted_order

EVENT_HEADER = "timestamp,caller,callee"
GRAPH_HEADER = "src,dst,weight"
VERTEX_HEADER = "external_id,dense_id"

_BATCH = 1 << 13  # lines or texts per C-level pass: CSV rows written (write_csvs), counted tails split
_CHUNK = 1 << 19  # bytes per array pass when an event log, a snapshot or a sidecar is read


def _event_tails(u: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The good event lines of a chunk ``u``: their indices, and where in ``u`` their two commas lie.

    A line is good when it holds exactly two commas, counted per line from the commas found by one
    mask, and a non-empty caller and callee; its ``caller,callee`` tail starts after its first comma.
    """
    at = np.flatnonzero(u == 44)
    first = np.searchsorted(at, starts)  # where in ``at`` each line's commas start; a header's commas lie before them
    # only line breaks lie between a line's stop and the next line's start, so a line's commas end where the next
    # line's begin; the last line's end at its stop
    two = np.flatnonzero(np.append(first[1:], np.searchsorted(at, stops[-1:])) - first == 2)
    c1, c2 = at[first[two]], at[first[two] + 1]
    ok = (c2 - c1 > 1) & (stops[two] - c2 > 1)
    return two[ok], c1[ok], c2[ok]


def aggregate_event_file(
    path: str | Path,
    strict: bool = False,
) -> tuple[WeightedDigraph, dict[str, int]]:
    """Count events per ordered (caller, callee) pair into arc weights: ``(graph, accounting)``.

    ``accounting`` holds ``events_read``, ``self_calls_dropped`` and
    ``malformed_lines``, the line counts that ``save_snapshot`` writes as
    provenance and ``ingest`` prints; ``events_read`` always equals the
    aggregated weight total plus the other two.

    Malformed lines and self-calls are dropped and counted (in strict mode
    the first one in file order aborts); the timestamp field is not parsed.
    The result is independent of line order: arc weights are sums and the
    dense ids follow the sorted labels, as :class:`~recipnet.graph.GraphBuilder` assigns them.

    The file is read by the chunk reader of the snapshot load and counted by
    :func:`_count_arcs`: a regular file of two chunks or more in two halves,
    the second by one forked helper (:func:`_in_two`), any other input in
    one pass, as is the whole file again if the helper fails. Results and
    errors, line numbers included, are those of one pass in file order. Each
    process's memory is bounded by one chunk and its half's distinct
    ``caller,callee`` tails, not by the number of events.
    """
    labels, halves = _LabelTable(), None
    count = lambda chunks: _count_arcs(chunks, path, strict, labels)  # noqa: E731
    with open(path, "rb") as f:
        if (split := _split_point(f)) is not None:
            header, _, chunks = _first_line(_Span(f.fileno(), 0, split[0]), comments=False)
            if header == EVENT_HEADER:  # else the one pass below raises for it
                rest = _Span(f.fileno(), *split)
                first, got = _in_two(lambda: count(chunks), lambda: count(_line_chunks(rest)), 4, labels)
                halves = None if got is None else [first, tuple(np.frombuffer(part, np.int64) for part in got)]
                del first, got  # held here, both halves would outlive their merge
        if halves is None:
            header, _, chunks = _first_line(f, comments=False)
            if header != EVENT_HEADER:
                raise FormatError(f"expected header {EVENT_HEADER!r}, got {header or ''!r}")
            halves = [count(chunks)]
    used = np.zeros(len(labels), bool)
    for src, dst, _, _ in halves:
        used[src] = used[dst] = True
    texts, dense = labels.sorted_order(used)
    del labels, used, src, dst
    read, malformed, dropped = sum(tally for *_, tally in halves).tolist()
    keys, counts = _merged(halves, dense, len(texts))
    src, dst = np.divmod(keys, len(texts))
    del keys
    g = WeightedDigraph.from_columns(len(texts), src, dst, counts.astype(np.float64), texts)
    return g, {"events_read": read, "self_calls_dropped": dropped, "malformed_lines": malformed}


def _count_arcs(
    chunks: Iterator[tuple[bytes, np.ndarray, np.ndarray, int]], path: str | Path, strict: bool, labels: _LabelTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The arcs counted from ``chunks`` of event lines, ``(src, dst, counts, tally)``: each arc once, its ends numbered in
    ``labels``; ``tally`` the lines read, the malformed lines and the self-calls dropped. The good lines' tails
    (:func:`_event_tails`) are prepared (:func:`_prepare`) and numbered in a tail table that carries across chunks; in
    strict mode a chunk's first bad line raises. At the end the distinct tails are split at their comma a batch at a
    time, their ends numbered in ``labels``, and those whose caller is their callee dropped with their counts."""
    tails, counts = _LabelTable(), np.zeros(0, np.int64)  # counts grows geometrically; its first len(tails) are the counts
    read = malformed = 0
    for data, starts, stops, first in chunks:
        u = np.frombuffer(data, np.uint8)
        good, c1, c2 = _event_tails(u, starts, stops)
        self_calls = np.zeros(len(good), bool)
        for n, rows, keys, heads, sizes in _prepare(u, c1 + 1, stops[good] - c1 - 1):
            group_ids = tails.number_prepared(n, keys, heads)
            if len(tails) > len(counts):
                counts = np.concatenate((counts, np.zeros(max(len(tails), 2 * len(counts)) - len(counts), np.int64)))
            counts[group_ids] += sizes  # a group's ids are distinct
            if strict and n % 2:  # a tail is a self-call when it is "x,x": its comma in the middle, its halves equal
                b = keys.view(np.uint8).reshape(-1, n)
                self_calls[rows] = np.repeat((b[:, n // 2] == 44) & (b[:, : n // 2] == b[:, n // 2 + 1 :]).all(axis=1), sizes)
        if strict:
            bad, same = np.flatnonzero(np.bincount(good, minlength=len(starts)) == 0), np.flatnonzero(self_calls)
            if len(same) and not (len(bad) and bad[0] < good[same[0]]):
                raise FormatError(f"{path}: self-call for id {data[c1[same[0]] + 1 : c2[same[0]]].decode()!r}")
            if len(bad):
                raise FormatError(f"{path}: malformed event line {first + bad[0]}")
        read += len(starts)
        malformed += len(starts) - len(good)
    counts = counts[: len(tails)]
    ends = np.empty((2, len(tails)), np.int64)  # the caller, callee label ids of each tail id
    for n, (keys, _, ids) in chain(tails.groups.items(), tails.recent.items()):
        for lo in range(0, len(keys), _BATCH):
            block = keys[lo : lo + _BATCH].view(np.uint8).reshape(-1, n)
            comma, at = np.argmax(block == 44, axis=1), np.arange(len(block)) * n
            lengths = np.concatenate((comma, n - 1 - comma))
            ends[:, ids[lo : lo + _BATCH]] = labels.number(block.ravel(), np.concatenate((at, at + comma + 1)), lengths).reshape(2, -1)
    del tails
    keep = ends[0] != ends[1]
    return ends[0, keep], ends[1, keep], counts[keep], np.array([read, malformed, counts[~keep].sum()], np.int64)


def _merged(halves: list[tuple[np.ndarray, ...]], dense: np.ndarray, v: int) -> tuple[np.ndarray, np.ndarray]:
    """The keys ``src * v + dst`` of the arcs ``(src, dst, counts, _)`` of ``halves``, distinct within each, ends
    renumbered by ``dense``, in increasing order, and their counts. Each half is taken off the list and sorted in turn;
    the second's keys are searched in the first's, counts of keys found added in place and the rest inserted."""

    def sorted_half() -> tuple[np.ndarray, np.ndarray]:
        keys, dst, counts, _ = halves.pop(0)
        np.multiply(_renumbered(keys, dense), v, out=keys)  # src * v + dst, made in place
        keys += _renumbered(dst, dense)
        order = np.argsort(keys)
        keys.sort()
        return keys, counts[order]

    keys, counts = sorted_half()
    while halves:
        other_keys, other_counts = sorted_half()
        at = np.searchsorted(keys, other_keys)
        found = np.append(keys, -1)[at] == other_keys  # past the last key lies none
        counts[at[found]] += other_counts[found]  # the other half's arcs are distinct, so are the places they add to
        keys, counts = np.insert(keys, at[~found], other_keys[~found]), np.insert(counts, at[~found], other_counts[~found])
    return keys, counts


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
    """Write a graph snapshot plus its vertex sidecar: :func:`save_snapshots` of one graph.

    The provenance header records the tool version and, when given, the
    regime label, seed and any extra key=value pairs (e.g. swap statistics)
    that produced the graph; an extra key ``regime`` or ``seed`` replaces
    that line.
    """
    provenance = {key: value for key, value in (("regime", regime), ("seed", seed)) if value is not None}
    save_snapshots([(g, path, {**provenance, **(extra_provenance or {})})])


def save_snapshots(items: Sequence[tuple[WeightedDigraph, str | Path, dict[str, object]]]) -> None:
    """Write each ``(graph, path, provenance)`` item's snapshot and vertex sidecar, in two :func:`write_csvs` passes.

    A snapshot's header is ``# tool=recipnet/<version>``, a ``# key=value``
    line per provenance entry in order, then ``src,dst,weight``. Weights are
    written with ``repr`` so a load/save cycle is lossless. A vertex label
    containing a comma or a line break cannot be represented: every label of
    every graph is checked, and FormatError raised, before any file is opened.

    The snapshots are written in one pass, then the sidecars in another, and
    what the graphs share is made once per batch: the source-label column
    once per distinct label tuple and row-bound array (``indptr``, compared
    by value), the target-label column once per distinct label tuple and
    target array, and each weight text once per distinct weight of the batch
    across all graphs (:func:`write_csvs`). Graphs with equal label tuples
    have equal sidecars, each batch of which is made once and written to all
    their sidecar paths. A batch's sources are found from the row bounds, so
    no whole-graph column is made.
    """
    items = [(g, Path(path), provenance) for g, path, provenance in items]
    tuples, label_of = _distinct([g.external_ids for g, _, _ in items], operator.eq)
    bad = next((s for labels in tuples for s in labels if "," in s or "\n" in s or "\r" in s), None)
    if bad is not None:
        raise FormatError(f"vertex label {bad!r} contains a comma or line break")
    texts = [np.array(labels, dtype=object) for labels in tuples]
    bounds, row_of = _distinct([g._indptr for g, _, _ in items], np.array_equal)
    targets, col_of = _distinct([g._indices for g, _, _ in items], np.array_equal)

    # A shared column is made by the first file of a batch that asks for it; lru_cache(1) drops it at the next batch.
    def source_labels(labels: np.ndarray, indptr: np.ndarray) -> Callable[[int, int], np.ndarray]:
        return lru_cache(1)(lambda lo, hi: labels[np.searchsorted(indptr, np.arange(lo, hi), side="right") - 1])

    def target_labels(labels: np.ndarray, dst: np.ndarray) -> Callable[[int, int], np.ndarray]:
        return lru_cache(1)(lambda lo, hi: labels[dst[lo:hi]])

    def arcs(src: Callable, dst: Callable, w: np.ndarray) -> Callable[[int, int], tuple[np.ndarray, ...]]:
        return lambda lo, hi: (src(lo, hi), dst(lo, hi), w[lo:hi])

    def vertices(labels: np.ndarray) -> Callable[[int, int], tuple[np.ndarray, ...]]:
        return lambda lo, hi: (labels[lo:hi], np.arange(lo, hi))

    src_of = {(l, r): source_labels(texts[l], bounds[r]) for l, r in zip(label_of, row_of)}
    dst_of = {(l, c): target_labels(texts[l], targets[c]) for l, c in zip(label_of, col_of)}
    snapshots = []
    for (g, path, provenance), l, r, c in zip(items, label_of, row_of, col_of):
        head = [f"# tool=recipnet/{_version}", *(f"# {key}={value}" for key, value in provenance.items()), GRAPH_HEADER]
        snapshots.append(([path], "".join(line + "\n" for line in head), g.arc_count, arcs(src_of[l, r], dst_of[l, c], g._weights)))
    write_csvs(snapshots)
    del snapshots, src_of, dst_of  # frees the last batch's shared columns before the sidecars are written
    sidecars = [[sidecar_path(path) for (_, path, _), of in zip(items, label_of) if of == l] for l in range(len(texts))]
    write_csvs([(paths, VERTEX_HEADER + "\n", len(labels), vertices(labels)) for paths, labels in zip(sidecars, texts)])


def _distinct(values: Sequence, same: Callable[[object, object], bool]) -> tuple[list, list[int]]:
    """The distinct ``values`` by ``same``, in first-seen order, and the index among them of each value."""
    kept: list = []
    index = []
    for x in values:
        at = next((i for i, y in enumerate(kept) if same(x, y)), len(kept))
        if at == len(kept):
            kept.append(x)
        index.append(at)
    return kept, index


def write_csvs(files: Sequence[tuple[Sequence[str | Path], str, int, Callable[[int, int], Sequence[np.ndarray]]]]) -> None:
    """Write a group of CSV files in lockstep, ``_BATCH`` rows of each at a time.

    Each file is ``(paths, head, n, rows)``: each of its paths gets ``head``,
    then rows ``0..n-1`` of the columns ``rows(lo, hi)`` returns. An object
    column holds its rows' texts. A numeric column is written as ``repr`` of
    its values, and ``repr`` runs once per batch for each distinct (dtype,
    bit pattern) across the numeric columns of every file of the group:
    equal bits of one dtype give equal texts, an int64 and a float64 of
    equal bits never share one, and ``-0.0`` stays apart from ``0.0``. The
    comma before a numeric column, and the line break after a last one, are
    part of its texts; an object column gets a column of commas before it
    (unless first) and, if last, one of line breaks. A batch's columns are
    joined row by row into one text per file, written to each of its paths,
    so no per-row Python object, and no text, outlives its batch.
    """
    with ExitStack() as stack:
        outs = [[stack.enter_context(open(p, "w", encoding="utf-8", newline="")) for p in paths] for paths, *_ in files]
        for out, (_, head, _, _) in zip(outs, files):
            for f in out:
                f.write(head)
        for lo in range(0, max((n for _, _, n, _ in files), default=0), _BATCH):
            live = [(out, rows(lo, min(lo + _BATCH, n))) for out, (_, _, n, rows) in zip(outs, files) if lo < n]
            for (out, _), texts in zip(live, _batch_texts([columns for _, columns in live])):
                text = "".join(np.column_stack(texts).ravel().tolist())
                for f in out:
                    f.write(text)


def _batch_texts(batch: list[Sequence[np.ndarray]]) -> list[list[np.ndarray]]:
    """Each file's columns of one batch as the text columns to join row by row (see :func:`write_csvs`)."""
    marks = [[("," if j else "", "\n" if j == len(columns) - 1 else "") for j in range(len(columns))] for columns in batch]
    numeric: dict[np.dtype, list[tuple[int, int]]] = {}
    for i, columns in enumerate(batch):
        for j, col in enumerate(columns):
            if col.dtype != object:
                numeric.setdefault(col.dtype, []).append((i, j))
    made = {}
    for dtype, where in numeric.items():
        parts = [batch[i][j] for i, j in where]
        bits, inverse = np.unique(np.concatenate([col.view(f"i{dtype.itemsize}") for col in parts]), return_inverse=True)
        values = bits.view(dtype).tolist()
        reprs = list(map(repr, values)) if len({marks[i][j] for i, j in where}) > 1 else None  # else each repr is made in place
        decorated: dict[tuple[str, str], np.ndarray] = {}  # the texts of every value with one separator and line end
        for (i, j), rows in zip(where, np.split(inverse, np.cumsum([len(col) for col in parts])[:-1])):
            sep, end = marks[i][j]
            if (sep, end) not in decorated:
                decorated[sep, end] = np.array(
                    [f"{sep}{x!r}{end}" for x in values] if reprs is None else [f"{sep}{t}{end}" for t in reprs], dtype=object
                )
            made[i, j] = decorated[sep, end][rows]
    constant = cache(lambda n, text: np.full(n, text, dtype=object))  # a column of commas, or of line breaks
    texts = []
    for i, columns in enumerate(batch):
        texts.append([])
        for j, col in enumerate(columns):
            sep, end = marks[i][j]
            if (i, j) in made:
                texts[-1].append(made[i, j])
                continue
            if sep:
                texts[-1].append(constant(len(col), sep))
            texts[-1].append(col)
            if end:
                texts[-1].append(constant(len(col), end))
    return texts


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
    """(bytes, where each line's text starts and stops, first line number) of ``f``'s chunks of lines, numbered from 1.

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
    """A 64-bit mix of all bytes of each label of ``keys``, ``S{n}`` values of one length: a head, not an identity."""
    words = np.zeros((len(keys), -(-keys.itemsize // 8)), np.uint64)
    words.view(np.uint8)[:, : keys.itemsize] = keys.view(np.uint8).reshape(len(keys), keys.itemsize)
    head = np.zeros(len(keys), np.uint64)
    for word in words.T:  # a multiply and an xor-shift per 8 bytes, and a last pair
        head = (head ^ word) * np.uint64(0x9E3779B97F4A7C15)
        head ^= head >> np.uint64(29)
    head *= np.uint64(0xBF58476D1CE4E5B9)
    return head ^ (head >> np.uint64(32))


def _find(group: tuple[np.ndarray, np.ndarray, np.ndarray], keys: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each label of ``keys`` is or would go in ``group`` (labels sorted by head then bytes, heads, ids), and whether it is there."""
    table, table_heads, _ = group
    at = np.searchsorted(table_heads, heads)
    found = np.take(table, at, mode="clip") == keys  # a label past the last entry is not the last entry
    other = np.flatnonzero(~found & (np.take(table_heads, at, mode="clip") == heads))  # its head, not its bytes
    other = other[np.argsort(at[other], kind="stable")]
    for rows in np.split(other, np.flatnonzero(np.diff(at[other])) + 1) if len(other) else []:
        lo, hi = at[rows[0]], np.searchsorted(table_heads, heads[rows[0]], side="right")
        at[rows] = lo + np.searchsorted(table[lo:hi], keys[rows])
        found[rows] = np.take(table, at[rows], mode="clip") == keys[rows]
    return at, found


def _inserted(group: list[np.ndarray], *new: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The non-empty ``group`` with ``new`` (labels absent from it, sorted by head then bytes, their heads and ids) inserted
    in order. The group's columns are taken off its list one by one, so each is freed once the next is made."""
    where = _find(group, new[0], new[1])[0]
    return tuple(np.insert(group.pop(0), where, values) for values in new)


def _prepare(u: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The labels ``u[start:start + length]`` grouped for :meth:`_LabelTable.number_prepared`: one group per length.

    A group is ``(n, rows, keys, heads, sizes)``: its ``rows`` (indices into ``starts``) sorted by head, and by bytes
    where distinct labels share a head, so equal labels are neighbours; its distinct labels ``keys`` as ``S{n}`` values
    in that order, with their ``heads``; and how many rows each covers, ``sizes``. Each label is then looked up once,
    and successive searches touch nearby entries.
    """
    order = np.argsort(lengths, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1) if len(order) else []:
        n = int(lengths[rows[0]])
        # each n-byte window of u, a view made by the ndarray constructor: under tracemalloc, sliding_window_view (through
        # as_strided) now and then left a 1.9 MB block allocated after the call
        windows = np.ndarray((len(u) - n + 1, n), np.uint8, u, strides=(1, 1)) if n else None
        keys = windows[starts[rows]].view(f"S{n}")[:, 0] if n else np.zeros(len(rows), "S1")
        heads = _heads(keys)
        by_head = np.argsort(heads)
        ordered, ordered_heads = keys[by_head], heads[by_head]
        differ = ordered[1:] != ordered[:-1]
        if (differ & (ordered_heads[1:] == ordered_heads[:-1])).any():
            by_head = np.lexsort((keys, heads))
            ordered, ordered_heads = keys[by_head], heads[by_head]
            differ = ordered[1:] != ordered[:-1]
        runs = np.flatnonzero(np.append(True, differ))
        yield n, rows[by_head], ordered[runs], ordered_heads[runs], np.diff(runs, append=len(rows))


class _LabelTable:
    """Label bytes -> id, exact: per byte length n, a group of the labels as ``S{n}`` values, their heads and ids.

    A group is sorted by head, then by bytes: ``S{n}`` values of one length compare as their bytes. A label is found
    by ``searchsorted`` on the heads, and on the labels within a run of equal heads, and an equality test: no hash
    decides identity. New labels go to a second, recent group per length, merged into the first once it holds an
    eighth as many labels, so a long run of calls copies the first group a few times, not once per call. ``b""`` is
    held as a NUL.
    """

    def __init__(self) -> None:
        self.groups: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}  # n -> (labels, heads, ids)
        self.recent: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}  # n -> the same, of labels new since a merge

    def __len__(self) -> int:
        return sum(len(ids) for _, _, ids in chain(self.groups.values(), self.recent.values()))

    def number(self, u: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The id of each label ``u[start:start + length]``; labels new to the table get the next ids."""
        ids = np.empty(len(starts), np.int64)
        for n, rows, keys, heads, sizes in _prepare(u, starts, lengths):
            ids[rows] = np.repeat(self.number_prepared(n, keys, heads), sizes)
        return ids

    def number_prepared(self, n: int, keys: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """The id of each of ``keys``, distinct labels of length n sorted by head then bytes, with their ``heads``.

        Labels new to the table get the next ids, in table order.
        """
        run_ids, todo = np.empty(len(keys), np.int64), np.arange(len(keys))
        for group in (self.groups.get(n), self.recent.get(n)):
            if group is not None and len(todo):
                at, found = _find(group, keys[todo], heads[todo])
                run_ids[todo[found]] = group[2][at[found]]
                todo = todo[~found]
        if len(todo):
            run_ids[todo] = np.arange(len(self), len(self) + len(todo))  # the next ids
            self._add(n, keys[todo], heads[todo], run_ids[todo])
        return run_ids

    def _add(self, n: int, *new: np.ndarray) -> None:
        """Put ``new`` labels of length n (sorted by head then bytes, their heads and ids) in the recent group."""
        recent = _inserted([*self.recent.pop(n)], *new) if n in self.recent else new
        if n in self.groups and 8 * len(recent[0]) <= len(self.groups[n][0]):
            self.recent[n] = recent
        else:
            self.groups[n] = _inserted([*self.groups.pop(n)], *recent) if n in self.groups else recent

    def labels(self, kept: np.ndarray | None = None) -> list[str]:
        """The labels as texts, in the order of their ids, which are 0..len - 1; only those of the ids ``kept`` (a mask) if given."""
        texts = np.empty(len(self), dtype=object)
        for n, (keys, _, ids) in chain(self.groups.items(), self.recent.items()):
            if kept is not None:
                keys, ids = keys[kept[ids]], ids[kept[ids]]
            block = np.full((len(keys), n + 1), 10, np.uint8)  # each label and a line break, which none holds
            block[:, :n] = keys.view(np.uint8).reshape(len(keys), keys.itemsize)[:, :n]
            texts[ids] = str(block, "utf-8").split("\n")[:-1]
        return (texts if kept is None else texts[kept]).tolist()

    def sorted_order(self, kept: np.ndarray | None = None) -> tuple[list[str], np.ndarray]:
        """The labels (of the ids ``kept``, a mask, if given) by :func:`~recipnet.graph.sorted_order`, and each id's dense id (-1 if not kept)."""
        texts, dense = sorted_order(self.labels(kept))
        if kept is None:
            return texts, dense
        every = np.full(len(self), -1, np.int64)
        every[kept] = dense
        return texts, every


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
    for level in (table.groups, table.recent):
        level.update({n: (keys, heads, dense_ids[ids]) for n, (keys, heads, ids) in level.items()})
    return table


class _ArcColumns:
    """A snapshot body's arcs as they are parsed, in file order: source ids, target ids and weights, each a ``bytearray``
    grown in place, so no column is ever held twice; the row after each skipped blank line."""

    def __init__(self) -> None:
        self.columns = (bytearray(), bytearray(), bytearray())
        self.blank_before = [np.empty(0, np.int64)]
        self.rows = 0

    def add(self, chunks: Iterator[tuple[bytes, np.ndarray, np.ndarray, int]], table: _LabelTable, path: Path) -> None:
        """Parse each chunk of arc lines and append its arcs, numbering their labels in ``table``; raise for its first bad line."""
        for data, line_starts, line_stops, first in chunks:
            u, w = np.frombuffer(data, np.uint8), None
            starts, stops, blank = line_starts, line_stops, np.flatnonzero(line_starts == line_stops)
            if len(blank):
                self.blank_before.append(self.rows + blank - np.arange(len(blank)))
                starts, stops = np.delete(starts, blank), np.delete(stops, blank)
            if (fields := _field_bounds(u, starts, stops, 2)) is not None:
                lo, hi = fields
                with suppress(ValueError):  # a weight that is not a number
                    w = np.fromiter(map(float, _texts_between(u, lo[:, 2], hi[:, 2])), np.float64, len(stops))
                src, dst = table.number(u, lo[:, :2].T.ravel(), (hi - lo)[:, :2].T.ravel()).reshape(2, -1)
            if w is None or ((src == dst) | ~((w > 0) & (w < np.inf))).any():
                _raise_first_bad_arc_line(_line_texts(data, line_starts, line_stops), first, path)
            for column, part in zip(self.columns, (src, dst, w)):
                column += memoryview(part)  # bytes appended in place: no column is ever held twice
            self.rows += len(stops)


class _Span:
    """The bytes ``start..stop`` of an open file, read by ``os.pread``: readers of one file share no offset."""

    def __init__(self, fd: int, start: int, stop: int) -> None:
        self.fd, self.at, self.stop = fd, start, stop

    def read(self, n: int) -> bytes:
        block = os.pread(self.fd, min(n, self.stop - self.at), self.at)
        self.at += len(block)
        return block


def _split_point(f: BinaryIO) -> tuple[int, int] | None:
    """Where a load or an event count splits ``f``'s lines between two processes, and its size; None if it does not.

    It splits a regular file of at least ``2 * _CHUNK`` bytes, when ``os.fork`` exists and no other Python thread
    runs, after the first ``\\n`` from the middle byte on, unless that is the end of the file.
    """
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return None
    info = os.fstat(f.fileno())
    if not stat.S_ISREG(info.st_mode) or info.st_size < 2 * _CHUNK:
        return None
    at = info.st_size // 2
    while block := os.pread(f.fileno(), min(_CHUNK, info.st_size - at), at):
        if (i := block.find(b"\n")) >= 0:
            return (at + i + 1, info.st_size) if at + i + 1 < info.st_size else None
        at += len(block)
    return None


def _in_two(first: Callable[[], object], second: Callable[[], Sequence], n: int, table: _LabelTable, *onto: bytearray) -> tuple:
    """``first()`` here while one forked helper runs ``second()`` on ``table`` as it was at the fork: ``(what first
    returned, the n parts, arrays or bytes, that second returned)``; ``(None, None)`` if the fork fails.

    The helper sends the parts back through a pipe, then the labels it added to ``table``. Here the parts are read
    onto the ends of ``onto`` (:func:`_received`), the helper's labels numbered in ``table`` after first's, and its
    ids in parts 0 and 1, int64 columns, renumbered in place. The parts are None if the helper failed in any way (a
    fork that fails, a helper that raises, crashes or exits non-zero, a short read): the caller then reads its whole
    input again in one pass, into ``table`` as first left it, so every result and error is one pass's. An error here
    comes first: the helper is killed. It is reaped before the call returns or raises."""
    known, pid, done, got = len(table), None, None, None
    r, w = os.pipe()
    with warnings.catch_warnings(), suppress(OSError):  # a fork that fails leaves pid None
        # Python 3.12 warns on a fork while the OS reports more than one thread, and numpy's OpenBLAS pool is one.
        # This fork is safe: OpenBLAS has atfork handlers, the helper calls no BLAS routine and starts no thread, and
        # it leaves by os._exit, so it runs no atexit handler and flushes no inherited buffer. (Run on 3.12 only in CI.)
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the helper
        status = 1
        try:
            gc.disable()  # no collection here, so no finalizer of an object inherited from the caller runs twice
            os.close(r)
            parts = (*second(), "".join(text + "\n" for text in table.labels(np.arange(len(table)) >= known)).encode())
            with open(w, "wb") as out:
                out.write(np.array([memoryview(part).nbytes for part in parts], np.int64))  # the lengths, then the parts
                for part in parts:
                    out.write(part)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            if pid is not None:  # else the fork failed, and the caller reads its input in one pass
                done = first()
                starts = [len(part) // 8 for part in onto] + [0, 0]  # where the helper's ids begin in parts 0 and 1
                got = _received(pipe, n + 1, *onto)
                pid, status = None, os.waitpid(pid, 0)[1]
    finally:
        if pid is not None:  # not reaped: an error here, which comes first in file order
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if got is None or status != 0:
        return done, None
    *parts, new = got
    if new:
        ids = np.concatenate((np.arange(known), _numbered(table, new)))
        for part, start in zip(parts[:2], starts):
            _renumbered(np.frombuffer(part, np.int64)[start:], ids)
    return done, parts


def _received(pipe: BinaryIO, n: int, *onto: bytearray) -> list[bytearray] | None:
    """The ``n`` parts a helper of :func:`_in_two` wrote after their lengths, the first onto the ends of ``onto``,
    grown in place; None if cut short."""
    head = pipe.read(8 * n)
    if len(head) < 8 * n:
        return None
    parts = [*onto, *(bytearray() for _ in range(n - len(onto)))]
    for part, length in zip(parts, np.frombuffer(head, np.int64).tolist()):
        at = len(part)
        part += bytes(length)  # grown in place by zeros, which the pipe's bytes then overwrite
        with memoryview(part) as view, view[at:] as end:
            if pipe.readinto(end) < length:
                return None
    return parts


def _renumbered(column: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``column`` with each id ``i`` in it replaced by ``ids[i]``, in place, ``_BATCH`` at a time."""
    for lo in range(0, len(column), _BATCH):
        column[lo : lo + _BATCH] = ids[column[lo : lo + _BATCH]]
    return column


def _numbered(table: _LabelTable, lines: bytes | bytearray) -> np.ndarray:
    """The ids in ``table`` of the labels of ``lines``, each ended by a line break, numbered ``_BATCH`` at a time."""
    u = np.frombuffer(lines, np.uint8)
    stops = np.flatnonzero(u == 10)
    starts = np.append(0, stops[:-1] + 1)[: len(stops)]
    batches = [slice(lo, lo + _BATCH) for lo in range(0, len(stops), _BATCH)]
    return np.concatenate([np.empty(0, np.int64), *(table.number(u, starts[b], stops[b] - starts[b]) for b in batches)])


def load_edge_list(path: str | Path, strict: bool = False) -> WeightedDigraph:
    """Load a graph snapshot, honoring its sidecar when present.

    ``#`` provenance lines are recognised only before the header; after it
    every non-empty line is an arc. Duplicate (src, dst) rows aggregate with a
    warning (error in strict mode); non-positive or non-finite weights,
    self-loops and header mismatches are always errors, reported for the
    first offending line in file order. Without a sidecar, dense ids are
    assigned by sorting the distinct labels.

    The file is read in chunks of ``_CHUNK`` bytes cut after a line
    break, each split, mapped and checked in array passes: labels are looked
    up in an exact label table (the sidecar's, or one that grows chunk by
    chunk, its ids remapped to the sorted labels at the end), weights parsed
    with ``float``, and only a chunk whose masks fire is rescanned line by
    line, to report the exact line. Memory is bounded by one chunk, the label
    table and the arc columns, each grown in place and so held once.

    A regular file of at least two chunks is parsed in two halves, the
    second by one forked helper process (:func:`_in_two`); a FIFO,
    ``/dev/stdin`` on a pipe and a small file take one pass here, as does
    the whole file again if the helper fails. Every result, error and line
    number is that of one pass in file order.
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
    v, arcs = len(table), None  # a label the sidecar lacks gets an id >= v
    with open(path, "rb") as f:
        if (split := _split_point(f)) is not None:
            header, first_row, chunks = _first_line(_Span(f.fileno(), 0, split[0]), comments=True)
            if header == GRAPH_HEADER:  # else only provenance lines lie before the split, or the one pass below raises
                arcs, rest = _ArcColumns(), _Span(f.fileno(), *split)

                def second() -> tuple:
                    helper = _ArcColumns()
                    helper.add(_line_chunks(rest), table, path)
                    return *helper.columns, np.concatenate(helper.blank_before)

                _, got = _in_two(lambda: arcs.add(chunks, table, path), second, 4, table, *arcs.columns)
                if got is None:
                    arcs = None
                else:
                    arcs.blank_before.append(arcs.rows + np.frombuffer(got[3], np.int64))
                    arcs.rows = len(arcs.columns[0]) // 8
        if arcs is None:
            header, first_row, chunks = _first_line(f, comments=True)
            if header is None:
                raise FormatError(f"{path}: missing header line")
            if header != GRAPH_HEADER:
                raise FormatError(f"expected header {GRAPH_HEADER!r}, got {header!r}")
            arcs = _ArcColumns()
            arcs.add(chunks, table, path)
    src_ids, dst_ids, w_col = (np.frombuffer(column, dtype) for column, dtype in zip(arcs.columns, (np.int64, np.int64, np.float64)))
    blank_before, rows = arcs.blank_before, arcs.rows
    del arcs  # each column's bytes are freed with its array

    if side_error is not None:
        raise side_error
    if has_side:
        if len(table) > v:
            raise FormatError(f"{path}: arc references id missing from sidecar")
    else:  # dense ids follow the sorted labels, as the label table of recipnet.graph assigns them
        labels, dense = table.sorted_order()
        v = len(labels)
        src_ids, dst_ids = _renumbered(src_ids, dense), _renumbered(dst_ids, dense)
    del table

    try:
        return WeightedDigraph.from_columns(v, src_ids, dst_ids, w_col, labels)
    except DuplicateArcError as exc:
        row = exc.row  # handled after the block, once the traceback's sort arrays are freed
    if strict:
        lineno = first_row + row + int(np.searchsorted(np.concatenate(blank_before), row, side="right"))
        src, dst = labels[src_ids[row]], labels[dst_ids[row]]
        raise FormatError(f"{path}:{lineno}: duplicate arc {src!r} -> {dst!r}")
    keys, inverse = np.unique(src_ids * v + dst_ids, return_inverse=True)  # each arc once; rows is still the rows read
    (src_ids, dst_ids), w_col = np.divmod(keys, v), np.bincount(inverse, weights=w_col)  # summed in input order
    warnings.warn(f"{path}: aggregated {rows - len(w_col)} duplicate arc rows", stacklevel=2)
    return WeightedDigraph.from_columns(v, src_ids, dst_ids, w_col, labels)
