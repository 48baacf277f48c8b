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

Every input is read once, in chunks of bytes cut at line breaks, each
parsed in array passes: an event log (a regular file, a FIFO or
``/dev/stdin`` alike), a snapshot and its sidecar. Labels, and the
``caller,callee`` tails of event lines, are looked up in one exact table of
byte strings; snapshot weights and dense ids are parsed with ``float`` and
``int`` on their texts. Aggregation's memory is bounded by one chunk and the
distinct tails, not by the number of events; a load's by one chunk, the
label table and the arc columns, each held once, not by per-arc Python
objects. Snapshots, sidecars and the CLI's ``--records`` files are written
by :func:`write_csv`, in batches of rows gathered from arrays: memory is
bounded by one batch of rows plus one text per label.

Aggregation and a load without a sidecar assign dense ids by the rule of
:class:`~recipnet.graph.GraphBuilder`, the order of the sorted labels; a
sidecar's dense ids are taken as written.
"""

from __future__ import annotations

import warnings
from contextlib import suppress
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import __version__ as _version
from .errors import DuplicateArcError, FormatError
from .graph import WeightedDigraph, stored_labels

EVENT_HEADER = "timestamp,caller,callee"
GRAPH_HEADER = "src,dst,weight"
VERTEX_HEADER = "external_id,dense_id"

_BATCH = 1 << 13  # lines or texts per C-level pass: CSV rows written (write_csv), counted tails split
_CHUNK = 1 << 19  # bytes per array pass when an event log, a snapshot or a sidecar is read


def _event_tails(u: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The good event lines of a chunk ``u``: their indices, and where in ``u`` their two commas lie.

    A line is good when it holds exactly two commas, counted per line from the commas found by one
    mask, and a non-empty caller and callee; its ``caller,callee`` tail starts after its first comma.
    """
    at = np.flatnonzero(u == 44)
    first = np.searchsorted(at, starts)  # where in ``at`` each line's commas start; a header's commas lie before them
    two = np.flatnonzero(np.searchsorted(at, stops) - first == 2)
    c1, c2 = at[first[two]], at[first[two] + 1]
    ok = (c2 - c1 > 1) & (stops[two] - c2 > 1)
    return two[ok], c1[ok], c2[ok]


def _first_self_call(u: np.ndarray, c1: np.ndarray, c2: np.ndarray, stops: np.ndarray) -> int | None:
    """The first of the lines with commas ``c1``, ``c2`` and ends ``stops`` whose caller is its callee, or None."""
    k = len(c1)
    ids = _LabelTable().number(u, np.concatenate((c1 + 1, c2 + 1)), np.concatenate((c2 - c1 - 1, stops - c2 - 1)))
    same = np.flatnonzero(ids[:k] == ids[k:])
    return int(same[0]) if len(same) else None


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

    The file is read once, in one process, through the chunk reader of the
    snapshot load, so a regular file, a FIFO and ``/dev/stdin`` take one
    path. In each chunk the commas are found by one mask and counted per
    line; a line is malformed unless it holds two, with a non-empty caller
    and callee between and after them. The ``caller,callee`` tails of the
    good lines are numbered in an exact label table that carries across
    chunks and counted per id, so memory is bounded by the distinct tails
    plus one chunk, not by the number of events. In strict mode a chunk's
    tails new to the table are split and checked for self-calls, and the
    chunk's first bad line raises.

    At the end the distinct tails are split at their comma one batch at a
    time and their labels numbered in a second table; the tail table is
    then freed. Tails whose caller is their callee are dropped with their
    counts, and only the labels of the kept arcs become texts and vertices,
    with the dense ids of their sorted order. Each tail is one arc, its
    count exact.
    """
    tails, counts = _LabelTable(), np.zeros(0, np.int64)
    read = malformed = 0
    with open(path, "rb") as f:
        header, _, chunks = _first_line(f, comments=False)
        if header != EVENT_HEADER:
            raise FormatError(f"expected header {EVENT_HEADER!r}, got {header or ''!r}")
        for data, starts, stops, first in chunks:
            u = np.frombuffer(data, np.uint8)
            good, c1, c2 = _event_tails(u, starts, stops)
            known = len(tails)
            ids = tails.number(u, c1 + 1, stops[good] - c1 - 1)
            if strict:
                new, rows = np.unique(ids, return_index=True)
                rows = np.sort(rows[new >= known])  # the first line of each tail new in this chunk, in file order
                self_call = _first_self_call(u, c1[rows], c2[rows], stops[good[rows]])
                bad = np.flatnonzero(np.bincount(good, minlength=len(starts)) == 0)
                if self_call is not None and not (len(bad) and bad[0] < good[rows[self_call]]):
                    raise FormatError(f"{path}: self-call for id {data[c1[rows[self_call]] + 1 : c2[rows[self_call]]].decode()!r}")
                if len(bad):
                    raise FormatError(f"{path}: malformed event line {first + bad[0]}")
            grown = np.bincount(ids, minlength=len(tails))
            grown[: len(counts)] += counts
            counts = grown
            read += len(starts)
            malformed += len(starts) - len(good)
    ends = np.empty((2, len(tails)), np.int64)  # the caller, callee label ids of each tail id
    labels = _LabelTable()
    for n, (keys, _, ids) in chain(tails.groups.items(), tails.recent.items()):
        for lo in range(0, len(keys), _BATCH):
            block = keys[lo : lo + _BATCH].view(np.uint8).reshape(-1, n)
            comma, at = np.argmax(block == 44, axis=1), np.arange(len(block)) * n
            lengths = np.concatenate((comma, n - 1 - comma))
            ends[:, ids[lo : lo + _BATCH]] = labels.number(block.ravel(), np.concatenate((at, at + comma + 1)), lengths).reshape(2, -1)
    del tails
    keep = ends[0] != ends[1]
    dropped = int(counts[~keep].sum())
    src, dst, w = ends[0, keep], ends[1, keep], counts[keep].astype(np.float64)
    del ends, counts
    used = np.zeros(len(labels), bool)
    used[src] = used[dst] = True
    texts, dense = labels.sorted_order(used)
    del labels
    g = WeightedDigraph.from_columns(len(texts), dense[src], dense[dst], w, stored_labels(texts))
    return g, {"events_read": read, "self_calls_dropped": dropped, "malformed_lines": malformed}


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
    """Write a graph snapshot plus its vertex sidecar, each with :func:`write_csv`.

    Weights are written with ``repr`` so a load/save cycle is lossless. The
    provenance header records the tool version and, when given, the regime
    label, seed and any extra key=value pairs (e.g. swap statistics) that
    produced the graph. A vertex label containing a comma or a line break
    cannot be represented and raises FormatError before anything is written.
    Each batch gathers the graph's own label strings by the arcs' source and
    target ids; a batch's sources are found from the row pointers, so no
    whole-graph column is made.
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
    labels = np.array(labels, dtype=object)
    indptr, dst, w = g._indptr, g._indices, g._weights

    def arcs(lo: int, hi: int) -> tuple[np.ndarray, ...]:
        src = np.searchsorted(indptr, np.arange(lo, hi), side="right") - 1  # the row holding each arc
        return labels[src], labels[dst[lo:hi]], w[lo:hi]

    write_csv(path, "".join(line + "\n" for line in head), g.arc_count, arcs)
    write_csv(sidecar_path(path), VERTEX_HEADER + "\n", len(labels), lambda lo, hi: (labels[lo:hi], np.arange(lo, hi)))


def write_csv(path: str | Path, head: str, n: int, rows: Callable[[int, int], Sequence[np.ndarray]]) -> None:
    """Write ``head``, then CSV rows ``0..n-1`` of the columns ``rows(lo, hi)`` returns, ``_BATCH`` rows at a time.

    An object column holds its rows' texts. A numeric column is written as
    ``repr`` of its values, made once per distinct bit pattern of the batch:
    equal bits give equal texts, and ``-0.0`` stays apart from ``0.0``. The
    comma before a numeric column, and the line break after a last one, are
    part of its texts; an object column gets a column of commas before it
    (unless first) and, if last, one of line breaks. A batch's columns are
    joined row by row into one text, so no per-row Python object outlives its
    batch.
    """
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(head)
        for lo in range(0, n, _BATCH):
            hi = min(lo + _BATCH, n)
            columns = rows(lo, hi)
            texts = []
            for i, col in enumerate(columns):
                sep, end = "," if i else "", "\n" if i == len(columns) - 1 else ""
                if col.dtype != object:
                    bits, inverse = np.unique(col.view(f"i{col.itemsize}"), return_inverse=True)
                    texts.append(np.array([f"{sep}{x!r}{end}" for x in bits.view(col.dtype).tolist()], dtype=object)[inverse])
                    continue
                if sep:
                    texts.append(np.full(hi - lo, sep, dtype=object))
                texts.append(col)
                if end:
                    texts.append(np.full(hi - lo, end, dtype=object))
            f.write("".join(np.column_stack(texts).ravel().tolist()))


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


def _inserted(group: tuple[np.ndarray, np.ndarray, np.ndarray], *new: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The non-empty ``group`` with ``new`` (labels absent from it, sorted by head then bytes, their heads and ids) inserted in order."""
    where = _find(group, new[0], new[1])[0]
    return tuple(np.insert(column, where, values) for column, values in zip(group, new))


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
        """The id of each label ``u[start:start + length]``; labels new to the table get the next ids.

        The labels are sorted by head, and by bytes where distinct labels share a head, so equal ones are neighbours and
        each is looked up once, successive searches touch nearby entries, and the new ones come in table order.
        """
        ids = np.empty(len(starts), np.int64)
        order = np.argsort(lengths, kind="stable")
        for rows in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1) if len(order) else []:
            n = int(lengths[rows[0]])
            keys = sliding_window_view(u, n)[starts[rows]].view(f"S{n}")[:, 0] if n else np.zeros(len(rows), "S1")
            heads = _heads(keys)
            by_head = np.argsort(heads)
            differ = keys[by_head[1:]] != keys[by_head[:-1]]
            if (differ & (heads[by_head[1:]] == heads[by_head[:-1]])).any():
                by_head = np.lexsort((keys, heads))
                differ = keys[by_head[1:]] != keys[by_head[:-1]]
            runs = np.flatnonzero(np.append(True, differ))
            rows, keys, heads = rows[by_head], keys[by_head[runs]], heads[by_head[runs]]
            run_ids, todo = np.empty(len(runs), np.int64), np.arange(len(runs))
            for group in (self.groups.get(n), self.recent.get(n)):
                if group is not None and len(todo):
                    at, found = _find(group, keys[todo], heads[todo])
                    run_ids[todo[found]] = group[2][at[found]]
                    todo = todo[~found]
            if len(todo):
                run_ids[todo] = np.arange(len(self), len(self) + len(todo))  # the next ids
                self._add(n, keys[todo], heads[todo], run_ids[todo])
            ids[rows] = np.repeat(run_ids, np.diff(runs, append=len(rows)))
        return ids

    def _add(self, n: int, *new: np.ndarray) -> None:
        """Put ``new`` labels of length n (sorted by head then bytes, their heads and ids) in the recent group."""
        recent = _inserted(self.recent.pop(n), *new) if n in self.recent else new
        if n in self.groups and 8 * len(recent[0]) <= len(self.groups[n][0]):
            self.recent[n] = recent
        else:
            self.groups[n] = _inserted(self.groups[n], *recent) if n in self.groups else recent

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
        """The labels (of the ids ``kept``, a mask, if given) sorted, which is their dense-id order, and the dense id of each id.

        UTF-8 byte order is code point order, so this is the order of :meth:`~recipnet.graph.FirstSeenIds.sorted_order`.
        """
        texts = self.labels(kept)
        order = sorted(range(len(texts)), key=texts.__getitem__)
        dense = np.full(len(self), -1, np.int64)
        dense[(np.arange(len(self)) if kept is None else np.flatnonzero(kept))[order]] = np.arange(len(order))
        return [texts[i] for i in order], dense


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
    and the arc columns, each grown in place and so held once.
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
        labels, dense = table.sorted_order()
        v = len(labels)
        src_ids, dst_ids = dense[src_ids], dense[dst_ids]
    del table

    try:
        return WeightedDigraph.from_columns(v, src_ids, dst_ids, w_col, stored_labels(labels))
    except DuplicateArcError as exc:
        row = exc.row  # handled after the block, once the traceback's sort arrays are freed
    if strict:
        lineno = first_row + row + int(np.searchsorted(np.concatenate(blank_before), row, side="right"))
        src, dst = labels[src_ids[row]], labels[dst_ids[row]]
        raise FormatError(f"{path}:{lineno}: duplicate arc {src!r} -> {dst!r}")
    src_ids, dst_ids, w_col = _summed(v, src_ids * v + dst_ids, w_col)  # rows is still the arc rows read
    warnings.warn(f"{path}: aggregated {rows - len(w_col)} duplicate arc rows", stacklevel=2)
    return WeightedDigraph.from_columns(v, src_ids, dst_ids, w_col, stored_labels(labels))

