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
style) plus one batch, not by the number of events. Loading a snapshot reads
it in batches too: memory is bounded by one batch of lines, the distinct
labels and the arc arrays, not by per-arc Python objects. Saving a snapshot
writes it in batches of arcs, gathered from the graph's arrays: memory is
bounded by one batch of lines plus one text per label.

Aggregation and a load without a sidecar assign dense ids as
:class:`~recipnet.graph.GraphBuilder` does, through the label table of
:mod:`recipnet.graph`; a sidecar's dense ids are taken as written.
"""

from __future__ import annotations

import bisect
import warnings
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .errors import FormatError
from .graph import FirstSeenIds, WeightedDigraph, stored_labels

EVENT_HEADER = "timestamp,caller,callee"
GRAPH_HEADER = "src,dst,weight"
VERTEX_HEADER = "external_id,dense_id"

_BATCH = 1 << 13  # lines per C-level pass: event and snapshot lines read, snapshot lines written


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


def _raise_first_bad_line(lines: list[str], first_lineno: int, path: str | Path) -> None:
    """Raise the strict-mode error for the first malformed or self-call line of ``lines``."""
    for lineno, line in enumerate(lines, start=first_lineno):
        fields = _fields(line.partition(",")[2])
        if fields is None:
            raise FormatError(f"{path}: malformed event line {lineno}")
        if fields[0] == fields[1]:
            raise FormatError(f"{path}: self-call for id {fields[0]!r}")


def aggregate_event_file(
    path: str | Path,
    strict: bool = False,
) -> tuple[WeightedDigraph, IngestStats]:
    """Count events per ordered (caller, callee) pair into arc weights, in one pass.

    Malformed lines and self-calls are dropped and counted (in strict mode
    the first one in file order aborts); the timestamp field is not parsed.
    The result is independent of line order: arc weights are sums and the
    dense ids follow the sorted labels (see :class:`~recipnet.graph.FirstSeenIds`).

    Lines are counted by their text after the first comma (``caller,callee``
    plus the line break) in C-level passes over batches of lines. Python
    checks only the texts a batch sees for the first time, and drops those
    of malformed and self-call lines from the count at once, so memory is
    bounded by the distinct arc texts plus one batch of lines, not by the
    number of events. In strict mode the first batch with a bad text holds
    the file's first bad line, so only that batch is rescanned. At the end
    the arc texts are split and their labels numbered one batch at a time,
    and the texts of one arc that differ only in their line break are
    summed as arrays.
    """
    counts: Counter[str] = Counter()
    tail_of = itemgetter(2)  # of str.partition: the text after the first comma
    comma = repeat(",")
    read = dropped = malformed = 0
    with open(path, "r", encoding="utf-8", newline="") as f:
        header = f.readline().rstrip("\r\n")
        if header != EVENT_HEADER:
            raise FormatError(f"expected header {EVENT_HEADER!r}, got {header!r}")
        while lines := list(islice(f, _BATCH)):
            seen = len(counts)
            counts.update(map(tail_of, map(str.partition, lines, comma)))
            # Texts new in this batch are the last ones in the (insertion-ordered) dict.
            for tail in list(islice(reversed(counts), len(counts) - seen)):
                fields = _fields(tail)
                if fields is not None and fields[0] != fields[1]:
                    continue
                if strict:
                    _raise_first_bad_line(lines, read + 2, path)
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
    ends = np.concatenate(ends)
    w = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    del counts  # the texts are not needed by the graph build; free them first
    labels, dense = ids.sorted_order()
    del ids
    v = len(labels)
    ends = dense[ends]
    # Texts that differ only in their line break are one arc: their counts are summed.
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
