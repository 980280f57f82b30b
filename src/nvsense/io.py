"""On-disk formats: the long-format trace CSV and JSON fit reports.

Trace CSV contract: comment lines starting with '#', then the header
row `x,x_kind,channel,value,n_avg`, then one row per (grid point,
channel) pair, points in sweep order and channels cycling fastest.
Frequencies are ordinary MHz and times us; values are rendered with
repr so a round trip is exact.  Files are UTF-8 whatever the locale,
and writes go through a same-directory temp file and an atomic rename.

Columns are rendered and parsed whole, and rows are interleaved or
split by slicing, so the Python work per row is a few list slots.  A
render formats each distinct float once, by one list repr, and maps the
strings back to the places that hold it; a trace's grid and channels
go in as one block, so a count that several channels hold is formatted
once.  A parse splits every row by one comma split and maps float over
each column.  The per-row writer and reader that this replaces live in
tests/test_io.py as the oracles for the same bytes, values, checks and
messages.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile

import numpy as np

from .core import Trace, TraceFormatError, XKind

TRACE_HEADER = ("x", "x_kind", "channel", "value", "n_avg")


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trace_to_csv(trace: Trace, comments: tuple = ()) -> str:
    """Render a Trace to the CSV text format."""
    head = ["# trace v1: x in %s, values in photons per repetition or "
            "normalized units\n" % trace.x_kind.unit]
    head += [f"# {line}\n" for line in comments]
    head.append(",".join(TRACE_HEADER) + "\n")
    # only a channel name can need csv quoting; x, values and n_avg
    # render as bare numbers and x_kind as a bare word
    n = trace.x.size
    strings = _reprs(np.stack([trace.x, *trace.channels.values()]))
    x, tail = strings[:n], [f",{trace.n_avg}\n"] * n
    columns = []
    for c, name in enumerate(trace.channels, 1):
        middle = f",{trace.x_kind.value},{_csv_field(name)},"
        columns += [x, [middle] * n, strings[c * n:(c + 1) * n], tail]
    return "".join(head) + _join_rows(columns)


def _reprs(values: np.ndarray) -> list[str]:
    """repr of each float of an array, in C order.

    Each distinct bit pattern is formatted once, by one list repr, and
    its string mapped back to every place it holds; -0.0 and 0.0 have
    distinct bits, so each keeps its own string.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    strings = repr(bits.view(np.float64).tolist())[1:-1].split(", ")
    return list(map(strings.__getitem__, inverse.ravel().tolist()))


def _join_rows(columns: list[list[str]]) -> str:
    """Equal-length columns of strings joined row-major into one string."""
    pieces = [""] * (len(columns) * len(columns[0]))
    for j, column in enumerate(columns):
        pieces[j::len(columns)] = column
    return "".join(pieces)


def _csv_field(text: str) -> str:
    """text as csv.writer renders it as one field of a row."""
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-len(",\n")]


def write_trace(path, trace: Trace, comments: tuple = ()) -> None:
    atomic_write_text(path, trace_to_csv(trace, comments))


def trace_from_csv(text: str, source: str = "<string>") -> Trace:
    """Parse the CSV text format back into a Trace.

    Channels may come in any interleaving: a channel's row of rank i (its
    i-th row) must come after the first channel's row of rank i and hold
    the same x.  Of several defects, the one on the earliest line is
    reported, with its line number.
    """
    lines = [line for line in map(str.strip, text.splitlines())
             if line and line[0] != "#"]
    if not lines:
        raise TraceFormatError(f"{source}: missing header row")
    if tuple(f.strip() for f in _fields(lines[0])) != TRACE_HEADER:
        raise TraceFormatError(
            f"{source}:{_line_number(text, 0)}: expected header "
            f"{','.join(TRACE_HEADER)!r}, got {lines[0]!r}")
    del lines[0]  # data row k is the (k + 1)-th line kept
    if not lines:
        raise TraceFormatError(f"{source}: no data rows")

    # all rows are split by one comma split, with a "\n" field between
    # rows: no line holds a newline, so every row has five fields where
    # the n - 1 "\n" fields sit at every sixth place.  A line with a
    # quote or NUL stands in it as one comma fewer than its csv fields
    # until they replace it
    quoted = {}
    if '"' in text or "\0" in text:  # else no line needs csv.reader
        quoted = {k: _fields(line) for k, line in enumerate(lines)
                  if '"' in line or "\0" in line}
    for k, fields in quoted.items():
        lines[k] = "," * (len(fields) - 1)
    flat = ",\n,".join(lines).split(",")
    if len(flat) != 6 * len(lines) - 1 or \
            flat[5::6].count("\n") != len(lines) - 1:
        k = next(k for k, line in enumerate(lines) if line.count(",") != 4)
        raise TraceFormatError(
            f"{source}:{_line_number(text, k + 1)}: expected 5 columns, "
            f"got {lines[k].count(',') + 1}")
    for k, fields in quoted.items():
        flat[6 * k:6 * k + 5] = fields
    xs, kinds, names, value_strs, n_avgs = (flat[j::6] for j in range(5))

    if len(set(kinds)) != 1:
        raise TraceFormatError(
            f"{source}: mixed x_kind values {sorted(set(kinds))}")
    try:
        x_kind = XKind(kinds[0])
    except ValueError:
        raise TraceFormatError(
            f"{source}: unknown x_kind {kinds[0]!r}; valid values are "
            f"{[k.value for k in XKind]}") from None
    if len(set(n_avgs)) != 1:
        raise TraceFormatError(f"{source}: inconsistent n_avg values")

    # each row's channel and rank; x is parsed on the first channel's rows
    order = list(dict.fromkeys(names))
    index = {name: c for c, name in enumerate(order)}
    chan = np.fromiter(map(index.__getitem__, names), np.intp, len(names))
    counts = np.bincount(chan)
    by_chan = np.argsort(chan, kind="stable")
    rank = np.empty_like(chan)
    rank[by_chan] = (np.arange(chan.size)
                     - np.repeat(np.cumsum(counts) - counts, counts))
    first = by_chan[:counts[0]]
    xs = np.array(xs, dtype=object)
    x, x_error = _floats(xs[first])
    values, value_error = _floats(value_strs)

    # (row, order within the row, message) of the defects found
    defects = []
    if x_error:
        defects.append((first[x_error[0]], 0, str(x_error[1])))
    if value_error:
        defects.append((value_error[0], 1, str(value_error[1])))
    # a row of another channel is fine where it follows the first
    # channel's row of its rank and holds the same x string, unless that
    # x is nan; the others parse x and compare floats, in file order
    same = np.minimum(rank, counts[0] - 1)
    fine = ((rank < counts[0]) & (first[same] < np.arange(chan.size))
            & (xs == xs[first[same]]) & ~np.isnan(x[same]))
    stop = min(defects)[0] if defects else chan.size
    for k in np.flatnonzero((chan != 0) & ~fine).tolist():
        if k > stop:
            break
        try:
            x_k = float(xs[k])
        except ValueError as exc:
            defects.append((k, 0, str(exc)))
            break
        i = rank[k]
        if not (i < counts[0] and first[i] < k and x_k == x[i]):
            defects.append((k, 2, f"channel {names[k]!r} x grid diverges "
                                  f"from channel {order[0]!r}"))
            break
    if defects:
        k, _, message = min(defects)
        raise TraceFormatError(
            f"{source}:{_line_number(text, k + 1)}: {message}")
    if len(set(counts.tolist())) != 1:
        raise TraceFormatError(f"{source}: channels have unequal point counts")
    try:
        n_avg = int(n_avgs[0])
        return Trace(x, x_kind,
                     dict(zip(order, values[by_chan].reshape(len(order), -1))),
                     n_avg=n_avg)
    except ValueError as exc:
        raise TraceFormatError(f"{source}: {exc}") from None


def _fields(line: str) -> list[str]:
    """The csv fields of one line; without a quote or NUL, its comma split."""
    if '"' in line or "\0" in line:
        return next(csv.reader([line]))
    return line.split(",")


def _line_number(text: str, k: int) -> int:
    """Line number of the k-th line of text not blank and not a comment."""
    return [n for n, line in enumerate(map(str.strip, text.splitlines()), 1)
            if line and line[0] != "#"][k]


def _floats(strings) -> tuple:
    """(array of float() of each string, None), or, where float() rejects
    one, (array that holds nan from that string on, (index, its error))."""
    try:
        return np.array(list(map(float, strings))), None
    except ValueError:
        pass
    parsed = []
    for s in strings:
        try:
            parsed.append(float(s))
        except ValueError as exc:
            k = len(parsed)
            parsed += [np.nan] * (len(strings) - k)
            return np.array(parsed), (k, exc)


def _read_text(path) -> str:
    """path's text; bytes that are not UTF-8 raise TraceFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None


def read_trace(path) -> Trace:
    return trace_from_csv(_read_text(path), source=os.fspath(path))


def write_json(path, obj) -> None:
    """Atomic JSON dump with stable key order; NaN or inf raises."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True,
                                       allow_nan=False) + "\n")


def read_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                               f"column {exc.colno}: {exc.msg}") from None


def write_columns(path, names, columns, comments: tuple = ()) -> None:
    """Plain CSV of parallel 1-d arrays, for plot-ready output."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len(names) != len(columns):
        raise ValueError("one name per column required")
    if any(c.ndim != 1 for c in columns):
        raise ValueError("columns must be 1-d")
    if len({c.size for c in columns}) != 1:
        raise ValueError("columns must have equal lengths")
    buf = _io.StringIO()
    buf.writelines(f"# {line}\n" for line in comments)
    csv.writer(buf, lineterminator="\n").writerow(names)
    ends = ([","] * (len(columns) - 1) + ["\n"]) * columns[0].size
    buf.write(_join_rows([_reprs(np.stack(columns, axis=1)), ends]))
    atomic_write_text(path, buf.getvalue())
