"""On-disk formats: the long-format trace CSV and JSON fit reports.

Trace CSV contract: comment lines starting with '#', then the header
row `x,x_kind,channel,value,n_avg`, then one row per (grid point,
channel) pair, points in sweep order and channels cycling fastest.
Frequencies are ordinary MHz and times us; values are rendered with
repr so a round trip is exact.  All writes go through a temp file in
the target directory followed by an atomic rename.
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
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trace_to_csv(trace: Trace, comments: tuple = ()) -> str:
    """Render a Trace to the CSV text format."""
    buf = _io.StringIO()
    unit = trace.x_kind.unit
    buf.write("# trace v1: x in %s, values in photons per repetition or "
              "normalized units\n" % unit)
    for line in comments:
        buf.write(f"# {line}\n")
    buf.write(",".join(TRACE_HEADER) + "\n")
    kind = trace.x_kind.value
    n_avg = trace.n_avg
    # only a channel name can need csv quoting; x, values and n_avg
    # render as bare numbers and x_kind as a bare word
    columns = [(_csv_field(name), values.tolist())
               for name, values in trace.channels.items()]
    buf.writelines(f"{x!r},{kind},{name},{values[i]!r},{n_avg}\n"
                   for i, x in enumerate(trace.x.tolist())
                   for name, values in columns)
    return buf.getvalue()


def _csv_field(text: str) -> str:
    """text as csv.writer renders it as one field of a row."""
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-len(",\n")]


def write_trace(path, trace: Trace, comments: tuple = ()) -> None:
    atomic_write_text(path, trace_to_csv(trace, comments))


def trace_from_csv(text: str, source: str = "<string>") -> Trace:
    """Parse the CSV text format back into a Trace."""
    rows = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # without a quote or NUL, a csv row is its comma split
        if '"' in line or "\0" in line:
            fields = next(csv.reader([line]))
        else:
            fields = line.split(",")
        if not header_seen:
            if tuple(f.strip() for f in fields) != TRACE_HEADER:
                raise TraceFormatError(
                    f"{source}:{lineno}: expected header "
                    f"{','.join(TRACE_HEADER)!r}, got {line!r}")
            header_seen = True
            continue
        if len(fields) != 5:
            raise TraceFormatError(
                f"{source}:{lineno}: expected 5 columns, got {len(fields)}")
        rows.append((lineno, fields))
    if not header_seen:
        raise TraceFormatError(f"{source}: missing header row")
    if not rows:
        raise TraceFormatError(f"{source}: no data rows")

    kinds = {f[1] for _, f in rows}
    if len(kinds) != 1:
        raise TraceFormatError(f"{source}: mixed x_kind values {sorted(kinds)}")
    try:
        x_kind = XKind(rows[0][1][1])
    except ValueError:
        raise TraceFormatError(
            f"{source}: unknown x_kind {rows[0][1][1]!r}; valid values are "
            f"{[k.value for k in XKind]}") from None
    n_avgs = {f[4] for _, f in rows}
    if len(n_avgs) != 1:
        raise TraceFormatError(f"{source}: inconsistent n_avg values")

    x_values: list[float] = []
    channels: dict[str, list[float]] = {}
    order: list[str] = []
    for lineno, fields in rows:
        try:
            x = float(fields[0])
            value = float(fields[3])
        except ValueError as exc:
            raise TraceFormatError(f"{source}:{lineno}: {exc}") from None
        name = fields[2]
        if name not in channels:
            channels[name] = []
            order.append(name)
        if name == order[0]:
            x_values.append(x)
        else:
            i = len(channels[name])
            if i >= len(x_values) or x_values[i] != x:
                raise TraceFormatError(
                    f"{source}:{lineno}: channel {name!r} x grid diverges "
                    f"from channel {order[0]!r}")
        channels[name].append(value)
    lengths = {len(v) for v in channels.values()}
    if len(lengths) != 1:
        raise TraceFormatError(f"{source}: channels have unequal point counts")
    try:
        n_avg = int(rows[0][1][4])
        return Trace(np.array(x_values), x_kind,
                     {name: np.array(channels[name]) for name in order},
                     n_avg=n_avg)
    except ValueError as exc:
        raise TraceFormatError(f"{source}: {exc}") from None


def read_trace(path) -> Trace:
    path = os.fspath(path)
    with open(path, "r") as handle:
        return trace_from_csv(handle.read(), source=path)


def write_json(path, obj) -> None:
    """Atomic JSON dump with stable key order."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    with open(os.fspath(path), "r") as handle:
        return json.load(handle)


def write_columns(path, names, columns, comments: tuple = ()) -> None:
    """Plain CSV of parallel 1-d arrays, for plot-ready output."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len(names) != len(columns):
        raise ValueError("one name per column required")
    if len({c.size for c in columns}) != 1:
        raise ValueError("columns must have equal lengths")
    buf = _io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for i in range(columns[0].size):
        writer.writerow([repr(float(c[i])) for c in columns])
    atomic_write_text(path, buf.getvalue())
