"""Trace CSV and JSON report round trips plus format diagnostics."""

import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nvsense.core import Trace, TraceFormatError, XKind
from nvsense.io import (TRACE_HEADER, atomic_write_text, read_json,
                        read_trace, trace_from_csv, trace_to_csv,
                        write_columns, write_json, write_trace)


def sample_trace():
    x = np.array([0.0, 0.123456789012345, 1.0 / 3.0, 7.25])
    rng = np.random.default_rng(11)
    channels = {name: rng.uniform(0.01, 0.06, x.size)
                for name in ("SIG1", "SIG2", "REF1", "REF2")}
    return Trace(x, XKind.PULSE_LENGTH, channels, n_avg=220_000)


def per_row_csv(trace: Trace) -> str:
    """The oracle for trace_to_csv: one csv.writer row per (point, channel)."""
    buf = io.StringIO()
    buf.write("# trace v1: x in %s, values in photons per repetition or "
              "normalized units\n" % trace.x_kind.unit)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for i, x in enumerate(trace.x):
        for name in trace.channel_names:
            writer.writerow([repr(float(x)), trace.x_kind.value, name,
                             repr(float(trace.channel(name)[i])),
                             trace.n_avg])
    return buf.getvalue()


def per_row_trace_from_csv(text: str, source: str = "<string>") -> Trace:
    """The oracle for trace_from_csv: the parser that read a row at a time."""
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


_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, -2.5e-310]))
# few values, so most repeat within and across channels; 0.0 and -0.0
# compare equal but render apart
_POOLED = st.sampled_from([0.0, -0.0, 5e-324, 0.25, 1.0 / 3.0, 7e22])
_ONE_LINE = st.text().filter(lambda name: "".join(name.splitlines()) == name)


@st.composite
def traces(draw, min_channels=1, values=_FINITE):
    # unique=True counts -0.0 and 0.0 as equal, so the grid strictly rises
    x = sorted(draw(st.lists(_FINITE, min_size=2, max_size=6, unique=True)))
    names = draw(st.lists(_ONE_LINE, min_size=min_channels, max_size=4,
                          unique=True))
    channels = {name: draw(st.lists(values, min_size=len(x),
                                    max_size=len(x)))
                for name in names}
    return Trace(np.array(x), draw(st.sampled_from(XKind)), channels,
                 n_avg=draw(st.integers(1, 2 ** 70)))


def _csv_line(fields, quote_all=False) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="",
               quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL
               ).writerow(fields)
    return buf.getvalue()


# the same float in other spellings: 1.0 as 1.00, 1.0e0 or 1.0E+00
_X_SPELLINGS = (
    lambda s: s,
    lambda s: s + "0" if "." in s and "e" not in s else s,
    lambda s: s if "e" in s else s + "e0",
    lambda s: s.replace("e", "E") if "e" in s else s + "E+00",
)
_FILLER = ("", "   ", "\t", "#", "# note", "  # indented, with a comma",
           '# a "quoted" comment')
_BAD_FLOATS = ("oops", "", "1.0.0", "0x1p0")
_ODD_FLOATS = ("nan", "-inf", "1_0", " 2 ")  # float() takes these
_CORRUPTIONS = ("add field", "drop field", "bad x", "bad value",
                "bad x and value", "nan x at a point", "odd x at a point",
                "other x_kind",
                "unknown x_kind", "other n_avg", "other channel", "drop row",
                "swap rows", "ahead of the first channel", "duplicate row",
                "no header", "wrong header", "open quote", "nul")


@st.composite
def csv_texts(draw):
    """trace_to_csv output re-laid, re-spelled, commented and at most
    once corrupted: texts on which both parsers must agree."""
    tr = draw(traces(min_channels=draw(st.sampled_from((1, 2, 3)))))
    kind, n_avg = tr.x_kind.value, str(tr.n_avg)
    names = tr.channel_names
    head, header = trace_to_csv(tr).splitlines()[:2]
    # channel c's row of point i sorts at (i + lag[c], c); lag 0 cycles
    layout = draw(st.sampled_from(("cycling", "channel-major", "lagging")))
    lag = {"cycling": [0] * len(names),
           "channel-major": [tr.x.size * c for c in range(len(names))],
           "lagging": [0] + draw(st.lists(st.integers(0, tr.x.size),
                                          min_size=len(names) - 1,
                                          max_size=len(names) - 1))}[layout]
    keys = sorted((i + lag[c], c, i) for c in range(len(names))
                  for i in range(tr.x.size))
    cells = [(c, i) for _, c, i in keys]
    respell = draw(st.booleans())
    rows = [[(draw(st.sampled_from(_X_SPELLINGS)) if respell
              else _X_SPELLINGS[0])(repr(float(tr.x[i]))),
             kind, names[c], repr(float(tr.channel(names[c])[i])), n_avg]
            for _, c, i in keys]
    quote_all = draw(st.lists(st.booleans(), min_size=len(rows),
                              max_size=len(rows)))

    corruption = draw(st.sampled_from(_CORRUPTIONS)) \
        if draw(st.booleans()) else None
    r = draw(st.integers(0, len(rows) - 1))
    fields = rows[r]
    if corruption == "add field":
        fields.insert(draw(st.integers(0, 5)),
                      draw(st.sampled_from(("", "0.5", kind))))
    elif corruption == "drop field":
        del fields[draw(st.integers(0, 4))]
    elif corruption in ("bad x", "bad value"):
        fields[0 if corruption == "bad x" else 3] = draw(
            st.sampled_from(_BAD_FLOATS + _ODD_FLOATS))
    elif corruption == "bad x and value":
        fields[0], fields[3] = draw(st.lists(st.sampled_from(_BAD_FLOATS),
                                             min_size=2, max_size=2,
                                             unique=True))
    elif corruption in ("nan x at a point", "odd x at a point"):
        odd = draw(st.sampled_from(_ODD_FLOATS)) \
            if corruption == "odd x at a point" else "nan"
        for row, (_, i) in zip(rows, cells):
            if i == cells[r][1]:
                row[0] = odd
    elif corruption == "other x_kind":
        fields[1] = draw(st.sampled_from([k.value for k in XKind]))
    elif corruption == "unknown x_kind":
        for row in rows:
            row[1] = "bogus"
    elif corruption == "other n_avg":
        fields[4] = draw(st.sampled_from(("0", "-3", "1.5", n_avg + "0")))
    elif corruption == "other channel":
        fields[2] = draw(st.sampled_from(names + ("zz",)))
    elif corruption == "drop row":
        del rows[r]
    elif corruption == "swap rows":
        s = draw(st.integers(0, len(rows) - 1))
        rows[r], rows[s] = rows[s], rows[r]
    elif corruption == "ahead of the first channel" and len(names) > 1:
        # a row of another channel moves just before the first
        # channel's row of the same point
        s = draw(st.sampled_from([j for j, (c, _) in enumerate(cells) if c]))
        rows.insert(cells.index((0, cells[s][1])), rows.pop(s))
    elif corruption == "duplicate row":
        rows.insert(r, list(fields))
    lines = [_csv_line(row, quoted) for row, quoted in zip(rows, quote_all)]
    if corruption in ("open quote", "nul"):
        at = draw(st.integers(0, len(lines[r])))
        lines[r] = lines[r][:at] + ('"' if corruption == "open quote"
                                    else "\0") + lines[r][at:]
    if corruption == "wrong header":
        header = draw(st.sampled_from(("x,kind,channel,value,n",
                                       "x,x_kind,channel,value",
                                       "value,x_kind,channel,x,n_avg")))
    elif draw(st.booleans()):
        header = " x , x_kind,channel ,value,n_avg "
    lines = [head] + ([] if corruption == "no header" else [header]) + lines
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(_FILLER)))
    return "\n".join(lines) + draw(st.sampled_from(("\n", "", "\r\n")))


def _outcome(parse, text):
    """What a parser makes of text: the trace's bytes, or the error."""
    try:
        tr = parse(text)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    return (tr.x.tobytes(), tr.x_kind, tr.n_avg,
            [(name, v.tobytes()) for name, v in tr.channels.items()])


def _differential(max_examples):
    return settings(max_examples=max_examples, derandomize=True,
                    deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@_differential(600)
@given(text=csv_texts())
def test_parses_as_the_per_row_reader(text):
    assert _outcome(trace_from_csv, text) == \
        _outcome(per_row_trace_from_csv, text)


@pytest.mark.slow
@_differential(20_000)
@given(text=csv_texts())
def test_parses_as_the_per_row_reader_long(text):
    assert _outcome(trace_from_csv, text) == \
        _outcome(per_row_trace_from_csv, text)


class TestCsvRoundTrip:
    def test_bitwise_exact(self, tmp_path):
        tr = sample_trace()
        path = tmp_path / "trace.csv"
        write_trace(path, tr, comments=("kind=rabi", "seed=3"))
        back = read_trace(path)
        assert back.x_kind is tr.x_kind
        assert back.n_avg == tr.n_avg
        assert back.x.tobytes() == tr.x.tobytes()
        assert back.channel_names == tr.channel_names
        for name in tr.channel_names:
            assert back.channel(name).tobytes() == tr.channel(name).tobytes()

    def test_reserialization_idempotent(self):
        tr = sample_trace()
        text = trace_to_csv(tr)
        again = trace_to_csv(trace_from_csv(text))
        assert text == again

    def test_comments_written(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(path, sample_trace(), comments=("alpha=1",))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# trace v1")
        assert lines[1] == "# alpha=1"
        assert lines[2] == "x,x_kind,channel,value,n_avg"

    @settings(max_examples=300, deadline=None)
    @given(tr=traces() | traces(values=_POOLED))
    def test_any_trace_round_trips_bitwise(self, tr):
        text = trace_to_csv(tr)
        assert text == per_row_csv(tr)
        back = trace_from_csv(text)
        assert back.x_kind is tr.x_kind
        assert back.n_avg == tr.n_avg
        assert back.x.tobytes() == tr.x.tobytes()
        assert back.channel_names == tr.channel_names
        for name in tr.channel_names:
            assert back.channel(name).tobytes() == tr.channel(name).tobytes()
        assert trace_to_csv(back) == text

    def test_names_that_need_quoting(self):
        x = np.array([0.0, 1.0])
        names = ("a,b", 'say "hi"', '"', " lead", "", "tail ")
        tr = Trace(x, XKind.FREQUENCY,
                   {name: np.array([0.5, -0.0]) for name in names}, n_avg=3)
        text = trace_to_csv(tr)
        assert text == per_row_csv(tr)
        assert '"a,b"' in text and '"say ""hi"""' in text
        back = trace_from_csv(text)
        assert back.channel_names == tr.channel_names
        assert trace_to_csv(back) == text

    def test_channels_cycle_fastest(self):
        text = trace_to_csv(sample_trace())
        data = [l for l in text.splitlines()
                if l and not l.startswith("#")][1:]
        first_x = data[0].split(",")[0]
        # all channels of the first point precede the second point
        assert [row.split(",")[2] for row in data[:4]] == \
            ["SIG1", "SIG2", "REF1", "REF2"]
        assert all(row.split(",")[0] == first_x for row in data[:4])
        assert data[4].split(",")[0] != first_x


class TestCsvDiagnostics:
    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "bom16.csv"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(TraceFormatError) as exc:
            read_trace(path)
        assert str(exc.value) == (
            f"{path}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte")

    def test_missing_header(self):
        with pytest.raises(TraceFormatError, match="missing header"):
            trace_from_csv("# only comments\n")

    def test_wrong_header_names_line(self):
        text = "# c\nx,kind,channel,value,n\n"
        with pytest.raises(TraceFormatError, match=r"<string>:2"):
            trace_from_csv(text)

    def test_wrong_column_count_names_line(self):
        # in the second text a 4-field row and a later 6-field one hold
        # the right total number of fields between them
        for text, message in [
                ("x,x_kind,channel,value,n_avg\n"
                 "0.0,pulse_length,SIG1,0.05\n",
                 "<string>:2: expected 5 columns, got 4"),
                ("x,x_kind,channel,value,n_avg\n"
                 "0.0,pulse_length,SIG1,0.05,100\n"
                 "1.0,pulse_length,SIG1,0.05\n"
                 "2.0,pulse_length,SIG1,0.05,100\n"
                 "3.0,pulse_length,SIG1,0.05,100,7\n",
                 "<string>:3: expected 5 columns, got 4")]:
            with pytest.raises(TraceFormatError) as info:
                trace_from_csv(text)
            assert str(info.value) == message

    def test_open_quote_stays_on_its_line(self):
        # an unclosed quote ends with its line; it never swallows the next
        text = ("x,x_kind,channel,value,n_avg\n"
                "0.0,pulse_length,SIG1,0.05,100\n"
                '1.0,pulse_length,"SIG1,0.05,100\n'
                "2.0,pulse_length,SIG1,0.05,100\n")
        with pytest.raises(TraceFormatError) as info:
            trace_from_csv(text)
        assert str(info.value) == "<string>:3: expected 5 columns, got 3"

    def test_unknown_x_kind(self):
        text = ("x,x_kind,channel,value,n_avg\n"
                "0.0,bogus,SIG1,0.05,100\n"
                "1.0,bogus,SIG1,0.05,100\n")
        with pytest.raises(TraceFormatError, match="unknown x_kind"):
            trace_from_csv(text)

    def test_mixed_x_kind(self):
        text = ("x,x_kind,channel,value,n_avg\n"
                "0.0,pulse_length,SIG1,0.05,100\n"
                "1.0,frequency,SIG1,0.05,100\n")
        with pytest.raises(TraceFormatError, match="mixed x_kind"):
            trace_from_csv(text)

    def test_inconsistent_n_avg(self):
        text = ("x,x_kind,channel,value,n_avg\n"
                "0.0,pulse_length,SIG1,0.05,100\n"
                "1.0,pulse_length,SIG1,0.05,200\n")
        with pytest.raises(TraceFormatError, match="n_avg"):
            trace_from_csv(text)

    def test_bad_float_names_line(self):
        text = ("x,x_kind,channel,value,n_avg\n"
                "0.0,pulse_length,SIG1,0.05,100\n"
                "oops,pulse_length,SIG1,0.05,100\n")
        with pytest.raises(TraceFormatError, match=r":3"):
            trace_from_csv(text)

    def test_grid_divergence_between_channels(self):
        text = ("x,x_kind,channel,value,n_avg\n"
                "0.0,pulse_length,SIG1,0.05,100\n"
                "0.0,pulse_length,REF1,0.05,100\n"
                "1.0,pulse_length,SIG1,0.05,100\n"
                "2.0,pulse_length,REF1,0.05,100\n")
        with pytest.raises(TraceFormatError, match="diverges"):
            trace_from_csv(text)

    def test_unequal_channel_lengths(self):
        text = ("x,x_kind,channel,value,n_avg\n"
                "0.0,pulse_length,SIG1,0.05,100\n"
                "0.0,pulse_length,REF1,0.05,100\n"
                "1.0,pulse_length,SIG1,0.05,100\n")
        with pytest.raises(TraceFormatError, match="unequal"):
            trace_from_csv(text)

    def test_empty_data(self):
        with pytest.raises(TraceFormatError, match="no data"):
            trace_from_csv("x,x_kind,channel,value,n_avg\n")

    def test_non_increasing_grid_rejected(self):
        text = ("x,x_kind,channel,value,n_avg\n"
                "1.0,pulse_length,SIG1,0.05,100\n"
                "0.5,pulse_length,SIG1,0.05,100\n")
        with pytest.raises(TraceFormatError):
            trace_from_csv(text)

    def test_source_name_in_message(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,x_kind,channel,value,n_avg\n"
                        "0.0,pulse_length,SIG1,nope,100\n"
                        "1.0,pulse_length,SIG1,0.05,100\n")
        with pytest.raises(TraceFormatError, match="bad.csv:2"):
            read_trace(path)


class TestJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        obj = {"b": [1, 2.5, None], "a": {"nested": True, "s": "x"}}
        write_json(path, obj)
        assert read_json(path) == obj

    def test_invalid_json_names_file_line_and_column(self, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text('{\n  "model": "rabi", ')
        with pytest.raises(TraceFormatError) as exc:
            read_json(path)
        assert str(exc.value) == (
            f"{path}: invalid JSON at line 2, column 20: Expecting property "
            "name enclosed in double quotes")

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "bom16.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(TraceFormatError, match="bom16.json: 'utf-8'"):
            read_json(path)

    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(path, {"zeta": 1, "alpha": 2})
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"zeta"')
        assert text.endswith("\n")


class TestAtomicWrite:
    def test_no_temp_files_left(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.txt"]
        assert leftovers == []

    def test_text_is_utf8(self, tmp_path):
        path = tmp_path / "out.csv"
        atomic_write_text(path, "\u00b5s\n")
        assert path.read_bytes() == b"\xc2\xb5s\n"
        trace = Trace(np.array([0.0, 1.0]), XKind.PULSE_LENGTH,
                      {"SIG\u00b5": np.array([0.5, 0.25])})
        write_trace(path, trace)
        assert list(read_trace(path).channels) == ["SIG\u00b5"]

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"


class TestWriteColumns:
    def test_layout(self, tmp_path):
        path = tmp_path / "cols.csv"
        write_columns(path, ("x", "model"), ([0.0, 1.0], [0.5, 0.25]),
                      comments=("rms=0.1",))
        lines = path.read_text().splitlines()
        assert lines[0] == "# rms=0.1"
        assert lines[1] == "x,model"
        assert lines[2].split(",")[0] == "0.0"

    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "cols.csv"
        vals = np.array([1.0 / 3.0, 0.1, 7.0])
        write_columns(path, ("v",), (vals,))
        lines = [l for l in path.read_text().splitlines()
                 if not l.startswith("#")][1:]
        assert np.array_equal(np.array([float(l) for l in lines]), vals)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_columns(tmp_path / "a.csv", ("x",), ([0.0], [1.0]))
        with pytest.raises(ValueError):
            write_columns(tmp_path / "b.csv", ("x", "y"), ([0.0], [1.0, 2.0]))
        with pytest.raises(ValueError, match="1-d"):
            write_columns(tmp_path / "c.csv", ("x",), ([[0.0], [1.0]],))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_bytes_match_per_row_writer(self, tmp_path_factory, data):
        n_rows = data.draw(st.integers(0, 5))
        names = data.draw(st.lists(_ONE_LINE, min_size=1, max_size=4))
        columns = [data.draw(st.lists(st.floats(), min_size=n_rows,
                                      max_size=n_rows))
                   for _ in names]
        path = tmp_path_factory.mktemp("cols") / "cols.csv"
        write_columns(path, names, columns, comments=("rms=0.1",))
        # the per-row writer it replaced
        buf = io.StringIO()
        buf.write("# rms=0.1\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        for i in range(n_rows):
            writer.writerow([repr(float(c[i])) for c in columns])
        with open(path, newline="") as handle:
            assert handle.read() == buf.getvalue()
