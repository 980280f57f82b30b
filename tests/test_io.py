"""Trace CSV and JSON report round trips plus format diagnostics."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, -2.5e-310]))
_ONE_LINE = st.text().filter(lambda name: "".join(name.splitlines()) == name)


@st.composite
def traces(draw):
    # unique=True counts -0.0 and 0.0 as equal, so the grid strictly rises
    x = sorted(draw(st.lists(_FINITE, min_size=2, max_size=6, unique=True)))
    names = draw(st.lists(_ONE_LINE, min_size=1, max_size=4, unique=True))
    channels = {name: draw(st.lists(_FINITE, min_size=len(x),
                                    max_size=len(x)))
                for name in names}
    return Trace(np.array(x), draw(st.sampled_from(XKind)), channels,
                 n_avg=draw(st.integers(1, 2 ** 70)))


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

    @settings(max_examples=200, deadline=None)
    @given(tr=traces())
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
    def test_missing_header(self):
        with pytest.raises(TraceFormatError, match="missing header"):
            trace_from_csv("# only comments\n")

    def test_wrong_header_names_line(self):
        text = "# c\nx,kind,channel,value,n\n"
        with pytest.raises(TraceFormatError, match=r"<string>:2"):
            trace_from_csv(text)

    def test_wrong_column_count_names_line(self):
        text = ("x,x_kind,channel,value,n_avg\n"
                "0.0,pulse_length,SIG1,0.05\n")
        with pytest.raises(TraceFormatError, match=r":2: expected 5 columns"):
            trace_from_csv(text)

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
