"""Random CLI commands: typed exits, no stray files, outputs that read back.

Each example runs one random simulate, eseem, invert-field, fit,
select-spins or report command, with random flags and values, in a fresh
working directory under tmp_path, so that default output names land
there.  The fit and select-spins inputs are small valid traces, some with
one field corrupted; the report inputs are a fit report of each kind with
one param changed, or cut short, against the small trace it fitted.  An
input or output path can be the working directory itself.  Whatever the
command, it must exit 0, 1, 2 or 3; exits 1 and 2 print `error:` /
`data error:` and leave the directory as it was; and every file written
must read back: a JSON report under a parser that rejects NaN and
Infinity, a report's columns finite.
"""

import copy
import functools
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nvsense.cli as cli
from nvsense.eseem import load_hyperfine_table
from nvsense.io import read_trace, trace_to_csv
from nvsense.presets import (DEFAULT_N_AVG, PRESETS, build_sequence,
                             default_truth, detector, eseem_defaults,
                             simulate_defaults)
from nvsense.synth import SequenceKind, synthesize

KINDS = [kind.value for kind in SequenceKind]
LABELS = sorted(load_hyperfine_table())
CHANNELS = ("SIG1", "SIG2", "REF1", "REF2")


def _fuzz(max_examples):
    """Seeded settings: the same examples on every run."""
    return settings(max_examples=max_examples, derandomize=True,
                    deadline=None, database=None,
                    suppress_health_check=[
                        HealthCheck.function_scoped_fixture,
                        HealthCheck.too_slow])


_WILD_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                         st.sampled_from([0.0, -1.0, 1e-300, 1e300]))
_WILD_INTS = st.one_of(st.integers(-2, 2), st.integers(-2 ** 70, 2 ** 70))
# values drawn whole; the ints a run allocates or loops by stay small
_VALUES = {
    "kind": st.sampled_from(KINDS + ["gaussian", "bogus"]),
    "preset": st.sampled_from(PRESETS + ("bogus",)),
    "out": st.sampled_from(["o.csv", "o.json", "missing/o.csv", "."]),
    "in": st.sampled_from(["in.csv", "absent.csv", "."]),
    "nucleus": st.sampled_from(LABELS + ["bogus"]),
    "species": st.sampled_from(["13C", "14N", "1H"]),
    "channel": st.sampled_from(CHANNELS + ("coherence", "diff", "bogus")),
    "nuclei": st.lists(st.sampled_from(LABELS + ["bogus"]),
                       max_size=3).map(",".join),
    "omegas_mhz": st.lists(st.one_of(st.floats(0.3, 5.0), _WILD_FLOATS),
                           max_size=6).map(lambda ws: ",".join(map(repr, ws))),
    "x_num": st.integers(-1, 40), "n_pulses": st.integers(-2, 40),
    "workers": st.integers(-1, 3), "n_spins": st.integers(-1, 6),
}


def _value(key, default):
    """A flag value: mostly near its default, sometimes far from any."""
    if key in _VALUES:
        return _VALUES[key]
    if isinstance(default, int):
        return st.one_of(st.integers(1, 2 * default), _WILD_INTS)
    near = (st.floats(0.0, 100.0) if default is None
            else st.floats(0.5, 1.5).map(lambda f: f * default))
    return st.one_of(near, near, _WILD_FLOATS)


def _flags(draw, defaults, schema):
    """Random flags, mostly of the keys in defaults, some of any in schema.

    schema maps each key to its type; a bool key is a bare flag.
    """
    keys = draw(st.lists(st.sampled_from(sorted(defaults)), max_size=4,
                         unique=True))
    if draw(st.integers(0, 9)) == 0:
        keys.append(draw(st.sampled_from(sorted(schema))))
    argv = []
    for key in keys:
        flag = cli._SIMULATE_FLAGS.get(key, {}).get(
            "flag", "--" + key.replace("_", "-"))
        if schema[key] is bool:
            argv.append(flag)
        elif draw(st.integers(0, 19)) == 0:
            argv.append(f"{flag}=abc")
        else:
            argv.append(f"{flag}={draw(_value(key, defaults.get(key)))}")
    return argv


def _leaves(schema) -> dict:
    """{key: type} of each schema leaf that has a flag."""
    leaves = {}
    for key, expected in schema.items():
        if isinstance(expected, dict):
            leaves.update(_leaves(expected))
        elif cli._SIMULATE_FLAGS.get(key, {}) is not None:
            leaves[key] = expected
    return leaves


@functools.cache
def _trace_texts() -> dict:
    """A small noisy trace of each kind, as CSV text."""
    texts = {}
    for kind in SequenceKind:
        spec = build_sequence(
            kind, {**simulate_defaults(kind)["sequence"], "x_num": 31})
        trace = synthesize(spec, default_truth(kind),
                           detector(n_avg=DEFAULT_N_AVG[kind], seed=1))
        texts[kind.value] = trace_to_csv(trace)
    return texts


@st.composite
def _input_trace(draw, kind) -> str:
    """A kind's trace as file text, valid or with one field replaced."""
    lines = _trace_texts()[kind].splitlines(True)
    if draw(st.booleans()):
        rows = [i for i, line in enumerate(lines)
                if not line.startswith("#")]
        i = draw(st.sampled_from(rows))
        fields = lines[i].rstrip("\n").split(",")
        j = draw(st.integers(0, len(fields) - 1))
        fields[j] = draw(st.sampled_from(
            ["", "nan", "inf", "-1", "0", "1e999", "abc", '"', "2.5",
             "frequency", "SIG9", "1,2", "18446744073709551616"]))
        lines[i] = ",".join(fields) + "\n"
    return "".join(lines)


# the fit kind of each trace kind that has one
_FIT_OF = {"cpmg-deer": "gaussian", "rabi": "rabi", "deer-rabi": "deer-rabi"}
_INVERT_FIELD = {"f_minus": 1960.0, "f_plus": 3783.39, "f_minus_err": 6.78,
                 "f_plus_err": 3.39, "b_max": 300.0, "g_at": 914.7}


@st.composite
def commands(draw):
    """(argv, files to create first) of one random command."""
    command = draw(st.sampled_from(
        ["simulate", "eseem", "invert-field", "fit", "select-spins"]))
    files = {}
    if command == "simulate":
        kind = draw(st.sampled_from(KINDS))
        defaults = {key: value for section
                    in simulate_defaults(SequenceKind(kind)).values()
                    for key, value in section.items() if key != "channels"}
        defaults.update(seed=1, noiseless=False)
        argv = [command, "--kind", kind,
                *_flags(draw, defaults, _leaves(cli._SIMULATE_SCHEMA))]
        if draw(st.integers(0, 4)) == 0:
            channels = draw(st.lists(st.sampled_from(CHANNELS + ("bogus",)),
                                     max_size=4))
            files["c.json"] = json.dumps({"sequence": {"channels": channels}})
            argv += ["--config", "c.json"]
    elif command == "eseem":
        mode = draw(st.sampled_from(["modulation", "bath", "echo"]))
        defaults = eseem_defaults(mode)
        if mode == "modulation" and draw(st.booleans()):
            defaults = eseem_defaults(mode, custom=True)
        argv = [command, "--mode", mode,
                *_flags(draw, defaults, _leaves(cli._ESEEM_SCHEMA))]
    elif command == "invert-field":
        argv = [command, *(f"--{key.replace('_', '-')}="
                           f"{draw(_value(key, _INVERT_FIELD[key]))}"
                           for key in ("f_minus", "f_plus")),
                *_flags(draw, _INVERT_FIELD, dict.fromkeys(_INVERT_FIELD,
                                                           float))]
        if draw(st.booleans()):
            argv += ["--out", draw(_VALUES["out"])]
    else:
        # mostly a trace of a kind the command fits
        kind = draw(st.one_of(st.sampled_from(
            ["deer-rabi"] if command == "select-spins" else sorted(_FIT_OF)),
            st.sampled_from(KINDS)))
        files["in.csv"] = draw(_input_trace(kind))
        path = draw(st.sampled_from(["in.csv", "in.csv", "absent.csv", "."]))
        if command == "fit":
            fit_kind = draw(st.one_of(st.sampled_from(
                [_FIT_OF.get(kind, "gaussian")]), _VALUES["kind"]))
            reads = {"channel": None}
            if fit_kind == "deer-rabi":
                reads["n_spins"] = 2
            argv = [command, "--in", path, "--kind", fit_kind,
                    *_flags(draw, reads, _leaves(cli._FIT_SCHEMA))]
        else:
            # mostly a max_n in range: the selection runs
            argv = [command, "--in", path, "--max-n",
                    str(draw(st.sampled_from([1, 2, 1, 2, 0, 6])))]
            if draw(st.booleans()):
                argv.append("--no-canonicalize")
        if draw(st.booleans()):
            argv += ["--out", "report.json"]
    return argv, files


def _snapshot() -> dict:
    """Every file of the working directory, hidden ones too, by content."""
    return {path.name: path.read_bytes() for path in Path(".").iterdir()
            if path.is_file()}


def _between_references(trace) -> None:
    """Every SIG channel lies between REF2 (dark) and REF1 (bright)."""
    if not {"REF1", "REF2"} <= set(trace.channels):
        return
    ref1, ref2 = trace.channel("REF1"), trace.channel("REF2")
    for name in trace.channel_names:
        if name.startswith("SIG"):
            sig = trace.channel(name)
            assert np.all((ref2 <= sig) & (sig <= ref1)), name


def _reject_constant(constant):
    raise ValueError(f"{constant} is not JSON")


def _strict_json(path):
    """A JSON report, read back by a parser that rejects NaN and Infinity."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def _finite_columns(path) -> None:
    """A report's x, data, model, residual columns parse and are finite."""
    rows = [line for line in Path(path).read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == "x,data,model,residual"
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert values.shape == (len(rows) - 1, 4)
    assert np.all(np.isfinite(values))


def _run_checked(argv, files, tmp_path, monkeypatch, capsys) -> None:
    """Run argv in a fresh directory and check what it left behind."""
    monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
    for name, text in files.items():
        with open(name, "w") as handle:
            handle.write(text)
    before = _snapshot()
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, err)
    after = _snapshot()
    if code in (1, 2):
        assert err.startswith("error:" if code == 1 else "data error:"), err
        assert after == before, (argv, sorted(set(after) - set(before)))
        return
    for name in sorted(after):
        if after[name] == before.get(name):
            continue
        if argv[0] == "report":
            _finite_columns(name)
            continue
        if argv[0] not in ("simulate", "eseem"):
            _strict_json(name)
            continue
        trace = read_trace(name)
        if argv[0] == "simulate" and "--noiseless" in argv:
            _between_references(trace)


@_fuzz(200)
@given(command=commands())
def test_random_commands(command, tmp_path, monkeypatch, capsys):
    _run_checked(*command, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("kind", KINDS)
@_fuzz(20)
@given(data=st.data())
def test_noiseless_signal_between_references(kind, data, tmp_path,
                                             monkeypatch, capsys):
    # before noise each SIG channel lies between the dark and the bright
    # count, for any truth the kind accepts
    truth = simulate_defaults(SequenceKind(kind))["truth"]
    argv = ["simulate", "--kind", kind, "--noiseless", "--x-num=30",
            *_flags(data.draw, truth,
                    {key: cli._TRUTH_SCHEMA[key] for key in truth})]
    _run_checked(argv, {}, tmp_path, monkeypatch, capsys)


@functools.cache
def _fit_reports() -> dict:
    """The fit report of each fit kind on its trace kind's small trace."""
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        trace, out = Path(tmp, "in.csv"), Path(tmp, "fit.json")
        for kind, fit_kind in _FIT_OF.items():
            trace.write_text(_trace_texts()[kind])
            assert cli.main(["fit", "--kind", fit_kind, "--in", str(trace),
                             "--out", str(out)]) in (0, 3)
            reports[kind] = _strict_json(out)
    return reports


_PARAM_VALUES = st.sampled_from([0, -1, float("nan"), 1e300, "abc", None])


@st.composite
def report_commands(draw):
    """(argv, files) of a report on a fit report with one param changed,
    or cut short."""
    kind = draw(st.sampled_from(sorted(_FIT_OF)))
    report = copy.deepcopy(_fit_reports()[kind])
    params = report["params"]
    change = draw(st.sampled_from(["value", "value", "missing", "coupling",
                                   "cut"]))
    text = None
    if change == "cut":
        whole = json.dumps(report)
        text = whole[:draw(st.integers(0, len(whole) - 1))]
    elif change == "coupling":
        n = sum(key.startswith("omega_") for key in params)
        params[f"omega_{n + 1}_mhz"] = draw(st.one_of(
            st.floats(0.16, 4.8), _PARAM_VALUES))
    else:
        key = draw(st.sampled_from(sorted(params)))
        if change == "missing":
            del params[key]
        else:
            params[key] = draw(_PARAM_VALUES)
    argv = ["report", "--in", "in.csv", "--fit", "fit.json"]
    if draw(st.booleans()):
        argv += ["--out", draw(_VALUES["out"])]
    return argv, {"in.csv": _trace_texts()[kind],
                  "fit.json": json.dumps(report) if text is None else text}


@_fuzz(150)
@given(command=report_commands())
def test_random_reports(command, tmp_path, monkeypatch, capsys):
    # a param the model record rejects is a data error, and a report
    # that is written holds finite columns, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _run_checked(*command, tmp_path, monkeypatch, capsys)
