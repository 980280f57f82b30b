"""Command-line interface: simulate, fit, invert-field, eseem, select-spins, report.

Exit codes: 0 success, 1 usage or configuration error, 2 data-format
error in an input file, 3 fit non-convergence (the report is still
written, flagged).  Config files are JSON with nested sections; flags
override config values.  Frequencies are ordinary MHz and angles
degrees at this boundary; angular rad/us quantities appear only inside
the API.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .core import (TWO_PI, ConfigError, NvSenseError, Trace, TraceFormatError,
                   XKind)
from .deer import DeerSpectrumModel, TargetSpinModel
from .eseem import (HyperfineRecord, bath_decoherence, cpmg_echo_model,
                    eseem_modulation, load_hyperfine_table, nucleus_from_record)
from .fitting import (_GAUSSIAN_PARAMS, _RABI_PARAMS, FitResult, _epr_model,
                      _gaussian_model, _rabi_model, fit_deer_rabi,
                      fit_gaussian_peak, fit_rabi, select_spin_count)
from .hamiltonian import TransitionPair, g_value, invert_field
from .io import read_json, read_trace, write_columns, write_json, write_trace
from .presets import (BATH_B_RMS_UT, CONTRAST, DEFAULT_N_AVG, ECHO_NUCLEI,
                      NULL_CENTERS, carbon_bath, default_sequence,
                      default_truth, detector, main_field)
from .synth import (Cpmg8Truth, OdmrTruth, RabiTruth, SequenceKind,
                    SequenceSpec, coherence_trace, difference_signal,
                    normalized_channels, synthesize)

_PRESET_NAMES = ("coupled-pair",) + tuple(NULL_CENTERS)
_FIT_KINDS = ("gaussian", "rabi", "deer-rabi")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _comma_list(item_type):
    """argparse type for a comma-separated list of item_type."""
    def parse(text: str) -> list:
        try:
            return [item_type(part.strip()) for part in text.split(",")
                    if part.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated {item_type.__name__} list, "
                f"got {text!r}") from None
    return parse


# ---------------------------------------------------------------- config

# The schemas are the one list of simulate and fit parameters: they
# validate config files, and each leaf key, unique across sections, is
# also a flag --key-with-dashes of its type (see _add_schema_flags).
_DETECTOR_SCHEMA = {"counts_bright": float, "counts_dark": float,
                    "contrast": float, "n_avg": int, "noiseless": bool,
                    "n_avg_is_total": bool}
_SEQUENCE_SCHEMA = {"kind": str, "x_start": float, "x_stop": float,
                    "x_num": int, "tau_us": float, "n_pulses": int,
                    "channels": [str]}
_TRUTH_SCHEMA = {"b0_mt": float, "theta_deg": float, "linewidth_mhz": float,
                 "transfer": float, "f_mhz": float, "t0_us": float,
                 "t2_us": float, "b_rms_ut": float, "nuclei": [str],
                 "center_mhz": float, "width_mhz": float, "amplitude": float,
                 "baseline": float, "omegas_mhz": [float]}
_SIMULATE_SCHEMA = {"seed": int, "workers": int, "out": str, "preset": str,
                    "detector": _DETECTOR_SCHEMA,
                    "sequence": _SEQUENCE_SCHEMA,
                    "truth": _TRUTH_SCHEMA}
# the simulate leaves that eseem takes too; it reads them with the same
# defaults, except that a grid default is the eseem mode's
_ESEEM_SCHEMA = {key: {**_SEQUENCE_SCHEMA, **_TRUTH_SCHEMA}[key]
                 for key in ("x_start", "x_stop", "x_num", "n_pulses", "b0_mt",
                             "nuclei", "b_rms_ut", "t2_us")}
_FIT_SCHEMA = {"kind": str, "channel": str, "n_spins": int, "in": str,
               "out": str}

# add_argument settings beyond the schema type, per leaf key; "flag"
# renames the flag and None marks a key that is config-only
_SIMULATE_FLAGS = {
    "kind": {"choices": [k.value for k in SequenceKind]},
    "preset": {"choices": _PRESET_NAMES},
    "workers": {"help": "accepted for compatibility (>= 1); changes "
                        "neither the output nor the speed"},
    "n_avg_is_total": {"flag": "--n-avg-total",
                       "help": "interpret n_avg as a total split across "
                               "points"},
    "channels": None,
    "nuclei": {"help": "comma-separated table labels"},
    "omegas_mhz": {"help": "comma-separated couplings in MHz"},
}
_FIT_FLAGS = {"kind": {"choices": _FIT_KINDS}, "in": {"metavar": "IN_PATH"}}


def _check_scalar(value, expected, where):
    if expected is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif expected is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif expected is bool:
        ok = isinstance(value, bool)
    else:
        ok = isinstance(value, str)
    if not ok:
        raise ConfigError(f"config field {where!r} must be {expected.__name__}, "
                          f"got {value!r}")


def _validate_config(obj, schema, path="") -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"config section {path or '<top>'!r} must be an object")
    for key, value in obj.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"config: unknown key {where!r}")
        expected = schema[key]
        if isinstance(expected, dict):
            _validate_config(value, expected, where)
        elif isinstance(expected, list):
            if not isinstance(value, list):
                raise ConfigError(f"config field {where!r} must be a list")
            for i, item in enumerate(value):
                _check_scalar(item, expected[0], f"{where}[{i}]")
        else:
            _check_scalar(value, expected, where)


def _add_schema_flags(parser, schema, settings) -> None:
    """One flag per schema leaf, stored under the leaf key.

    Flags default to None, so _overlay can tell a flag that was not
    given from one that was.
    """
    for key, expected in schema.items():
        if isinstance(expected, dict):
            _add_schema_flags(parser, expected, settings)
            continue
        if key in settings and settings[key] is None:
            continue
        kwargs = dict(settings.get(key, {}), dest=key)
        flag = kwargs.pop("flag", "--" + key.replace("_", "-"))
        if expected is bool:
            kwargs.update(action="store_true", default=None)
        else:
            kwargs["type"] = (_comma_list(expected[0])
                              if isinstance(expected, list) else expected)
        parser.add_argument(flag, **kwargs)


def _load_config(name, schema) -> dict:
    if name is None:
        return {}
    path = name
    if not os.path.exists(path) and os.sep not in name:
        config_dir = os.environ.get("NVSENSE_CONFIG_DIR")
        if config_dir and os.path.exists(os.path.join(config_dir, name)):
            path = os.path.join(config_dir, name)
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {name}")
    try:
        with open(path, "r") as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None
    _validate_config(obj, schema)
    return obj


def _overlay(config: dict, schema, args) -> dict:
    """Effective config: each flag given over the config value of its key.

    Keys set by neither are left out, so callers supply defaults with
    dict.get.  Sections are always present.
    """
    effective = {}
    for key, expected in schema.items():
        if isinstance(expected, dict):
            effective[key] = _overlay(config.get(key, {}), expected, args)
            continue
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key)
        if value is not None:
            effective[key] = value
    return effective


def _config_hash(effective: dict) -> str:
    canonical = json.dumps(effective, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    config = _overlay(_load_config(args.config, _SIMULATE_SCHEMA),
                      _SIMULATE_SCHEMA, args)
    seq_cfg, det_cfg = config["sequence"], config["detector"]
    kind_str = seq_cfg.get("kind")
    if kind_str is None:
        raise ConfigError("simulate needs --kind (or sequence.kind in config)")
    try:
        kind = SequenceKind(kind_str)
    except ValueError:
        raise ConfigError(f"unknown kind {kind_str!r}; choose from "
                          f"{[k.value for k in SequenceKind]}") from None
    preset = config.get("preset", "coupled-pair")
    if preset not in _PRESET_NAMES:
        raise ConfigError(f"unknown preset {preset!r}; choose from "
                          f"{_PRESET_NAMES}")
    null_center = NULL_CENTERS.get(preset)

    base_seq = default_sequence(kind)
    tau_default = null_center.tau_us if (null_center and base_seq.tau) else base_seq.tau
    grid = _grid(seq_cfg, base_seq.grid)
    try:
        seq = SequenceSpec(
            kind=kind, grid=grid,
            tau=seq_cfg.get("tau_us", tau_default),
            n_pulses=seq_cfg.get("n_pulses", base_seq.n_pulses),
            channels=seq_cfg.get("channels"))
        truth = _build_truth(kind, config["truth"], null_center)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    contrast = det_cfg.get("contrast",
                           null_center.contrast if null_center else CONTRAST)
    n_avg = det_cfg.get("n_avg", null_center.n_avg
                        if null_center and kind is SequenceKind.CPMG_DEER
                        else DEFAULT_N_AVG[kind])
    seed = config.get("seed", 1)
    if config.get("workers", 1) < 1:
        raise ConfigError("workers must be >= 1")
    try:
        det = detector(n_avg=n_avg, contrast=contrast, seed=seed,
                       noiseless=det_cfg.get("noiseless", False),
                       n_avg_is_total=det_cfg.get("n_avg_is_total", False))
        det = dataclasses.replace(det, **{
            key: det_cfg[key] for key in ("counts_bright", "counts_dark")
            if key in det_cfg})
        trace = synthesize(seq, truth, det)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    out = config.get("out", "trace.csv")
    comments = (
        f"kind: {kind.value}",
        f"preset: {preset}",
        f"seed: {seed}",
        f"n_avg: {trace.n_avg} per point per channel",
        f"tau_us: {seq.tau}" if seq.tau else "tau_us: none",
        f"version: {__version__}",
    )
    write_trace(out, trace, comments=comments)
    print(f"wrote {out}: {kind.value}, {trace.x.size} points, "
          f"channels {', '.join(trace.channel_names)}")
    return 0


def _grid(seq_cfg: dict, default: np.ndarray) -> np.ndarray:
    """The default grid with the given x_start, x_stop and x_num put in."""
    x_num = seq_cfg.get("x_num", default.size)
    if x_num < 2:
        raise ConfigError("x_num must be at least 2")
    return np.linspace(seq_cfg.get("x_start", float(default[0])),
                       seq_cfg.get("x_stop", float(default[-1])), x_num)


def _table_nuclei(labels, b0: float) -> tuple:
    """One EseemNucleus at field b0 (mT) per hyperfine table label."""
    table = load_hyperfine_table()
    for label in labels:
        if label not in table:
            raise ConfigError(f"unknown nucleus {label!r}; table has "
                              f"{sorted(table)}")
    return tuple(nucleus_from_record(table[label], b0) for label in labels)


def _build_truth(kind, t: dict, null_center):
    """Truth model of one kind: the truth section t over preset values."""
    field = main_field()
    b0 = t.get("b0_mt", null_center.b0 if null_center else field.b0)
    theta = math.radians(t.get("theta_deg", math.degrees(field.theta)))
    base = default_truth(kind)

    if kind is SequenceKind.PULSED_ODMR:
        return OdmrTruth(b0=b0, theta=theta,
                         linewidth_mhz=t.get("linewidth_mhz",
                                             base.linewidth_mhz),
                         transfer=t.get("transfer", base.transfer))
    if kind is SequenceKind.RABI:
        return RabiTruth(f_mhz=t.get("f_mhz", base.f_mhz),
                         t0_us=t.get("t0_us", base.t0_us))
    if kind is SequenceKind.CPMG8:
        nuclei = _table_nuclei(
            t.get("nuclei", [] if null_center else ECHO_NUCLEI), b0)
        b_rms = t.get("b_rms_ut", BATH_B_RMS_UT)
        bath = carbon_bath(b0, b_rms=b_rms) if b_rms > 0 else None
        t2_default = null_center.t2_us if null_center else base.t2_us
        return Cpmg8Truth(nuclei=nuclei, bath=bath,
                          t2_us=t.get("t2_us", t2_default))
    if kind is SequenceKind.CPMG_DEER:
        amplitude_default = 0.0 if null_center else base.amplitude
        return DeerSpectrumModel(center=t.get("center_mhz", base.center),
                                 width=t.get("width_mhz", base.width),
                                 amplitude=t.get("amplitude",
                                                 amplitude_default),
                                 baseline=t.get("baseline", base.baseline))
    if kind is SequenceKind.DEER_RABI:
        omegas = t.get("omegas_mhz")
        if null_center and omegas is None:
            raise ConfigError(
                f"preset {null_center.name!r} has no coupled target spins; "
                "deer-rabi needs the coupled-pair preset or explicit "
                "--omegas-mhz")
        return TargetSpinModel(
            omegas=(base.omegas if omegas is None
                    else tuple(TWO_PI * f for f in omegas)),
            t0=t.get("t0_us", base.t0))
    raise ConfigError(f"unhandled kind {kind!r}")


# ---------------------------------------------------------------- fit

def _prepare_fit_input(trace: Trace, kind: str, channel) -> Trace:
    """Reduce a raw multichannel trace to the channel the fit expects."""
    if channel is not None or len(trace.channels) == 1:
        return trace
    if "REF1" not in trace.channels or "REF2" not in trace.channels:
        raise ConfigError(
            "trace has multiple channels but no REF1/REF2 pair; pass "
            "--channel to pick one")
    if kind == "gaussian":
        return trace.with_channels({"diff": difference_signal(trace)})
    if kind == "rabi":
        return trace.with_channels(
            {"SIG1n": normalized_channels(trace)["SIG1n"]})
    return coherence_trace(trace)


def _fit_report(result: FitResult, extra: dict) -> dict:
    report = {
        "version": __version__,
        "params": {name: float(value) for name, value
                   in zip(result.param_names, result.params)},
        "param_errors": (None if result.param_errors is None else
                         {name: float(err) for name, err
                          in zip(result.param_names, result.param_errors)}),
        "ss_res": result.ss_res,
        "adj_r2": result.adj_r2,
        "converged": bool(result.converged),
        "n_iter": result.n_iter,
        "n_starts": result.n_starts,
        "n_model_evals": result.n_model_evals,
    }
    report.update(extra)
    return report


def _print_fit(result: FitResult) -> None:
    print(f"converged: {'yes' if result.converged else 'NO'}  "
          f"(iterations: {result.n_iter}, ss_res: {result.ss_res:.6g}, "
          f"adj R^2: {result.adj_r2:.4f})")
    errors = (result.param_errors if result.param_errors is not None
              else [float("nan")] * len(result.params))
    for name, value, err in zip(result.param_names, result.params, errors):
        print(f"  {name} = {value:.6g} +/- {err:.3g}")


def _cmd_fit(args) -> int:
    config = _overlay(_load_config(args.config, _FIT_SCHEMA), _FIT_SCHEMA,
                      args)
    kind = config.get("kind")
    if kind not in _FIT_KINDS:
        raise ConfigError("fit needs --kind gaussian | rabi | deer-rabi")
    in_path = config.get("in")
    if in_path is None:
        raise ConfigError("fit needs --in <trace.csv>")
    channel = config.get("channel")
    trace = read_trace(in_path)
    work = _prepare_fit_input(trace, kind, channel)
    n_spins = None
    if kind == "gaussian":
        result = fit_gaussian_peak(work, channel=channel, min_snr=0.0)
    elif kind == "rabi":
        result = fit_rabi(work, channel=channel)
    else:
        n_spins = config.get("n_spins", 2)
        result = fit_deer_rabi(work, n_spins=n_spins, channel=channel)
    _print_fit(result)
    effective = {"command": "fit", "kind": kind, "in": str(in_path),
                 "channel": channel, "n_spins": n_spins}
    out = config.get("out")
    if out:
        report = _fit_report(result, {
            "command": "fit", "model": kind, "input": str(in_path),
            "n_points": int(work.x.size), "seed": None,
            "config_hash": _config_hash(effective),
        })
        write_json(out, report)
        print(f"wrote {out}")
    return 0 if result.converged else 3


# ---------------------------------------------------------------- invert-field

def _cmd_invert_field(args) -> int:
    try:
        pair = TransitionPair(f_minus=args.f_minus, f_plus=args.f_plus)
        estimate = invert_field(pair, (args.f_minus_err, args.f_plus_err),
                                b_max=args.b_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    theta_deg = math.degrees(estimate.theta)
    theta_err_deg = math.degrees(estimate.theta_err)
    print(f"B0 = {estimate.b0:.3f} +/- {estimate.b0_err:.3f} mT")
    print(f"theta = {theta_deg:.2f} +/- {theta_err_deg:.2f} deg")
    if args.g_at is not None:
        g = g_value(args.g_at, estimate.b0)
        print(f"g({args.g_at:g} MHz) = {g:.4f}")
    if args.out:
        write_json(args.out, {
            "version": __version__, "command": "invert-field",
            "f_minus_mhz": args.f_minus, "f_plus_mhz": args.f_plus,
            "b0_mt": estimate.b0, "b0_err_mt": estimate.b0_err,
            "theta_deg": theta_deg, "theta_err_deg": theta_err_deg,
            "seed": None,
            "config_hash": _config_hash({
                "f_minus": args.f_minus, "f_plus": args.f_plus,
                "errors": [args.f_minus_err, args.f_plus_err]}),
        })
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------- eseem

_ESEEM_GRIDS = {"modulation": (0.0, 2.5, 251), "bath": (0.0, 4.0, 201)}


def _cmd_eseem(args) -> int:
    cfg = _overlay({}, _ESEEM_SCHEMA, args)
    b0 = cfg.get("b0_mt", main_field().b0)
    echo_seq = default_sequence(SequenceKind.CPMG8)
    n_pulses = cfg.get("n_pulses", echo_seq.n_pulses)
    grid = _grid(cfg, echo_seq.grid if args.mode == "echo"
                 else np.linspace(*_ESEEM_GRIDS[args.mode]))
    try:
        if args.mode == "modulation":
            if args.a_mhz is not None or args.b_mhz is not None:
                if args.a_mhz is None or args.b_mhz is None:
                    raise ConfigError("--a-mhz and --b-mhz go together")
                nucleus = nucleus_from_record(HyperfineRecord(
                    "custom", args.species, args.a_mhz, args.b_mhz), b0)
            else:
                nucleus, = _table_nuclei([args.nucleus or ECHO_NUCLEI[0]], b0)
            values = {"V": eseem_modulation(grid, n_pulses, nucleus)}
            comment = f"echo modulation V(tau), N={n_pulses}, B0={b0} mT"
        elif args.mode == "bath":
            b_rms = cfg.get("b_rms_ut", BATH_B_RMS_UT)
            bath = carbon_bath(b0, b_rms=b_rms)
            values = {"C": bath_decoherence(grid, bath, n_pulses)}
            comment = (f"bath coherence C(tau), N={n_pulses}, "
                       f"B_rms={b_rms} uT, B0={b0} mT")
        else:
            truth = _build_truth(SequenceKind.CPMG8, cfg, None)
            s = cpmg_echo_model(grid, truth.nuclei, truth.bath, truth.t2_us,
                                n_pulses=n_pulses)
            values = {"s": s, "population": 0.5 * (1.0 + s)}
            comment = (f"echo coherence s(t_total), N={n_pulses}, "
                       f"T2={truth.t2_us} us, B0={b0} mT")
        trace = Trace(grid, XKind.EVOLUTION_TIME, values, n_avg=1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    x_name = "t_total (us)" if args.mode == "echo" else "tau (us)"
    write_trace(args.out, trace, comments=(comment, f"x is {x_name}"))
    print(f"wrote {args.out}: {args.mode}, {grid.size} points")
    return 0


# ---------------------------------------------------------------- select-spins

def _cmd_select_spins(args) -> int:
    trace = read_trace(getattr(args, "in_path"))
    if len(trace.channels) > 1:
        trace = _prepare_fit_input(trace, "deer-rabi", None)
    sel = select_spin_count(trace, max_n=args.max_n, k_fixed=args.k_fixed,
                            canonicalize=not args.no_canonicalize)
    print(" n  k   adj_R2     converged  couplings (MHz) and T0 (us)")
    for n, entry in sorted(sel.entries.items()):
        fit = entry.fit
        omegas = ", ".join(f"{w / TWO_PI:.3f}" for w in fit.params[:-1])
        mark = " *" if n == sel.best_n else "  "
        print(f"{mark}{n}  {entry.k}  {entry.adj_r2: .4f}   "
              f"{'yes' if fit.converged else 'NO '}        "
              f"[{omegas}]  T0={fit.params[-1]:.3f}")
    print(f"best_n = {sel.best_n}" + ("  (no significant signal: all "
                                      "adjusted R^2 <= 0)" if sel.no_signal
                                      else ""))
    best_fit = sel.entries[sel.best_n].fit
    if args.out:
        report = {
            "version": __version__, "command": "select-spins",
            "input": str(getattr(args, "in_path")),
            "best_n": sel.best_n, "no_signal": sel.no_signal,
            "seed": None,
            "config_hash": _config_hash({
                "max_n": args.max_n, "k_fixed": args.k_fixed,
                "canonicalize": not args.no_canonicalize}),
            "models": {
                str(n): {
                    "k": entry.k,
                    "adj_r2": entry.adj_r2,
                    "converged": bool(entry.fit.converged),
                    "ss_res": entry.fit.ss_res,
                    "n_starts": entry.fit.n_starts,
                    "n_model_evals": entry.fit.n_model_evals,
                    "omegas_mhz": [float(w / TWO_PI)
                                   for w in entry.fit.params[:-1]],
                    "t0_us": float(entry.fit.params[-1]),
                } for n, entry in sel.entries.items()},
        }
        write_json(args.out, report)
        print(f"wrote {args.out}")
    return 0 if best_fit.converged else 3


# ---------------------------------------------------------------- report

def _model_from_report(report: dict):
    kind = report.get("model")
    params = report.get("params", {})
    if kind == "gaussian":
        model, names = _gaussian_model, _GAUSSIAN_PARAMS
    elif kind == "rabi":
        model, names = _rabi_model, _RABI_PARAMS
    elif kind == "deer-rabi":
        model = _epr_model
        names = sorted(name for name in params if name.startswith("omega_"))
        names.append("t0_us")
    else:
        raise ConfigError(f"fit report has unknown model {kind!r}")
    missing = [name for name in names if name not in params]
    if missing:
        raise TraceFormatError(f"{kind} fit report lacks params {missing}")
    p = np.array([params[name] for name in names])
    return (lambda x: model(p, x)), kind


def _cmd_report(args) -> int:
    trace = read_trace(getattr(args, "in_path"))
    fit_report = read_json(args.fit)
    if not isinstance(fit_report, dict):
        raise TraceFormatError(f"{args.fit}: fit report must be a JSON object")
    fn, kind = _model_from_report(fit_report)
    work = _prepare_fit_input(trace, kind, None)
    name = next(iter(work.channels))
    data = work.channel(name)
    model = fn(work.x)
    residual = data - model
    write_columns(args.out, ("x", "data", "model", "residual"),
                  (work.x, data, model, residual),
                  comments=(f"model: {kind}",
                            f"params: {json.dumps(fit_report['params'], sort_keys=True)}",
                            f"source trace: {getattr(args, 'in_path')}",
                            f"version: {__version__}"))
    rms = float(np.sqrt(np.mean(residual ** 2)))
    print(f"wrote {args.out}: {work.x.size} rows ({kind} model, channel "
          f"{name!r}, residual rms {rms:.4g})")
    return 0


# ---------------------------------------------------------------- parser

def _build_parser() -> _Parser:
    parser = _Parser(prog="nvsense",
                     description="Simulate and analyze single-spin sensing "
                                 "experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesize a photon-count trace",
                         description="Synthesize a photon-count trace for one "
                                     "experiment kind")
    sim.add_argument("--config")
    _add_schema_flags(sim, _SIMULATE_SCHEMA, _SIMULATE_FLAGS)
    sim.set_defaults(func=_cmd_simulate)

    fit = sub.add_parser("fit", help="fit a model to a trace CSV")
    fit.add_argument("--config")
    _add_schema_flags(fit, _FIT_SCHEMA, _FIT_FLAGS)
    fit.set_defaults(func=_cmd_fit)

    inv = sub.add_parser("invert-field",
                         help="field magnitude and tilt from two resonances")
    inv.add_argument("--f-minus", type=float, required=True, dest="f_minus")
    inv.add_argument("--f-plus", type=float, required=True, dest="f_plus")
    inv.add_argument("--f-minus-err", type=float, default=0.0,
                     dest="f_minus_err")
    inv.add_argument("--f-plus-err", type=float, default=0.0,
                     dest="f_plus_err")
    inv.add_argument("--b-max", type=float, default=300.0, dest="b_max")
    inv.add_argument("--g-at", type=float, dest="g_at",
                     help="also print the g-value of a resonance at this "
                          "frequency (MHz)")
    inv.add_argument("--out")
    inv.set_defaults(func=_cmd_invert_field)

    ese = sub.add_parser("eseem", help="evaluate modulation/decoherence models")
    ese.add_argument("--mode", choices=["modulation", "bath", "echo"],
                     required=True)
    ese.add_argument("--out", default="eseem.csv")
    _add_schema_flags(ese, _ESEEM_SCHEMA, _SIMULATE_FLAGS)
    ese.add_argument("--nucleus", help="table label for --mode modulation")
    ese.add_argument("--a-mhz", type=float, dest="a_mhz")
    ese.add_argument("--b-mhz", type=float, dest="b_mhz")
    ese.add_argument("--species", choices=["13C", "14N"], default="13C")
    ese.set_defaults(func=_cmd_eseem)

    sel = sub.add_parser("select-spins",
                         help="compare 1..max_n spin models by adjusted R^2")
    sel.add_argument("--in", dest="in_path", required=True)
    sel.add_argument("--max-n", type=int, default=3, dest="max_n")
    sel.add_argument("--k-fixed", type=int, dest="k_fixed")
    sel.add_argument("--no-canonicalize", action="store_true",
                     dest="no_canonicalize")
    sel.add_argument("--out")
    sel.set_defaults(func=_cmd_select_spins)

    rep = sub.add_parser("report",
                         help="plot-ready columns (x, data, model, residual)")
    rep.add_argument("--in", dest="in_path", required=True)
    rep.add_argument("--fit", required=True,
                     help="fit report JSON produced by the fit command")
    rep.add_argument("--out", default="report.csv")
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TraceFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NvSenseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
