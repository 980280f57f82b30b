"""Command-line interface: simulate, fit, invert-field, eseem, select-spins, report.

Exit codes: 0 success, 1 usage, configuration or file-system error (a
missing path or a directory), 2 data-format error in an input file (not
UTF-8 or not JSON included), 3 fit non-convergence (the report is still
written, flagged).  Config files are JSON with nested sections; flags
override config values.  Frequencies are ordinary MHz and angles
degrees at this boundary: `fit` and `select-spins` write each fit
through _fit_record, which reports the library's omega_<i>_rad_us
couplings as omega_<i>_mhz, and `report` reads them back in MHz.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .core import (TWO_PI, ConfigError, NvSenseError, Trace, TraceFormatError,
                   XKind)
from .eseem import (HyperfineRecord, bath_decoherence, cpmg_echo_model,
                    eseem_modulation, nucleus_from_record)
from .deer import (DeerSpectrumModel, TargetSpinModel, deer_spectrum,
                   nv_epr_signal)
from .fitting import (GAUSSIAN_PARAMS, RABI_PARAMS, FitResult, fit_deer_rabi,
                      fit_gaussian_peak, fit_rabi, select_spin_count)
from .hamiltonian import TransitionPair, g_value, invert_field
from .io import read_json, read_trace, write_columns, write_json, write_trace
from .presets import (PRESETS, build_sequence, build_truth, carbon_bath,
                      detector, eseem_defaults, simulate_defaults, sweep_grid,
                      table_nuclei)
from .synth import (DetectorModel, RabiTruth, SequenceKind, coherence_trace,
                    difference_signal, normalized_channels, synthesize)


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
# the simulate leaves that eseem takes too, then its nucleus flags
_ESEEM_SCHEMA = {**{key: {**_SEQUENCE_SCHEMA, **_TRUTH_SCHEMA}[key]
                    for key in ("x_start", "x_stop", "x_num", "n_pulses",
                                "b0_mt", "nuclei", "b_rms_ut", "t2_us")},
                 "nucleus": str, "a_mhz": float, "b_mhz": float,
                 "species": str}
_FIT_SCHEMA = {"kind": str, "channel": str, "n_spins": int, "in": str,
               "out": str}

# add_argument settings beyond the schema type, per leaf key; "flag"
# renames the flag and None marks a key that is config-only
_SIMULATE_FLAGS = {
    "kind": {"choices": [k.value for k in SequenceKind]},
    "preset": {"choices": PRESETS},
    "workers": {"help": "accepted for compatibility (>= 1); changes "
                        "neither the output nor the speed"},
    "n_avg_is_total": {"flag": "--n-avg-total",
                       "help": "interpret n_avg as a total split across "
                               "points"},
    "channels": None,
    "nuclei": {"help": "comma-separated table labels"},
    "omegas_mhz": {"help": "comma-separated couplings in MHz"},
    "nucleus": {"help": "table label for --mode modulation"},
    "species": {"choices": ["13C", "14N"],
                "help": "species of --a-mhz/--b-mhz (default 13C)"},
}


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
    if expected is float and isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            raise ConfigError(
                f"config field {where!r} must be float, got an int of "
                f"{len(str(abs(value)))} digits, past the float range"
            ) from None


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
        obj = read_json(path)
    except TraceFormatError as exc:  # a bad config file exits 1
        raise ConfigError(str(exc)) from None
    _validate_config(obj, schema)
    return obj


def _overlay(config: dict, schema, args) -> dict:
    """Effective config: each flag given over the config value of its key.

    Keys set by neither are left out, so a caller can tell them from its
    defaults.  Sections are always present.
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


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    config = _overlay(_load_config(args.config, _SIMULATE_SCHEMA),
                      _SIMULATE_SCHEMA, args)
    kind_str = config["sequence"].pop("kind", None)
    if kind_str is None:
        raise ConfigError("simulate needs --kind (or sequence.kind in config)")
    try:
        kind = SequenceKind(kind_str)
    except ValueError:
        raise ConfigError(f"unknown kind {kind_str!r}; choose from "
                          f"{[k.value for k in SequenceKind]}") from None
    preset = config.get("preset", "coupled-pair")
    run = simulate_defaults(kind, preset)
    for name in ("truth", "sequence"):
        _reject_unread(config[name], run[name], f"kind {kind.value}")
        run[name].update(config[name])
    seq = build_sequence(kind, run["sequence"])
    if None in run["truth"].values():
        raise ConfigError(
            f"preset {preset!r} has no coupled target spins; "
            f"{kind.value} needs the coupled-pair preset or explicit "
            "--omegas-mhz")
    truth = build_truth(kind, run["truth"])

    seed = config.get("seed", 1)
    if config.get("workers", 1) < 1:
        raise ConfigError("workers must be >= 1")
    trace = synthesize(seq, truth,
                       _detector(config["detector"], run["detector"], seed))

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


def _detector(given: dict, defaults: dict, seed: int) -> DetectorModel:
    """The detector of the given keys over the kind's contrast and n_avg.

    A given contrast and one given count fix the other count; without a
    given contrast, a count not given is the preset detector's.
    """
    det = {**defaults, **given}
    contrast = det.pop("contrast")
    counts = {key: det.pop(key) for key in ("counts_bright", "counts_dark")
              if key in det}
    if "contrast" in given and counts:
        if len(counts) == 2:
            raise ConfigError("counts_bright, counts_dark and contrast "
                              "cannot all be given; two fix the third")
        if not 0 < contrast < 1:
            raise ConfigError(f"contrast {contrast!r} must lie in (0, 1)")
        if "counts_bright" in counts:
            counts["counts_dark"] = counts["counts_bright"] * (1.0 - contrast)
        else:
            counts["counts_bright"] = counts["counts_dark"] / (1.0 - contrast)
    return dataclasses.replace(detector(contrast=contrast, seed=seed, **det),
                               **counts)


def _reject_unread(given, reads, subject: str) -> None:
    """ConfigError naming the given keys that subject never reads."""
    unread = [key for key in given if key not in reads]
    if unread:
        also = f"; it reads {', '.join(reads)}" if reads else ""
        raise ConfigError(f"{subject} does not read {', '.join(unread)}{also}")


# ---------------------------------------------------------------- fit

@dataclasses.dataclass(frozen=True)
class _FitKind:
    """What fit, report and select-spins know of one fit kind."""

    reduce: object       # raw REF1/REF2 trace -> the one channel it fits
    recipe: object       # (trace, channel=, **reads) -> FitResult
    param_names: object  # report params -> the order record takes them
    record: object       # params -> the model record, which checks them
    model: object        # (record, x) -> the fitted curve, for report
    # the fit config keys the recipe reads, with their defaults
    reads: dict = dataclasses.field(default_factory=dict)

    def prepare(self, trace: Trace, channel) -> Trace:
        """The trace the recipe fits: as given, or reduced to one channel."""
        if channel is not None and channel not in trace.channels:
            raise ConfigError(f"no channel {channel!r}; trace has "
                              f"{sorted(trace.channels)}")
        if channel is not None or len(trace.channels) == 1:
            return trace
        if "REF1" not in trace.channels or "REF2" not in trace.channels:
            raise ConfigError(
                "trace has multiple channels but no REF1/REF2 pair; pass "
                "--channel to pick one")
        return self.reduce(trace)


def _coupling_names(params: dict) -> list:
    """A deer-rabi report's param names in record order: couplings, T0."""
    if rad_us := sorted(k for k in params if k.endswith("_rad_us")):
        raise TraceFormatError(f"deer-rabi fit report params {rad_us} are "
                               "in rad/us; couplings are omega_<i>_mhz, MHz")
    return sorted(k for k in params if k.startswith("omega_")) + ["t0_us"]


# the recipes are looked up when called, not when the table is built
_FITS = {
    "gaussian": _FitKind(
        reduce=lambda tr: tr.with_channels({"diff": difference_signal(tr)}),
        recipe=lambda tr, channel: fit_gaussian_peak(tr, channel=channel,
                                                     min_snr=0.0),
        param_names=lambda params: GAUSSIAN_PARAMS,
        record=lambda p: DeerSpectrumModel(*p),
        model=lambda line, x: deer_spectrum(x, line)),
    "rabi": _FitKind(
        reduce=lambda tr: tr.with_channels(
            {"SIG1n": normalized_channels(tr)["SIG1n"]}),
        recipe=lambda tr, channel: fit_rabi(tr, channel=channel),
        param_names=lambda params: RABI_PARAMS,
        record=lambda p: RabiTruth(*p),
        model=RabiTruth.signal),
    "deer-rabi": _FitKind(
        reduce=coherence_trace,
        recipe=lambda tr, channel, n_spins: fit_deer_rabi(
            tr, n_spins=n_spins, channel=channel),
        param_names=_coupling_names,
        record=lambda p: TargetSpinModel(
            omegas=tuple(TWO_PI * w for w in p[:-1]), t0=p[-1]),
        model=lambda spins, x: nv_epr_signal(spins, x),
        reads={"n_spins": 2}),
}
_FIT_FLAGS = {"kind": {"choices": tuple(_FITS)}, "in": {"metavar": "IN_PATH"}}


def _provenance(command: str, hashed: dict) -> dict:
    """The fields every JSON report opens with; hashed is its config."""
    canonical = json.dumps(hashed, sort_keys=True, default=str)
    return {"version": __version__, "command": command,
            "config_hash": hashlib.sha256(canonical.encode()).hexdigest()}


def _fit_record(result: FitResult) -> dict:
    """One fit as fit and select-spins print and write it.

    stop_reason, winning_start and n_rounds are those of the winning
    start: why it ended (converged, max_iter or stalled), its index among
    the fit's starts and the engine rounds it ran.  adj_r2 is null where
    it is undefined (a constant channel).  params and param_errors are
    keyed by the fit's param names, except that a coupling
    omega_<i>_rad_us is reported as omega_<i>_mhz, divided by 2 pi.  The
    error of a parameter on its bound, nan in the fit, is null.
    """
    def keyed(values):
        return None if values is None else {
            name.replace("_rad_us", "_mhz"):
                None if math.isnan(v)
                else v / (TWO_PI if name.endswith("_rad_us") else 1.0)
            for name, v in zip(result.param_names, values.tolist())}

    return {"converged": bool(result.converged), "ss_res": result.ss_res,
            "n_starts": result.n_starts, "n_model_evals": result.n_model_evals,
            "n_retired": result.n_retired, "stop_reason": result.stop_reason,
            "winning_start": result.winning_start,
            "n_rounds": result.n_rounds, "n_iter": result.n_iter,
            "k": result.params.size,
            "adj_r2": result.adj_r2 if math.isfinite(result.adj_r2) else None,
            "params": keyed(result.params),
            "param_errors": keyed(result.param_errors)}


def _adj_r2(record: dict) -> float:  # nan where the record holds null
    return math.nan if record["adj_r2"] is None else record["adj_r2"]


def _plus_minus(record: dict, name: str) -> str:
    """'+/- error' of a record's parameter, 'n/a' where it has none."""
    error = (record["param_errors"] or {}).get(name)
    return "+/- " + ("n/a" if error is None else f"{error:.3g}")


def _cmd_fit(args) -> int:
    config = _overlay(_load_config(args.config, _FIT_SCHEMA), _FIT_SCHEMA,
                      args)
    kind, in_path = config.pop("kind", None), config.pop("in", None)
    channel, out = config.pop("channel", None), config.pop("out", None)
    if kind not in _FITS:
        raise ConfigError(f"fit needs --kind {' | '.join(_FITS)}")
    if in_path is None:
        raise ConfigError("fit needs --in <trace.csv>")
    fit = _FITS[kind]
    _reject_unread(config, fit.reads, f"kind {kind}")
    reads = {**fit.reads, **config}
    work = fit.prepare(read_trace(in_path), channel)
    record = _fit_record(fit.recipe(work, channel=channel, **reads))
    print(f"converged: {'yes' if record['converged'] else 'NO'}  "
          f"(iterations: {record['n_iter']}, ss_res: {record['ss_res']:.6g}, "
          f"adj R^2: {_adj_r2(record):.4f})")
    for name, value in record["params"].items():
        print(f"  {name} = {value:.6g} {_plus_minus(record, name)}")
    if out:
        # the hash covers every fit key but out, null where kind reads none
        hashed = {**{key: None for key in _FIT_SCHEMA if key != "out"},
                  "command": "fit", "kind": kind, "in": str(in_path),
                  "channel": channel, **reads}
        write_json(out, {
            **_provenance("fit", hashed), **record,
            "model": kind, "channel": channel, "input": str(in_path),
            "n_points": int(work.x.size),
        })
        print(f"wrote {out}")
    return 0 if record["converged"] else 3


# ---------------------------------------------------------------- invert-field

def _cmd_invert_field(args) -> int:
    pair = TransitionPair(f_minus=args.f_minus, f_plus=args.f_plus)
    estimate = invert_field(pair, (args.f_minus_err, args.f_plus_err),
                            b_max=args.b_max)
    theta_deg = math.degrees(estimate.theta)
    theta_err_deg = math.degrees(estimate.theta_err)
    print(f"B0 = {estimate.b0:.3f} +/- {estimate.b0_err:.3f} mT")
    print(f"theta = {theta_deg:.2f} +/- {theta_err_deg:.2f} deg")
    if args.g_at is not None:
        g = g_value(args.g_at, estimate.b0)
        print(f"g({args.g_at:g} MHz) = {g:.4f}")
    if args.out:
        write_json(args.out, {
            **_provenance("invert-field", {
                "f_minus": args.f_minus, "f_plus": args.f_plus,
                "errors": [args.f_minus_err, args.f_plus_err]}),
            "f_minus_mhz": args.f_minus, "f_plus_mhz": args.f_plus,
            "b0_mt": estimate.b0, "b0_err_mt": estimate.b0_err,
            "theta_deg": theta_deg, "theta_err_deg": theta_err_deg,
        })
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------- eseem

def _cmd_eseem(args) -> int:
    given = _overlay({}, _ESEEM_SCHEMA, args)
    custom = args.mode == "modulation" and ("a_mhz" in given
                                            or "b_mhz" in given)
    defaults = eseem_defaults(args.mode, custom)
    _reject_unread(given, defaults, f"--mode {args.mode}"
                   + (" with --a-mhz/--b-mhz" if custom else ""))
    cfg = {**defaults, **given}
    b0, n_pulses = cfg["b0_mt"], cfg["n_pulses"]
    grid = sweep_grid(cfg)
    if args.mode == "modulation":
        if custom:
            if cfg["a_mhz"] is None or cfg["b_mhz"] is None:
                raise ConfigError("--a-mhz and --b-mhz go together")
            nucleus = nucleus_from_record(HyperfineRecord(
                "custom", cfg["species"], cfg["a_mhz"], cfg["b_mhz"]), b0)
        else:
            nucleus, = table_nuclei([cfg["nucleus"]], b0)
        values = {"V": eseem_modulation(grid, n_pulses, nucleus)}
        comment = f"echo modulation V(tau), N={n_pulses}, B0={b0} mT"
    elif args.mode == "bath":
        bath = carbon_bath(b0, b_rms=cfg["b_rms_ut"])
        values = {"C": bath_decoherence(grid, bath, n_pulses)}
        comment = (f"bath coherence C(tau), N={n_pulses}, "
                   f"B_rms={cfg['b_rms_ut']} uT, B0={b0} mT")
    else:
        truth = build_truth(SequenceKind.CPMG8, cfg)
        s = cpmg_echo_model(grid, truth.nuclei, truth.bath, truth.t2_us,
                            n_pulses=n_pulses)
        values = {"s": s, "population": 0.5 * (1.0 + s)}
        comment = (f"echo coherence s(t_total), N={n_pulses}, "
                   f"T2={truth.t2_us} us, B0={b0} mT")
    trace = Trace(grid, XKind.EVOLUTION_TIME, values, n_avg=1)
    x_name = "t_total (us)" if args.mode == "echo" else "tau (us)"
    write_trace(args.out, trace, comments=(comment, f"x is {x_name}"))
    print(f"wrote {args.out}: {args.mode}, {grid.size} points")
    return 0


# ---------------------------------------------------------------- select-spins

def _cmd_select_spins(args) -> int:
    trace = _FITS["deer-rabi"].prepare(read_trace(getattr(args, "in_path")),
                                       None)
    sel = select_spin_count(trace, max_n=args.max_n,
                            canonicalize=not args.no_canonicalize)
    records = {n: _fit_record(entry.fit)
               for n, entry in sorted(sel.entries.items())}
    print(" n  k   adj_R2     converged  couplings (MHz) and T0 (us)")
    for n, record in records.items():
        *omegas, t0 = (f"{value:.3f} {_plus_minus(record, name)}"
                       for name, value in record["params"].items())
        mark = " *" if n == sel.best_n else "  "
        print(f"{mark}{n}  {record['k']}  {_adj_r2(record): .4f}   "
              f"{'yes' if record['converged'] else 'NO '}        "
              f"[{', '.join(omegas)}]  T0={t0}")
    print(f"best_n = {sel.best_n}" + ("  (no significant signal: all "
                                      "adjusted R^2 <= 0)" if sel.no_signal
                                      else ""))
    if args.out:
        write_json(args.out, {
            **_provenance("select-spins", {
                "max_n": args.max_n,
                "canonicalize": not args.no_canonicalize}),
            "input": str(getattr(args, "in_path")),
            "best_n": sel.best_n, "no_signal": sel.no_signal,
            "models": {str(n): record for n, record in records.items()},
        })
        print(f"wrote {args.out}")
    return 0 if records[sel.best_n]["converged"] else 3


# ---------------------------------------------------------------- report

def _finite_number(value) -> bool:
    """A real, finite JSON number: an int or a float, but not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def _cmd_report(args) -> int:
    trace = read_trace(getattr(args, "in_path"))
    fit_report = read_json(args.fit)
    if not isinstance(fit_report, dict):
        raise TraceFormatError(f"{args.fit}: fit report must be a JSON object")
    kind = fit_report.get("model")
    fit = _FITS.get(kind) if isinstance(kind, str) else None
    if fit is None:
        raise ConfigError(f"fit report has unknown model {kind!r}")
    params = fit_report.get("params", {})
    if not isinstance(params, dict):
        raise TraceFormatError(f"{kind} fit report 'params' must be a JSON "
                               f"object, got {params!r}")
    names = fit.param_names(params)
    missing = [name for name in names if name not in params]
    if missing:
        raise TraceFormatError(f"{kind} fit report lacks params {missing}")
    for name in names:
        if not _finite_number(params[name]):
            raise TraceFormatError(f"{kind} fit report param {name!r} must "
                                   f"be a finite number, got {params[name]!r}")
    given = {name: params[name] for name in names}
    try:
        record = fit.record([float(value) for value in given.values()])
    except ValueError as exc:
        raise TraceFormatError(f"{kind} fit report params {given} are "
                               f"outside the model: {exc}") from None
    channel = fit_report.get("channel")  # None: fitted the prepared trace
    work = fit.prepare(trace, channel)
    name = channel or next(iter(work.channels))
    data = work.channel(name)
    # as in synthesis: a param near the float range's ends overflows,
    # or divides by an underflow to 0, on the way to the model's limit
    with np.errstate(over="ignore", divide="ignore"):
        model = fit.model(record, work.x)
        residual = data - model
        rms = float(np.sqrt(np.mean(residual ** 2)))
    write_columns(args.out, ("x", "data", "model", "residual"),
                  (work.x, data, model, residual),
                  comments=(f"model: {kind}",
                            f"params: {json.dumps(fit_report['params'], sort_keys=True)}",
                            f"source trace: {getattr(args, 'in_path')}",
                            f"version: {__version__}"))
    print(f"wrote {args.out}: {work.x.size} rows ({kind} model, channel "
          f"{name!r}, residual rms {rms:.4g})")
    return 0


# ---------------------------------------------------------------- parser

@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process; parse_args keeps no state."""
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
    inv.add_argument("--f-minus", type=float, required=True)
    inv.add_argument("--f-plus", type=float, required=True)
    inv.add_argument("--f-minus-err", type=float, default=0.0)
    inv.add_argument("--f-plus-err", type=float, default=0.0)
    inv.add_argument("--b-max", type=float, default=300.0)
    inv.add_argument("--g-at", type=float,
                     help="also print the g-value of a resonance at this "
                          "frequency (MHz)")
    inv.add_argument("--out")
    inv.set_defaults(func=_cmd_invert_field)

    ese = sub.add_parser("eseem", help="evaluate modulation/decoherence models")
    ese.add_argument("--mode", choices=["modulation", "bath", "echo"],
                     required=True)
    ese.add_argument("--out", default="eseem.csv")
    _add_schema_flags(ese, _ESEEM_SCHEMA, _SIMULATE_FLAGS)
    ese.set_defaults(func=_cmd_eseem)

    sel = sub.add_parser("select-spins",
                         help="compare 1..max_n spin models by adjusted R^2")
    sel.add_argument("--in", dest="in_path", required=True)
    sel.add_argument("--max-n", type=int, default=3)
    sel.add_argument("--no-canonicalize", action="store_true")
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
    except TraceFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NvSenseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
