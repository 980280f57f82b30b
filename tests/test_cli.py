"""End-to-end CLI behavior through main(argv): exit codes, files, reports."""

import hashlib
import json
import math
import runpy
import sys
import warnings

import numpy as np
import pytest

import nvsense.cli as cli
from nvsense import __version__, presets
from nvsense.core import (DEFAULT_CONSTANTS, PHOTON_CHANNELS, TWO_PI, Trace,
                          XKind)
from nvsense.deer import (DeerSpectrumModel, TargetSpinModel, gaussian_line,
                          nv_epr_signal, nv_epr_signal_grid)
from nvsense.eseem import (BathModel, bath_decoherence, load_hyperfine_table,
                           nucleus_from_record)
from nvsense.fitting import FitResult, fit_deer_rabi
from nvsense.io import read_json, read_trace, write_columns, write_trace
from nvsense.synth import (Cpmg8Truth, OdmrTruth, RabiTruth, SequenceKind,
                           coherence_trace, difference_signal,
                           normalized_channels)


def run(*argv):
    return cli.main(list(argv))


def _epr_model(params, t):
    """fit_deer_rabi's model: params are omega_1_mhz .. omega_n_mhz, t0_us."""
    return nv_epr_signal(TargetSpinModel(
        omegas=tuple(TWO_PI * w for w in params[:-1]), t0=params[-1]), t)


# the fields cli._fit_record writes for every fit
RECORD_FIELDS = ("converged", "ss_res", "n_starts", "n_model_evals",
                 "n_retired", "stop_reason", "winning_start", "n_rounds",
                 "n_iter", "k", "adj_r2", "params", "param_errors")


def _rabi_signal(params, t):
    """fit_rabi's model: the one-spin signal at omega = 2 pi f_mhz."""
    f_mhz, t0_us = params
    return nv_epr_signal_grid(np.array([[TWO_PI * f_mhz]]),
                              np.array([t0_us]), t)[0]


class TestInvertField:
    def test_recovers_field(self, tmp_path, capsys):
        out = tmp_path / "field.json"
        code = run("invert-field", "--f-minus", "1960.00",
                   "--f-plus", "3783.39", "--f-minus-err", "6.78",
                   "--f-plus-err", "3.39", "--g-at", "914.7",
                   "--out", str(out))
        assert code == 0
        report = read_json(out)
        assert abs(report["b0_mt"] - 32.59) <= 0.05
        assert abs(report["theta_deg"] - 3.5) <= 1.0
        assert report["version"] == __version__
        assert "config_hash" in report and "seed" not in report
        text = capsys.readouterr().out
        assert "B0 = " in text and "g(914.7 MHz)" in text

    def test_unphysical_pair_fails_cleanly(self, capsys):
        assert run("invert-field", "--f-minus", "7000", "--f-plus",
                   "7200") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (("--f-minus", "1333.6", "--f-plus", "7073.6"), "labelled"),
        (("--f-minus", "212.6", "--f-plus", "5952.6"), "labelled"),
        (("--f-minus", "1960", "--f-plus", "3783.39", "--f-minus-err",
          "nan"), "freq_errors"),
        (("--f-minus", "1960", "--f-plus", "3783.39", "--f-plus-err",
          "inf"), "freq_errors"),
        (("--f-minus", "1960", "--f-plus", "3783.39", "--b-max", "nan"),
         "b_max"),
    ])
    def test_refused_input_writes_nothing(self, tmp_path, capsys, argv,
                                          name):
        # the on-axis lines of 150 and 110 mT, past D / gamma, and
        # non-finite errors or b_max: exit 1, no report
        out = tmp_path / "field.json"
        assert run("invert-field", *argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert not out.exists()

    def test_b_max_rejects_field_above_it(self, capsys):
        pair = ("--f-minus", "1960.00", "--f-plus", "3783.39")
        assert run("invert-field", *pair, "--b-max", "33") == 0
        capsys.readouterr()
        assert run("invert-field", *pair, "--b-max", "30") == 1
        assert "b_max" in capsys.readouterr().err


class TestSimulate:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("simulate", "--kind", "rabi", "--seed", "9",
                "--n-avg", "5000", "--x-num", "51")
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
        args = ("simulate", "--kind", "cpmg-deer", "--seed", "4",
                "--n-avg", "20000")
        assert run(*args, "--workers", "1", "--out", str(a)) == 0
        assert run(*args, "--workers", "4", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_validated(self, capsys):
        assert run("simulate", "--kind", "rabi", "--workers", "0") == 1
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_kind_required(self, capsys):
        assert run("simulate") == 1
        assert "--kind" in capsys.readouterr().err

    def test_bad_grid_rejected(self, tmp_path):
        assert run("simulate", "--kind", "rabi", "--x-num", "1",
                   "--out", str(tmp_path / "x.csv")) == 1

    def test_null_preset_has_no_target_spins(self, capsys):
        assert run("simulate", "--kind", "deer-rabi", "--preset",
                   "null-a") == 1
        assert "no coupled target spins" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, code", [((), 1),
                                             (("--omegas-mhz", "1.5"), 0)])
    def test_null_preset_deer_rabi_needs_couplings(self, tmp_path, capsys,
                                                   extra, code):
        out = tmp_path / "dr.csv"
        assert run("simulate", "--kind", "deer-rabi", "--preset", "null-a",
                   *extra, "--out", str(out)) == code
        if code:
            assert "explicit --omegas-mhz" in capsys.readouterr().err
        else:
            tr = read_trace(out)
            np.testing.assert_array_less(0.0, tr.channel("SIG1"))

    def test_unknown_nucleus(self, tmp_path, capsys):
        assert run("simulate", "--kind", "cpmg8", "--nuclei", "14n,bogus",
                   "--out", str(tmp_path / "x.csv")) == 1
        assert "unknown nucleus 'bogus'" in capsys.readouterr().err

    def test_unread_truth_flag_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("simulate", "--kind", "rabi", "--nuclei", "bogus",
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "kind rabi does not read nuclei" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, extra, unread", [
        ("rabi", ("--n-pulses", "4", "--tau-us", "3"), "tau_us, n_pulses"),
        ("pulsed-odmr", ("--n-pulses", "8"), "n_pulses"),
        ("cpmg8", ("--tau-us", "1.28"), "tau_us"),
        ("cpmg-deer", ("--n-pulses", "4"), "n_pulses"),
        ("deer-rabi", ("--n-pulses", "4"), "n_pulses"),
    ])
    def test_unread_sequence_flag_rejected(self, tmp_path, capsys, kind,
                                           extra, unread):
        out = tmp_path / "x.csv"
        assert run("simulate", "--kind", kind, "--noiseless", *extra,
                   "--out", str(out)) == 1
        assert f"kind {kind} does not read {unread};" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [("--amplitude", "-3"),
                                       ("--baseline", "101")])
    def test_unphysical_cpmg_deer_population_rejected(self, tmp_path, capsys,
                                                      extra):
        # 0.5 (1 + s) reaches -0.749 and 50.85: no clip into [0, 1]
        out = tmp_path / "x.csv"
        assert run("simulate", "--kind", "cpmg-deer", "--noiseless", *extra,
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "outside [0, 1]" in err
        assert not out.exists()

    def test_unphysical_pulsed_odmr_population_rejected(self, tmp_path,
                                                        capsys):
        # at 0.01 mT the two dips overlap and 1 - (dip- + dip+) reaches
        # -0.995: no clip to the dark count
        out = tmp_path / "x.csv"
        assert run("simulate", "--kind", "pulsed-odmr", "--noiseless",
                   "--b0-mt", "0.01", "--x-start", "2850", "--x-stop",
                   "2890", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "outside [0, 1]" in err
        assert not out.exists()

    def test_noiseless_cpmg8_rounding_clipped(self, tmp_path):
        # at a vanishing field the echo coherence rounds to 1 + 7e-16;
        # SIG2 fell below the dark count REF2
        out = tmp_path / "x.csv"
        assert run("simulate", "--kind", "cpmg8", "--noiseless",
                   "--x-num", "30", "--t2-us", "6090267669236463.0",
                   "--b0-mt", "1.6748958310171596e-33",
                   "--out", str(out)) == 0
        tr = read_trace(out)
        assert np.all(tr.channel("SIG2") >= tr.channel("REF2"))
        assert np.all(tr.channel("SIG1") <= tr.channel("REF1"))

    def test_line_width_past_float_range(self, tmp_path):
        # width ** 2 of a float raised OverflowError, a traceback; the
        # line is flat at baseline + amplitude
        out = tmp_path / "x.csv"
        assert run("simulate", "--kind", "cpmg-deer", "--noiseless",
                   "--width-mhz", "1e300", "--out", str(out)) == 0
        assert np.ptp(read_trace(out).channel("SIG1")) == 0.0

    def test_line_width_underflow_keeps_the_center(self, tmp_path, capsys):
        # width ** 2 underflows to 0, and at a grid point on the center
        # the quotient was 0/0: nan, a warning and exit 1.  The line is
        # the one of any width too narrow to reach the next grid point
        narrow, ref = tmp_path / "narrow.csv", tmp_path / "ref.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate", "--kind", "cpmg-deer", "--noiseless",
                       "--width-mhz", "1e-300", "--center-mhz", "915",
                       "--out", str(narrow)) == 0
        assert run("simulate", "--kind", "cpmg-deer", "--noiseless",
                   "--width-mhz", "1e-100", "--center-mhz", "915",
                   "--out", str(ref)) == 0
        assert narrow.read_bytes() == ref.read_bytes()
        tr = read_trace(narrow)
        dip = tr.channel("SIG1") != tr.channel("SIG1")[0]
        assert tr.x[dip].tolist() == [915.0]

    def test_line_offset_and_width_overflow_keep_the_limit(self, tmp_path):
        # (f - center)^2 and 2 width^2 both overflow (inf/inf), yet the
        # line has a limit: the one of center = width = 1e100, whose
        # squares stay finite, flat at exp(-1/2)
        huge, ref = tmp_path / "huge.csv", tmp_path / "ref.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate", "--kind", "cpmg-deer", "--noiseless",
                       "--center-mhz", "1e200", "--width-mhz", "1e200",
                       "--out", str(huge)) == 0
        assert run("simulate", "--kind", "cpmg-deer", "--noiseless",
                   "--center-mhz", "1e100", "--width-mhz", "1e100",
                   "--out", str(ref)) == 0
        assert huge.read_bytes() == ref.read_bytes()

    def test_overflowing_field_names_b0(self, tmp_path, capsys):
        # gamma_nv * b0 overflows: once a nan matrix and "matrix must be
        # Hermitian", now an input error that names b0
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate", "--kind", "pulsed-odmr", "--noiseless",
                       "--b0-mt", "1e308", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: b0 = 1e+308 mT overflows"), err
        assert not out.exists()

    def test_null_preset_spectrum_is_flat(self, tmp_path):
        out = tmp_path / "null.csv"
        assert run("simulate", "--kind", "cpmg-deer", "--preset", "null-a",
                   "--seed", "0", "--n-avg", "200000",
                   "--out", str(out)) == 0
        tr = read_trace(out)
        s = difference_signal(tr)
        # flat at the 0.5 coherence baseline, no dip anywhere
        assert abs(float(np.mean(s)) - 0.5) < 0.05
        assert float(np.std(s)) < 0.2

    def test_noiseless_flag(self, tmp_path):
        out = tmp_path / "clean.csv"
        assert run("simulate", "--kind", "rabi", "--noiseless",
                   "--out", str(out)) == 0
        tr = read_trace(out)
        assert np.all(tr.channel("REF1") == 0.05)

    # coupled-pair defaults per kind, written out: (first, last, size) of
    # the grid, tau, pulse count, n_avg and the truth model
    PRESET_VALUES = {
        SequenceKind.PULSED_ODMR: (
            (1935.3984469318802, 1985.3984469318802, 101), None, 8, 100_000,
            OdmrTruth(b0=32.59, theta=math.radians(3.5), linewidth_mhz=3.8,
                      transfer=1.0)),
        SequenceKind.RABI: ((0.0, 2.0, 201), None, 8, 100_000,
                            RabiTruth(f_mhz=5.50, t0_us=0.67)),
        SequenceKind.CPMG8: (
            (0.8, 64.0, 199), None, 8, 220_000,
            Cpmg8Truth(nuclei=tuple(
                nucleus_from_record(load_hyperfine_table()[label], 32.59)
                for label in ("near-13c", "14n")),
                bath=BathModel(b_rms=4.0, omega_i=TWO_PI
                               * DEFAULT_CONSTANTS.gamma_c13 * 32.59),
                t2_us=38.0)),
        SequenceKind.CPMG_DEER: (
            (880.0, 950.0, 101), 1.28, 8, 1_325_000,
            DeerSpectrumModel(center=914.7, width=9.0, amplitude=-0.3,
                              baseline=0.5)),
        SequenceKind.DEER_RABI: (
            (0.0, 1.0, 101), 1.28, 8, 1_260_000,
            TargetSpinModel(omegas=(TWO_PI * 1.12, TWO_PI * 2.24), t0=0.34)),
    }
    FACTORIES = {SequenceKind.PULSED_ODMR: presets.odmr_truth,
                 SequenceKind.RABI: presets.rabi_truth,
                 SequenceKind.CPMG8: presets.echo_truth,
                 SequenceKind.CPMG_DEER: presets.epr_line,
                 SequenceKind.DEER_RABI: presets.target_pair}

    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_default_truth_comes_from_presets(self, kind):
        grid, tau, n_pulses, n_avg, truth = self.PRESET_VALUES[kind]
        seq = presets.default_sequence(kind)
        assert seq.grid[0] == grid[0] and seq.grid[-1] == grid[1]
        assert seq.grid.size == grid[2]
        assert seq.tau == tau and seq.n_pulses == n_pulses
        assert presets.DEFAULT_N_AVG[kind] == n_avg
        assert presets.default_truth(kind) == truth
        assert self.FACTORIES[kind]() == truth

    # a valid value other than the preset's, per simulate default key
    OTHER_VALUE = {
        "x_start": lambda v: v + 0.5, "x_stop": lambda v: v - 0.25,
        "x_num": lambda v: v + 1, "channels": lambda v: ["SIG1", "REF1"],
        "n_pulses": lambda v: 4, "tau_us": lambda v: 2.0 * v,
        "b0_mt": lambda v: v + 0.5, "theta_deg": lambda v: v + 5.0,
        "linewidth_mhz": lambda v: 1.5 * v, "transfer": lambda v: 0.5,
        "f_mhz": lambda v: 1.1 * v, "t0_us": lambda v: 1.5 * v,
        "t2_us": lambda v: 1.5 * v, "b_rms_ut": lambda v: 2.0 * v,
        "nuclei": lambda v: ["14n"], "center_mhz": lambda v: v + 5.0,
        "width_mhz": lambda v: 1.5 * v, "amplitude": lambda v: -0.2,
        "baseline": lambda v: 0.4, "omegas_mhz": lambda v: [0.8, 1.9],
        "contrast": lambda v: 0.2, "n_avg": lambda v: v + 1,
    }

    @pytest.mark.parametrize("preset", presets.PRESETS)
    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_every_accepted_key_is_read(self, tmp_path, kind, preset):
        # each key a kind accepts changes the output; every other
        # sequence or truth key is rejected
        defaults = presets.simulate_defaults(kind, preset)
        base = {"preset": preset, "sequence": {"kind": kind.value},
                "truth": {}, "detector": {"noiseless": True}}
        if preset != "coupled-pair" and kind in (SequenceKind.CPMG_DEER,
                                                 SequenceKind.DEER_RABI):
            # a null center has no line and no couplings: without them
            # the line's center and width show nowhere, and deer-rabi
            # does not run
            base["truth"] = presets.simulate_defaults(kind)["truth"]

        def simulate(section, key, value):
            cfg = json.loads(json.dumps(base))
            cfg[section][key] = value
            (tmp_path / "c.json").write_text(json.dumps(cfg))
            out = tmp_path / f"{section}-{key}.csv"
            code = run("simulate", "--config", str(tmp_path / "c.json"),
                       "--out", str(out))
            return code, out.read_bytes() if out.exists() else None

        reference = simulate("detector", "noiseless", True)
        assert reference[0] == 0
        for section, values in defaults.items():
            for key, value in values.items():
                value = base[section].get(key, value)
                code, data = simulate(section, key,
                                      self.OTHER_VALUE[key](value))
                assert code == 0 and data != reference[1], (section, key)
        schema = {"sequence": cli._SEQUENCE_SCHEMA,
                  "truth": cli._TRUTH_SCHEMA}
        samples = {key: value for other in SequenceKind for section in schema
                   for key, value in presets.simulate_defaults(
                       other)[section].items() if value is not None}
        for section, keys in schema.items():
            for key in set(keys) - set(defaults[section]) - {"kind"}:
                assert simulate(section, key, samples[key]) == (1, None)

    def test_parser_keeps_no_flag_between_runs(self, tmp_path):
        assert cli._build_parser() is cli._build_parser()
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--kind", "rabi", "--noiseless",
                   "--n-avg", "37", "--out", str(first)) == 0
        assert run("simulate", "--kind", "rabi", "--noiseless",
                   "--out", str(second)) == 0
        assert "# n_avg: 37 per point" in first.read_text()
        assert "# n_avg: 100000 per point" in second.read_text()

    @pytest.mark.parametrize("extra, bright, dark", [
        (("--contrast", "0.3"), 0.05, 0.05 * 0.7),
        (("--counts-bright", "0.1"), 0.1, 0.05 * (1 - presets.CONTRAST)),
        (("--counts-dark", "0.01"), 0.05, 0.01),
        (("--counts-bright", "0.1", "--contrast", "0.3"), 0.1, 0.1 * 0.7),
        (("--counts-dark", "0.01", "--contrast", "0.3"), 0.01 / 0.7, 0.01),
        (("--counts-bright", "0.1", "--counts-dark", "0.02"), 0.1, 0.02),
    ])
    def test_counts_and_contrast(self, tmp_path, extra, bright, dark):
        # a given contrast with one given count fixes the other; without
        # one, a count not given is the preset detector's
        out = tmp_path / "t.csv"
        assert run("simulate", "--kind", "rabi", "--noiseless", *extra,
                   "--out", str(out)) == 0
        tr = read_trace(out)
        np.testing.assert_array_equal(tr.channel("REF1"), bright)
        np.testing.assert_array_equal(tr.channel("REF2"), dark)

    @pytest.mark.parametrize("extra, message", [
        (("--counts-bright", "0.1", "--counts-dark", "0.02",
          "--contrast", "0.3"), "cannot all be given"),
        (("--counts-dark", "0.01", "--contrast", "1"),
         "contrast 1.0 must lie in (0, 1)"),
    ])
    def test_counts_and_contrast_rejected(self, tmp_path, capsys, extra,
                                          message):
        out = tmp_path / "t.csv"
        assert run("simulate", "--kind", "rabi", "--noiseless", *extra,
                   "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    # sha256 of each `simulate --noiseless` CSV, version line left out;
    # deer-rabi has no null-preset run (it exits 1)
    NOISELESS_SHA256 = {
        ("pulsed-odmr", "coupled-pair"): "6a47dde694a967b14c09254bae6c2cefac634d9e4d6c925e1fcd750a36f60a6c",
        ("pulsed-odmr", "null-a"): "267307cc23ddcac529ba2367a390090de122e6655ed5240188eb900d4ea0b5ac",
        ("pulsed-odmr", "null-b"): "f13b8d498d3c25be8b0672107b16cc632ae24d88fa1c19ca2cb91cb538e039cb",
        ("pulsed-odmr", "null-c"): "ce1b3e61274e207cc93a08f5805312d5f26ea514e0b27741d42a8047f1f55288",
        ("rabi", "coupled-pair"): "ddca33106ef0f806455b695f53db3cd9f2bf754702b785e8263f79dccac4002b",
        ("rabi", "null-a"): "c144a50df05d64b068d499cfa06a45ca8f44ce4f0f432a2dcf7db521c3443226",
        ("rabi", "null-b"): "37eac33041f4f9a141514e066e1ce3ec13c18c9580963d5e8d5fd355cba39b7e",
        ("rabi", "null-c"): "caa7ee594476bc93e1a738d5608dd52650a41dd1319045a247147198d4e142b3",
        ("cpmg8", "coupled-pair"): "ecbfc7a30a3ddfc42dc01dd57f5857feab433dc5f6053127b7df6dc73084d336",
        ("cpmg8", "null-a"): "36ffcb76a4e7d3c912d124e726d6a8d465cc187edb5a3e635bb1dd1ba13d91bb",
        ("cpmg8", "null-b"): "0236147c9bbe4026b2a786db2996959ab3c540ba1ee1924f750a51fb296621ed",
        ("cpmg8", "null-c"): "1e1d2684689490c3b8b96789e7abbfcf77cdd4bb11ca72b118678eb4e85dd599",
        ("cpmg-deer", "coupled-pair"): "76a913c2ee726cb2bf7e3aa569c01f8a22a7dce6e588596361f484292dd5b956",
        ("cpmg-deer", "null-a"): "80033ef7ca70f3ccd082274605f06b0a7ff003ec629693209c4cc13ecc78bd43",
        ("cpmg-deer", "null-b"): "a69354f9635dcd78ad817688845dd080eb36f0f0b57829db305fb0779d8ce5d0",
        ("cpmg-deer", "null-c"): "9168a3c5add2083abb0831afe7880f206758c612bd0d195d27822861bbc8b562",
        ("deer-rabi", "coupled-pair"): "3e488c5024a2cef193b2c5428d03740ce14d6f360732956805a3ea210a99a775",
    }

    @pytest.mark.parametrize("kind, preset", sorted(NOISELESS_SHA256))
    def test_noiseless_bytes_pinned(self, tmp_path, kind, preset):
        out = tmp_path / "t.csv"
        assert run("simulate", "--kind", kind, "--preset", preset,
                   "--noiseless", "--out", str(out)) == 0
        data = b"".join(line for line in out.read_bytes().splitlines(True)
                        if not line.startswith(b"# version:"))
        assert hashlib.sha256(data).hexdigest() \
            == self.NOISELESS_SHA256[kind, preset]

    # sha256 of noisy `simulate --seed 3` CSVs, version line left out,
    # derived by drawing each channel with numpy's
    # Generator(Philox(SeedSequence(3, spawn_key=(c,)))).poisson on the
    # noiseless CSV's rates, as test_noisy_draw_is_numpys does: they fix
    # the noise contract and numpy's Poisson stream.  --n-avg 100 puts
    # every draw below lam = 10, where numpy's Poisson takes another
    # method; --n-avg 220 straddles it.
    NOISY_SHA256 = {
        ("pulsed-odmr", ()): "43e9f6fb7b1a914711780472ba7947ddf4e918a76d74fea74117153623799038",
        ("rabi", ()): "ca53c8452c03783ccbd99d94eee543fd34c14e284c91b0176cd6f5bffc35066a",
        ("cpmg8", ()): "7fb707e1a380141d9ba8f84901853a11605e199c9aad2debfefd24a171e21e5f",
        ("cpmg-deer", ()): "9b18fef12ab6cce5fa432f5b20b6b208dee0aa1cd363569b8a6afd59c3aed591",
        ("deer-rabi", ()): "faf34c248ba52600b93ae4418e0a282a2a8a79a2d7d0aed2a59b5dbc7c100f50",
        ("cpmg8", ("--n-avg", "2000000", "--n-avg-total")): "f9f25a4a769a9cc464b0ef550c0dac4003e267c30068c840d8e836f58e373d0b",
        ("rabi", ("--n-avg", "100")): "dcd2d8bcab61bc4a4cd29add26d34d30005bbe89eb3274a0eae6167256bffabf",
        ("deer-rabi", ("--n-avg", "220")): "42897ed273bcc4b88b82bb732030ae2788194ea465501fa49cac7d96f88095fa",
    }

    @pytest.mark.parametrize("kind, extra", sorted(NOISY_SHA256))
    def test_noisy_bytes_pinned(self, tmp_path, kind, extra):
        out = tmp_path / "t.csv"
        assert run("simulate", "--kind", kind, "--seed", "3", *extra,
                   "--out", str(out)) == 0
        data = b"".join(line for line in out.read_bytes().splitlines(True)
                        if not line.startswith(b"# version:"))
        assert hashlib.sha256(data).hexdigest() \
            == self.NOISY_SHA256[kind, extra]

    @pytest.mark.parametrize("kind, extra", sorted(NOISY_SHA256))
    def test_noisy_draw_is_numpys(self, tmp_path, kind, extra):
        # the noise contract: channel c is one numpy Poisson draw over the
        # grid from SeedSequence(seed, spawn_key=(c,)), over n_avg
        clean, noisy = tmp_path / "clean.csv", tmp_path / "noisy.csv"
        for path, flags in ((clean, ("--noiseless",)), (noisy, ())):
            assert run("simulate", "--kind", kind, "--seed", "3", *extra,
                       *flags, "--out", str(path)) == 0
        rates, got = read_trace(clean), read_trace(noisy)
        assert got.channel_names == rates.channel_names
        n = got.n_avg
        for name in rates.channel_names:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
                3, spawn_key=(PHOTON_CHANNELS.index(name),))))
            expect = rng.poisson(n * rates.channel(name)) / n
            assert got.channel(name).tobytes() == expect.tobytes()

    def test_cpmg8_pulse_count_reaches_the_bath(self, tmp_path):
        # the bath filter takes the sequence's pulse count
        paths = {n: tmp_path / f"p{n}.csv" for n in (4, 8)}
        for n, path in paths.items():
            assert run("simulate", "--kind", "cpmg8", "--n-pulses", str(n),
                       "--noiseless", "--out", str(path)) == 0
        assert not np.array_equal(read_trace(paths[4]).channel("SIG1"),
                                  read_trace(paths[8]).channel("SIG1"))

    # sha256 at b_rms = 0, version line left out, taken when a field of 0
    # meant no bath at all: the bath's C = exp(-0) = 1 keeps the bytes
    ZERO_BATH_SHA256 = {
        ("eseem", "--mode", "echo"): "2f4fce20b5d1b1cdfe29b3c9189daecefa2f538a26b9a94334ee3cc3ebe0a9ee",
        ("simulate", "--kind", "cpmg8", "--noiseless"): "435ef7ab251e4ebf69459f44a884de7caf19ec13db3b281c49b13bf9cee3060a",
    }

    @pytest.mark.parametrize("command", sorted(ZERO_BATH_SHA256))
    def test_zero_bath_field_bytes_pinned(self, tmp_path, command):
        out = tmp_path / "t.csv"
        assert run(*command, "--b-rms-ut", "0", "--out", str(out)) == 0
        data = b"".join(line for line in out.read_bytes().splitlines(True)
                        if not line.startswith(b"# version:"))
        assert hashlib.sha256(data).hexdigest() \
            == self.ZERO_BATH_SHA256[command]

    @pytest.mark.parametrize("command", sorted(ZERO_BATH_SHA256))
    @pytest.mark.parametrize("b_rms", ["-1", "nan"])
    def test_bad_bath_field_rejected(self, tmp_path, capsys, command, b_rms):
        # an error, not a run that leaves the bath out
        out = tmp_path / "t.csv"
        assert run(*command, "--b-rms-ut", b_rms, "--out", str(out)) == 1
        assert "b_rms must be >= 0 uT" in capsys.readouterr().err
        assert not out.exists()

    # exit code and sha256 (version line left out) of `simulate
    # --noiseless` at line widths near the float range's ends, as before
    # their overflow and divide-by-zero warnings were silenced: the line
    # is flat at 1e300 and zero off its center at 1e-300
    EXTREME_WIDTH = {
        ("cpmg-deer", "--width-mhz", "1e300"): (0, "e273eca41d176f49e64c9834148cc04e8a22a3f8f8001bc1714131ed831024fe"),
        ("cpmg-deer", "--width-mhz", "1e-300"): (0, "302ed1e697cca976a1c5e310ca5ae2c6b897accea58d757d7e317bc4f59fc1b3"),
        ("pulsed-odmr", "--linewidth-mhz", "1e300"): (1, None),
    }

    @pytest.mark.parametrize("kind, flag, width", sorted(EXTREME_WIDTH))
    def test_extreme_line_width_warns_nothing(self, tmp_path, capsys, kind,
                                              flag, width):
        out = tmp_path / "t.csv"
        code, sha = self.EXTREME_WIDTH[kind, flag, width]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate", "--kind", kind, flag, width,
                       "--noiseless", "--out", str(out)) == code
        err = capsys.readouterr().err
        if sha is None:
            # both dips span the whole grid and overlap
            assert err.startswith("error: kind pulsed-odmr: population ")
            assert not out.exists()
            return
        assert err == ""
        data = b"".join(line for line in out.read_bytes().splitlines(True)
                        if not line.startswith(b"# version:"))
        assert hashlib.sha256(data).hexdigest() == sha

    def test_header_provenance_comments(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run("simulate", "--kind", "rabi", "--seed", "12",
                   "--n-avg", "1000", "--out", str(out)) == 0
        head = out.read_text().splitlines()[:8]
        joined = "\n".join(head)
        assert "# kind: rabi" in joined
        assert "# seed: 12" in joined
        assert f"# version: {__version__}" in joined


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"bogus": 1}')
        assert run("simulate", "--kind", "rabi", "--config", str(cfg)) == 1
        assert "unknown key 'bogus'" in capsys.readouterr().err

    def test_nested_unknown_key_path(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"detector": {"n_avgs": 5}}')
        assert run("simulate", "--kind", "rabi", "--config", str(cfg)) == 1
        assert "detector.n_avgs" in capsys.readouterr().err

    def test_type_mismatch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"seed": "seven"}')
        assert run("simulate", "--kind", "rabi", "--config", str(cfg)) == 1
        assert "must be int" in capsys.readouterr().err

    @pytest.mark.parametrize("truth", [{"width_mhz": 10 ** 400},
                                       {"omegas_mhz": [1.0, -10 ** 309]}])
    def test_int_past_float_range_rejected(self, tmp_path, capsys, truth):
        # json reads it as an int, which float() cannot hold
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"truth": truth}))
        assert run("simulate", "--kind", "cpmg-deer", "--config", str(cfg),
                   "--out", str(tmp_path / "t.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'truth.")
        assert "past the float range" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_invalid_json_line_reported(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{\n  "seed": 1,\n}\n')
        assert run("simulate", "--kind", "rabi", "--config", str(cfg)) == 1
        assert "line 3" in capsys.readouterr().err

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"truth": {"f_mhz": 3.0}, "detector": {"noiseless": True}}))
        out = tmp_path / "t.csv"
        assert run("simulate", "--kind", "rabi", "--config", str(cfg),
                   "--f-mhz", "5.0", "--out", str(out)) == 0
        tr = read_trace(out)
        code = run("fit", "--kind", "rabi", "--in", str(out),
                   "--out", str(tmp_path / "fit.json"))
        assert code == 0
        report = read_json(tmp_path / "fit.json")
        assert report["params"]["f_mhz"] == pytest.approx(5.0, abs=1e-6)

    def test_config_dir_resolution(self, tmp_path, monkeypatch):
        cfgdir = tmp_path / "configs"
        cfgdir.mkdir()
        (cfgdir / "run.json").write_text(
            '{"sequence": {"kind": "rabi"}, "detector": {"noiseless": true}}')
        monkeypatch.setenv("NVSENSE_CONFIG_DIR", str(cfgdir))
        monkeypatch.chdir(tmp_path)
        assert run("simulate", "--config", "run.json",
                   "--out", str(tmp_path / "t.csv")) == 0

    def test_missing_config(self, capsys):
        assert run("simulate", "--kind", "rabi", "--config",
                   "/nonexistent/cfg.json") == 1
        assert "not found" in capsys.readouterr().err

    def test_empty_channel_list_rejected(self, tmp_path, capsys):
        # an empty list is not the kind's default set: it draws nothing
        cfg = tmp_path / "c.json"
        cfg.write_text('{"sequence": {"channels": []}}')
        out = tmp_path / "t.csv"
        assert run("simulate", "--kind", "rabi", "--config", str(cfg),
                   "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unread_truth_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"sequence": {"kind": "rabi"}, "truth": {"nuclei": ["14n"]}}))
        assert run("simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "t.csv")) == 1
        assert "kind rabi does not read nuclei" in capsys.readouterr().err


    def test_unread_sequence_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sequence": {"kind": "rabi",
                                                "n_pulses": 4}}))
        assert run("simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "t.csv")) == 1
        assert "kind rabi does not read n_pulses" in capsys.readouterr().err

    @pytest.mark.parametrize("config, argv, message", [
        ({"truth": 5}, ("--kind", "rabi"),
         "config section 'truth' must be an object"),
        ({"sequence": {"channels": "SIG1"}}, ("--kind", "rabi"),
         "config field 'sequence.channels' must be a list"),
        ({"sequence": {"kind": "bogus"}}, (),
         f"unknown kind 'bogus'; choose from "
         f"{[k.value for k in SequenceKind]}"),
        ({"preset": "bogus"}, ("--kind", "rabi"),
         f"unknown preset 'bogus'; choose from {presets.PRESETS}"),
    ], ids=["section-not-object", "list-not-list", "unknown-kind",
            "unknown-preset"])
    def test_malformed_config_is_input_error(self, tmp_path, capsys, config,
                                             argv, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run("simulate", *argv, "--config", str(cfg),
                   "--out", str(tmp_path / "t.csv")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [cfg]


class TestFit:
    def test_rabi_end_to_end(self, tmp_path):
        trace = tmp_path / "rabi.csv"
        report_path = tmp_path / "fit.json"
        assert run("simulate", "--kind", "rabi", "--seed", "0",
                   "--out", str(trace)) == 0
        assert run("fit", "--kind", "rabi", "--in", str(trace),
                   "--out", str(report_path)) == 0
        report = read_json(report_path)
        assert abs(report["params"]["f_mhz"] - 5.50) <= 0.05
        assert report["converged"] is True
        assert report["param_errors"]["f_mhz"] > 0
        assert report["n_points"] == 201
        assert report["version"] == __version__
        assert "config_hash" in report
        assert "timestamp" not in report
        assert report["n_starts"] >= 2
        assert report["n_model_evals"] > report["n_starts"]
        assert report["n_retired"] == 0
        # the winning start: why it ended, which it was, how long it ran
        assert report["stop_reason"] == "converged"
        assert 0 <= report["winning_start"] < report["n_starts"]
        assert report["n_rounds"] >= report["n_iter"] >= 1

    def test_gaussian_end_to_end(self, tmp_path):
        trace = tmp_path / "deer.csv"
        assert run("simulate", "--kind", "cpmg-deer", "--seed", "0",
                   "--out", str(trace)) == 0
        out = tmp_path / "g.json"
        assert run("fit", "--kind", "gaussian", "--in", str(trace),
                   "--out", str(out)) == 0
        report = read_json(out)
        assert abs(report["params"]["center_mhz"] - 914.7) <= 1.0

    def test_config_n_spins_enters_hash(self, tmp_path):
        trace = tmp_path / "dr.csv"
        assert run("simulate", "--kind", "deer-rabi", "--noiseless",
                   "--out", str(trace)) == 0
        hashes = []
        for n_spins in (1, 2):
            cfg = tmp_path / f"c{n_spins}.json"
            cfg.write_text(json.dumps({"kind": "deer-rabi",
                                       "n_spins": n_spins}))
            out = tmp_path / f"fit{n_spins}.json"
            run("fit", "--config", str(cfg), "--in", str(trace),
                "--out", str(out))
            report = read_json(out)
            assert len(report["params"]) == n_spins + 1
            hashes.append(report["config_hash"])
        assert hashes[0] != hashes[1]

    _grid_fits = pytest.mark.parametrize("kind, command", [
        (XKind.FREQUENCY, ("fit", "--kind", "gaussian")),
        (XKind.PULSE_LENGTH, ("fit", "--kind", "rabi")),
        (XKind.PULSE_LENGTH, ("fit", "--kind", "deer-rabi")),
        (XKind.PULSE_LENGTH, ("select-spins", "--max-n", "2"))],
        ids=["gaussian", "rabi", "deer-rabi", "select-spins"])

    @staticmethod
    def _refused(tmp_path, capsys, kind, command, x, scale=1.0) -> str:
        """stderr of command on a trace over x, its channel times scale,
        which must exit 1 with no numpy warning and no output file."""
        trace, out = tmp_path / "grid.csv", tmp_path / "fit.json"
        write_trace(trace, Trace(x, kind, {"c": scale * (0.5 + 0.3 * np.cos(
            np.arange(float(x.size))))}))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(*command, "--in", str(trace), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert not out.exists()
        return err

    def test_grid_spanning_the_float_range_is_error(self, tmp_path, capsys):
        # core.Trace (and so the CSV reader) accepts the grid; the fit
        # refuses it as input, with no numpy warning on the way
        x = np.concatenate([np.linspace(-1.7e308, -1e307, 10),
                            np.linspace(1e307, 1.7e308, 10)])
        err = self._refused(tmp_path, capsys, XKind.FREQUENCY,
                            ("fit", "--kind", "gaussian"), x)
        assert "spans more than the float range" in err

    @_grid_fits
    def test_grid_past_the_limit_is_error(self, tmp_path, capsys, kind,
                                          command):
        # a finite span, but x past the fits' limit of +-1e100
        err = self._refused(tmp_path, capsys, kind, command,
                            np.linspace(0.0, 1e150, 20))
        assert "reaches past +-1e+100" in err

    @_grid_fits
    def test_channel_past_the_limit_is_error(self, tmp_path, capsys, kind,
                                             command):
        # the squares of its residuals would overflow
        err = self._refused(tmp_path, capsys, kind, command,
                            np.linspace(0.0, 1.0, 20), scale=1e160)
        assert "channel 'c' reaches past +-1e+100" in err

    @_grid_fits
    def test_grid_below_the_min_span_is_error(self, tmp_path, capsys, kind,
                                              command):
        err = self._refused(tmp_path, capsys, kind, command,
                            np.linspace(0.0, 1e-120, 20))
        assert "spans less than 1e-90" in err

    @pytest.mark.parametrize("command", [
        ("fit", "--kind", "rabi"), ("fit", "--kind", "deer-rabi"),
        ("select-spins", "--max-n", "2")],
        ids=["rabi", "deer-rabi", "select-spins"])
    def test_grid_of_tiny_median_step_is_error(self, tmp_path, capsys,
                                               command):
        # a span of 1 whose median step, 1e-200, bounds T0 below
        x = np.concatenate([np.arange(12) * 1e-200, np.linspace(0.5, 1.0, 8)])
        err = self._refused(tmp_path, capsys, XKind.PULSE_LENGTH, command, x)
        assert "median step 1e-200 is less than 1e-12" in err

    def test_kind_required(self, tmp_path, capsys):
        assert run("fit", "--in", str(tmp_path / "x.csv")) == 1
        assert "gaussian | rabi | deer-rabi" in capsys.readouterr().err

    def test_missing_input(self):
        assert run("fit", "--kind", "rabi") == 1

    @pytest.mark.parametrize("kind", ["gaussian", "rabi", "deer-rabi"])
    def test_missing_channel_is_config_error(self, tmp_path, capsys, kind):
        trace, out = tmp_path / "dr.csv", tmp_path / "fit.json"
        assert run("simulate", "--kind", "deer-rabi", "--noiseless",
                   "--out", str(trace)) == 0
        capsys.readouterr()
        assert run("fit", "--kind", kind, "--channel", "BOGUS",
                   "--in", str(trace), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: no channel 'BOGUS'; trace has "
            "['REF1', 'REF2', 'SIG1', 'SIG2']\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind, sim_kind", [("gaussian", "cpmg-deer"),
                                                ("rabi", "rabi")])
    def test_n_spins_only_for_deer_rabi(self, tmp_path, capsys, kind,
                                        sim_kind):
        trace, out = tmp_path / "t.csv", tmp_path / "fit.json"
        assert run("simulate", "--kind", sim_kind, "--noiseless",
                   "--out", str(trace)) == 0
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": kind, "n_spins": 2}))
        for given in (("--kind", kind, "--n-spins", "2"),
                      ("--config", str(cfg))):
            capsys.readouterr()
            assert run("fit", *given, "--in", str(trace),
                       "--out", str(out)) == 1
            assert f"kind {kind} does not read n_spins" \
                in capsys.readouterr().err
            assert not out.exists()

    def test_bad_trace_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,x_kind,channel,value,n_avg\n"
                       "0.0,pulse_length,SIG1,0.05\n")
        assert run("fit", "--kind", "rabi", "--in", str(bad)) == 2
        assert "data error:" in capsys.readouterr().err

    def test_nonconvergence_exit_3_report_still_written(
            self, tmp_path, monkeypatch):
        trace = tmp_path / "rabi.csv"
        assert run("simulate", "--kind", "rabi", "--noiseless",
                   "--out", str(trace)) == 0

        def stuck(work, channel=None):
            return FitResult(params=np.array([5.5, 0.67]),
                             param_errors=None, ss_res=1.0, adj_r2=0.0,
                             stop_reason="max_iter", n_iter=200,
                             param_names=("f_mhz", "t0_us"))

        monkeypatch.setattr(cli, "fit_rabi", stuck)
        out = tmp_path / "fit.json"
        assert run("fit", "--kind", "rabi", "--in", str(trace),
                   "--out", str(out)) == 3
        report = read_json(out)
        assert report["converged"] is False

    def test_error_of_a_parameter_on_its_bound_is_null(self, tmp_path,
                                                      capsys):
        # the 2-spin fit of couplings 0.5 and 0.55 MHz at n_avg 30k puts
        # both on the lower bound: their errors are null, printed n/a
        trace, out = tmp_path / "dr.csv", tmp_path / "fit.json"
        assert run("simulate", "--kind", "deer-rabi", "--omegas-mhz",
                   "0.5,0.55", "--n-avg", "30000", "--seed", "0",
                   "--out", str(trace)) == 0
        capsys.readouterr()
        assert run("fit", "--kind", "deer-rabi", "--in", str(trace),
                   "--out", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()[1:4]
        report = read_json(out)
        w1, w2, t0 = report["params"].values()
        assert w1 == w2 == pytest.approx(0.25, rel=1e-12)
        *w_errs, t0_err = report["param_errors"].values()
        assert w_errs == [None, None] and 0 < t0_err < t0
        assert lines == [f"  omega_1_mhz = {w1:.6g} +/- n/a",
                         f"  omega_2_mhz = {w2:.6g} +/- n/a",
                         f"  t0_us = {t0:.6g} +/- {t0_err:.3g}"]

    @pytest.mark.parametrize("kind", ["rabi", "deer-rabi"])
    def test_photon_count_channel_is_error(self, tmp_path, capsys, kind):
        # the drive-length models describe a normalized population; a
        # fit to raw counts per shot would end far from any truth
        trace, out = tmp_path / "dr.csv", tmp_path / "fit.json"
        assert run("simulate", "--kind", "deer-rabi", "--seed", "5",
                   "--out", str(trace)) == 0
        one = tmp_path / "one.csv"
        raw = read_trace(trace)
        write_trace(one, raw.with_channels({"SIG1": raw.channel("SIG1")}))
        for given in (("--in", str(trace), "--channel", "SIG1"),
                      ("--in", str(one))):
            capsys.readouterr()
            assert run("fit", "--kind", kind, *given, "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert "channel 'SIG1' holds photon counts" in err
            assert not out.exists()

    def test_constant_channel_report_is_strict_json(self, tmp_path, capsys):
        # adjusted R^2 is undefined on a constant channel, and NaN is not
        # JSON: the report holds null
        trace, out = tmp_path / "flat.csv", tmp_path / "fit.json"
        write_trace(trace, Trace(np.linspace(0.0, 2.0, 41),
                                 XKind.PULSE_LENGTH, {"u": np.full(41, 0.5)}))
        assert run("fit", "--kind", "deer-rabi", "--in", str(trace),
                   "--out", str(out)) == 0
        assert "adj R^2: nan" in capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert report["adj_r2"] is None


class TestSelectSpins:
    def test_end_to_end_picks_two(self, tmp_path, capsys):
        trace = tmp_path / "dr.csv"
        assert run("simulate", "--kind", "deer-rabi", "--seed", "1",
                   "--out", str(trace)) == 0
        out = tmp_path / "sel.json"
        assert run("select-spins", "--in", str(trace), "--max-n", "3",
                   "--out", str(out)) == 0
        text = capsys.readouterr().out
        assert "best_n = 2" in text
        assert " *2" in text
        report = read_json(out)
        assert report["best_n"] == 2
        assert sorted(report["models"]) == ["1", "2", "3"]
        for n, model in report["models"].items():
            assert model["k"] == int(n) + 1
            assert model["n_starts"] >= 2
            assert model["n_model_evals"] > model["n_starts"]
            assert 0 <= model["n_retired"] < model["n_starts"]
            assert model["stop_reason"] in ("converged", "max_iter",
                                            "stalled")
            assert 0 <= model["winning_start"] < model["n_starts"]
            assert model["n_rounds"] >= 1
        params = report["models"]["2"]["params"]
        assert sorted(params) == ["omega_1_mhz", "omega_2_mhz", "t0_us"]
        got = sorted(params[f"omega_{i}_mhz"] for i in (1, 2))
        assert abs(got[0] - 1.12) <= 0.2
        assert abs(got[1] - 2.24) <= 0.2

    def test_table_prints_each_error(self, tmp_path, capsys):
        # couplings 0.5 and 0.55 MHz at n_avg 30k: the 1-spin fit puts its
        # coupling on the lower bound pi / 2 span, 0.25 MHz, and the 2-spin
        # fit both, so only T0 has an error; the others print n/a
        trace, out = tmp_path / "dr.csv", tmp_path / "sel.json"
        assert run("simulate", "--kind", "deer-rabi", "--omegas-mhz",
                   "0.5,0.55", "--n-avg", "30000", "--seed", "0",
                   "--out", str(trace)) == 0
        capsys.readouterr()
        assert run("select-spins", "--in", str(trace), "--max-n", "2",
                   "--out", str(out)) == 0
        rows = capsys.readouterr().out.splitlines()[1:3]
        one, two = read_json(out)["models"].values()
        w, t0 = one["params"].values()
        assert w == pytest.approx(0.25, rel=1e-12)
        w_err, t0_err = one["param_errors"].values()
        assert w_err is None and 0 < t0_err < t0
        assert rows[0].endswith(
            f"[{w:.3f} +/- n/a]  T0={t0:.3f} +/- {t0_err:.3g}")
        w1, w2, t0 = two["params"].values()
        assert w1 == w2 == w
        *w_errs, t0_err = two["param_errors"].values()
        assert w_errs == [None, None] and 0 < t0_err < t0
        assert rows[1].endswith(
            f"[{w1:.3f} +/- n/a, {w2:.3f} +/- n/a]  T0={t0:.3f} "
            f"+/- {t0_err:.3g}")

    def test_two_spin_model_is_the_fit(self, tmp_path):
        # the selection's 2-spin fit of a coherence trace, not re-anchored,
        # is the one fit --kind deer-rabi gives: one record, field for
        # field, couplings and their errors in MHz
        trace = tmp_path / "dr.csv"
        fit_out, sel_out = tmp_path / "fit.json", tmp_path / "sel.json"
        assert run("simulate", "--kind", "deer-rabi", "--seed", "5",
                   "--out", str(trace)) == 0
        assert run("fit", "--kind", "deer-rabi", "--in", str(trace),
                   "--out", str(fit_out)) == 0
        assert run("select-spins", "--in", str(trace), "--max-n", "2",
                   "--no-canonicalize", "--out", str(sel_out)) == 0
        fit, model = read_json(fit_out), read_json(sel_out)["models"]["2"]
        assert sorted(model) == sorted(RECORD_FIELDS)
        assert model == {key: fit[key] for key in RECORD_FIELDS}
        names = ["omega_1_mhz", "omega_2_mhz", "t0_us"]
        assert list(model["params"]) == list(model["param_errors"]) == names
        assert model["params"]["omega_1_mhz"] == pytest.approx(1.12, abs=0.02)

    @pytest.mark.parametrize("flags", [(), ("--no-canonicalize",)],
                             ids=["default", "no-canonicalize"])
    def test_photon_count_channel_is_error(self, tmp_path, capsys, flags):
        # fit's input rule: a lone photon-count channel is no normalized
        # signal, re-anchored or not
        trace, out = tmp_path / "dr.csv", tmp_path / "sel.json"
        assert run("simulate", "--kind", "deer-rabi", "--seed", "5",
                   "--out", str(trace)) == 0
        raw = read_trace(trace)
        for channel in PHOTON_CHANNELS:
            one = tmp_path / f"{channel}.csv"
            write_trace(one, raw.with_channels({channel:
                                                raw.channel(channel)}))
            capsys.readouterr()
            assert run("select-spins", "--in", str(one), "--max-n", "2",
                       *flags, "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert f"channel {channel!r} holds photon counts" in err
            assert not out.exists()

    def test_k_fixed_flag_is_gone(self, tmp_path, capsys):
        # one selection rule: each fit's own adjusted R^2 at k = n + 1
        trace, out = tmp_path / "dr.csv", tmp_path / "sel.json"
        assert run("simulate", "--kind", "deer-rabi", "--noiseless",
                   "--out", str(trace)) == 0
        capsys.readouterr()
        assert run("select-spins", "--in", str(trace), "--k-fixed", "3",
                   "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestEseem:
    # sha256 of each eseem CSV at its default grid
    SHA256 = {
        ("modulation", ()): "e894e0c3e8298f5aebb4ebf37be31dd140477347eb8053a24575803cb617cc1c",
        ("modulation", ("--n-pulses", "4")): "e2d6783b9d3f392bd2394331daf06aae08b61466616116e2ce9d51e4e14ac9f1",
        ("bath", ()): "3d86c0d73ff7c9840e6dc1925a8c1db3f6eb13066470485282bc1611d210201b",
        ("bath", ("--n-pulses", "4")): "576c7611cf382e87e93e46332120e1e0b474e7794fc8e40790453e60b4b0b6bf",
        ("echo", ()): "38b866b2d6222769191b59f6be591c9a544e3336d8ac15e9f79ac2ae29c3baeb",
        ("echo", ("--n-pulses", "4")): "adbc2f960cbe3d4b1ea3d702bbeaa9d68f6a1bbd25481e70e0084d4f9d7e19f4",
    }

    @pytest.mark.parametrize("mode, extra", sorted(SHA256))
    def test_bytes_pinned(self, tmp_path, mode, extra):
        out = tmp_path / "e.csv"
        assert run("eseem", "--mode", mode, *extra, "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() \
            == self.SHA256[mode, extra]

    @pytest.mark.parametrize("mode, extra, first, last, size", [
        ("bath", ("--x-num", "11"), 0.0, 4.0, 11),
        ("bath", ("--x-start", "1.0"), 1.0, 4.0, 201),
        ("modulation", ("--x-stop", "2.0"), 0.0, 2.0, 251),
        ("echo", ("--x-start", "1.6", "--x-num", "5"), 1.6, 64.0, 5),
    ])
    def test_partial_grid(self, tmp_path, mode, extra, first, last, size):
        # each grid flag replaces its own part of the mode's default grid
        out = tmp_path / "e.csv"
        assert run("eseem", "--mode", mode, *extra, "--out", str(out)) == 0
        np.testing.assert_array_equal(read_trace(out).x,
                                      np.linspace(first, last, size))

    def test_grid_needs_two_points(self, tmp_path, capsys):
        assert run("eseem", "--mode", "bath", "--x-num", "1",
                   "--out", str(tmp_path / "e.csv")) == 1
        assert "x_num must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, extra, unread", [
        ("modulation", ("--b-rms-ut", "0"), "b_rms_ut"),
        ("bath", ("--nuclei", "14n"), "nuclei"),
        ("echo", ("--a-mhz", "1", "--b-mhz", "1"), "a_mhz, b_mhz"),
    ])
    def test_unread_flag_rejected(self, tmp_path, capsys, mode, extra,
                                  unread):
        assert run("eseem", "--mode", mode, *extra,
                   "--out", str(tmp_path / "e.csv")) == 1
        assert (f"--mode {mode} does not read {unread}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("extra, message", [
        (("--a-mhz", "1", "--b-mhz", "1", "--nucleus", "14n"),
         "--mode modulation with --a-mhz/--b-mhz does not read nucleus"),
        (("--nucleus", "14n", "--species", "13C"),
         "--mode modulation does not read species"),
        (("--species", "14N"), "--mode modulation does not read species"),
    ])
    def test_overridden_nucleus_flag_rejected(self, tmp_path, capsys, extra,
                                              message):
        out = tmp_path / "e.csv"
        assert run("eseem", "--mode", "modulation", *extra,
                   "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_modulation_mode(self, tmp_path):
        out = tmp_path / "mod.csv"
        assert run("eseem", "--mode", "modulation", "--out", str(out)) == 0
        tr = read_trace(out)
        assert tr.channel_names == ("V",)
        assert tr.x.size == 251
        assert np.all(tr.channel("V") <= 1.0 + 1e-12)

    def test_bath_mode(self, tmp_path):
        out = tmp_path / "bath.csv"
        assert run("eseem", "--mode", "bath", "--out", str(out)) == 0
        tr = read_trace(out)
        c = tr.channel("C")
        assert c[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(c <= 1.0 + 1e-12)

    def test_bath_mode_pulse_count(self, tmp_path):
        out = tmp_path / "bath4.csv"
        assert run("eseem", "--mode", "bath", "--n-pulses", "4",
                   "--out", str(out)) == 0
        tr = read_trace(out)
        bath = presets.carbon_bath(presets.main_field().b0)
        expected = bath_decoherence(np.linspace(0.0, 4.0, 201), bath, 4)
        np.testing.assert_array_equal(tr.channel("C"), expected)

    def test_echo_mode(self, tmp_path):
        out = tmp_path / "echo.csv"
        assert run("eseem", "--mode", "echo", "--t2-us", "38.0",
                   "--out", str(out)) == 0
        tr = read_trace(out)
        assert set(tr.channel_names) == {"s", "population"}
        assert np.allclose(tr.channel("population"),
                           0.5 * (1.0 + tr.channel("s")), atol=1e-12)

    def test_explicit_hyperfine_pair(self, tmp_path):
        out = tmp_path / "mod2.csv"
        assert run("eseem", "--mode", "modulation", "--a-mhz", "0.5",
                   "--b-mhz", "0.3", "--species", "13C",
                   "--out", str(out)) == 0
        assert run("eseem", "--mode", "modulation", "--a-mhz", "0.5",
                   "--out", str(out)) == 1  # b missing

    def test_unknown_nucleus(self, capsys, tmp_path):
        assert run("eseem", "--mode", "modulation", "--nucleus", "unobtainium",
                   "--out", str(tmp_path / "x.csv")) == 1
        assert "unknown nucleus" in capsys.readouterr().err

    def test_empty_nucleus_is_unknown(self, capsys, tmp_path):
        # an empty label names no nucleus; it is not the default one
        assert run("eseem", "--mode", "modulation", "--nucleus", "",
                   "--out", str(tmp_path / "x.csv")) == 1
        assert "unknown nucleus ''" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("eseem", "--mode", "echo", "--out", str(a))
        run("eseem", "--mode", "echo", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestReport:
    def test_columns_written(self, tmp_path, capsys):
        trace = tmp_path / "rabi.csv"
        fit_json = tmp_path / "fit.json"
        cols = tmp_path / "cols.csv"
        run("simulate", "--kind", "rabi", "--seed", "2", "--out", str(trace))
        run("fit", "--kind", "rabi", "--in", str(trace),
            "--out", str(fit_json))
        assert run("report", "--in", str(trace), "--fit", str(fit_json),
                   "--out", str(cols)) == 0
        lines = [l for l in cols.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "x,data,model,residual"
        row = lines[1].split(",")
        assert float(row[1]) - float(row[2]) == pytest.approx(float(row[3]),
                                                              abs=1e-12)
        assert "residual rms" in capsys.readouterr().out

    def test_model_columns_match_fitting_models(self, tmp_path):
        names = {"gaussian": ("center_mhz", "width_mhz", "amplitude",
                              "baseline"),
                 "rabi": ("f_mhz", "t0_us"),
                 "deer-rabi": ("omega_1_mhz", "omega_2_mhz", "t0_us")}
        cases = (("gaussian", "cpmg-deer",
                  lambda p, x: gaussian_line(x, *p),
                  lambda tr: difference_signal(tr)),
                 ("rabi", "rabi", _rabi_signal,
                  lambda tr: normalized_channels(tr)["SIG1n"]),
                 ("deer-rabi", "deer-rabi", _epr_model,
                  lambda tr: coherence_trace(tr).channel("coherence")))
        for model, sim_kind, fn, prepare in cases:
            trace = tmp_path / f"{model}.csv"
            fit_json = tmp_path / f"{model}.json"
            cols, expected = tmp_path / f"{model}-cols.csv", tmp_path / "x.csv"
            run("simulate", "--kind", sim_kind, "--seed", "3",
                "--out", str(trace))
            run("fit", "--kind", model, "--in", str(trace),
                "--out", str(fit_json))
            assert run("report", "--in", str(trace), "--fit", str(fit_json),
                       "--out", str(cols)) == 0
            params = read_json(fit_json)["params"]
            tr = read_trace(trace)
            data = prepare(tr)
            yhat = fn(np.array([params[n] for n in names[model]]), tr.x)
            write_columns(expected, ("x", "data", "model", "residual"),
                          (tr.x, data, yhat, data - yhat),
                          comments=(f"model: {model}",
                                    "params: " + json.dumps(params,
                                                            sort_keys=True),
                                    f"source trace: {trace}",
                                    f"version: {__version__}"))
            assert cols.read_bytes() == expected.read_bytes()

    def test_deer_rabi_rows_are_the_library_fit_model(self, tmp_path):
        # report reads the couplings in MHz and takes them back to rad/us;
        # on the seed-5 trace, whose couplings survive the round trip, its
        # rows are those of the library fit's own rad/us params, as when
        # reports carried rad/us (other traces can move by an ulp)
        trace, fit_json = tmp_path / "dr.csv", tmp_path / "fit.json"
        cols, expected = tmp_path / "cols.csv", tmp_path / "expected.csv"
        assert run("simulate", "--kind", "deer-rabi", "--seed", "5",
                   "--out", str(trace)) == 0
        assert run("fit", "--kind", "deer-rabi", "--in", str(trace),
                   "--out", str(fit_json)) == 0
        assert run("report", "--in", str(trace), "--fit", str(fit_json),
                   "--out", str(cols)) == 0
        work = coherence_trace(read_trace(trace))
        fit = fit_deer_rabi(work, n_spins=2)
        model = nv_epr_signal(TargetSpinModel(omegas=tuple(fit.params[:-1]),
                                              t0=fit.params[-1]), work.x)
        data = work.channel("coherence")
        write_columns(expected, ("x", "data", "model", "residual"),
                      (work.x, data, model, data - model))
        rows = [line for line in cols.read_text().splitlines(True)
                if not line.startswith("#")]
        assert "".join(rows) == expected.read_text()

    def test_rad_us_couplings_are_data_error(self, tmp_path, capsys):
        # a report keyed omega_<i>_rad_us would be read as MHz, 2 pi off
        trace, fit_json = tmp_path / "dr.csv", tmp_path / "fit.json"
        cols = tmp_path / "cols.csv"
        run("simulate", "--kind", "deer-rabi", "--noiseless",
            "--out", str(trace))
        fit_json.write_text(json.dumps({"model": "deer-rabi", "params": {
            "omega_1_rad_us": 7.04, "omega_2_rad_us": 14.07,
            "t0_us": 0.34}}))
        capsys.readouterr()
        assert run("report", "--in", str(trace), "--fit", str(fit_json),
                   "--out", str(cols)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "['omega_1_rad_us', 'omega_2_rad_us']" in err
        assert "omega_<i>_mhz" in err
        assert not cols.exists()

    def test_report_uses_the_fit_channel(self, tmp_path):
        trace, fit_json = tmp_path / "deer.csv", tmp_path / "fit.json"
        cols = tmp_path / "cols.csv"
        run("simulate", "--kind", "cpmg-deer", "--seed", "2",
            "--out", str(trace))
        run("fit", "--kind", "gaussian", "--channel", "SIG1",
            "--in", str(trace), "--out", str(fit_json))
        report = read_json(fit_json)
        assert report["channel"] == "SIG1"
        assert run("report", "--in", str(trace), "--fit", str(fit_json),
                   "--out", str(cols)) == 0
        tr = read_trace(trace)
        params = [report["params"][n] for n in ("center_mhz", "width_mhz",
                                                "amplitude", "baseline")]
        data = np.loadtxt(cols, delimiter=",", comments="#", skiprows=5)
        np.testing.assert_array_equal(data[:, 1], tr.channel("SIG1"))
        np.testing.assert_array_equal(data[:, 2], gaussian_line(tr.x, *params))
        # a report from before the channel was recorded: the difference
        # signal
        del report["channel"]
        fit_json.write_text(json.dumps(report))
        assert run("report", "--in", str(trace), "--fit", str(fit_json),
                   "--out", str(cols)) == 0
        data = np.loadtxt(cols, delimiter=",", comments="#", skiprows=5)
        np.testing.assert_array_equal(data[:, 1], difference_signal(tr))

    def test_missing_fit_channel_is_config_error(self, tmp_path, capsys):
        trace, fit_json = tmp_path / "deer.csv", tmp_path / "fit.json"
        cols, cfg = tmp_path / "cols.csv", tmp_path / "c.json"
        cfg.write_text('{"sequence": {"channels": ["SIG1", "REF1", "REF2"]}}')
        run("simulate", "--kind", "cpmg-deer", "--seed", "2",
            "--config", str(cfg), "--out", str(trace))
        run("fit", "--kind", "gaussian", "--channel", "SIG1",
            "--in", str(trace), "--out", str(fit_json))
        report = read_json(fit_json)
        report["channel"] = "SIG2"
        fit_json.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("report", "--in", str(trace), "--fit", str(fit_json),
                   "--out", str(cols)) == 1
        assert capsys.readouterr().err == (
            "error: no channel 'SIG2'; trace has ['REF1', 'REF2', 'SIG1']\n")
        assert not cols.exists()

    def test_unknown_model_rejected(self, tmp_path):
        trace = tmp_path / "rabi.csv"
        run("simulate", "--kind", "rabi", "--noiseless", "--out", str(trace))
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": "mystery", "params": {}}')
        assert run("report", "--in", str(trace), "--fit", str(bad)) == 1

    def test_missing_param_is_data_error(self, tmp_path, capsys):
        trace = tmp_path / "rabi.csv"
        run("simulate", "--kind", "rabi", "--noiseless", "--out", str(trace))
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": "rabi", "params": {"f_mhz": 5.5}}')
        assert run("report", "--in", str(trace), "--fit", str(bad)) == 2
        assert "t0_us" in capsys.readouterr().err

    @pytest.mark.parametrize("model, params, key", [
        ("rabi", ["f_mhz", "t0_us"], "'params'"),
        ("rabi", {"f_mhz": "5.5", "t0_us": 1.0}, "'f_mhz'"),
        ("gaussian", {"center_mhz": None, "width_mhz": 1.0, "amplitude": 0.1,
                      "baseline": 1.0}, "'center_mhz'"),
        ("rabi", {"f_mhz": True, "t0_us": 1.0}, "'f_mhz'"),
        ("rabi", {"f_mhz": 5.5, "t0_us": float("nan")}, "'t0_us'"),
        ("rabi", {"f_mhz": 10 ** 400, "t0_us": 1.0}, "'f_mhz'"),
        ("deer-rabi", {"omega_1": [1.0], "t0_us": 1.0}, "'omega_1'"),
        # finite, but outside what the model record accepts
        ("rabi", {"f_mhz": 5.5, "t0_us": 0}, "'t0_us'"),
        ("rabi", {"f_mhz": 5.5, "t0_us": -0.5}, "'t0_us'"),
        ("rabi", {"f_mhz": -3, "t0_us": 1.0}, "'f_mhz'"),
        ("gaussian", {"center_mhz": 915.0, "width_mhz": 0, "amplitude": 0.1,
                      "baseline": 0.0}, "'width_mhz'"),
        ("deer-rabi", {"omega_1_mhz": 1.1, "t0_us": 0}, "'t0_us'"),
        ("deer-rabi", {"t0_us": 0.3}, "1 to 5 target spins, got 0"),
    ])
    def test_malformed_param_is_data_error(self, tmp_path, capsys, model,
                                           params, key):
        trace, bad = tmp_path / "rabi.csv", tmp_path / "bad.json"
        cols = tmp_path / "cols.csv"
        run("simulate", "--kind", "rabi", "--noiseless", "--out", str(trace))
        bad.write_text(json.dumps({"model": model, "params": params}))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("report", "--in", str(trace), "--fit", str(bad),
                       "--out", str(cols)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and key in err
        assert not cols.exists()


class TestUnreadableInput:
    """Paths that are directories, and inputs that are not UTF-8 or JSON."""

    @pytest.fixture
    def rabi(self, tmp_path):
        trace, fit = tmp_path / "rabi.csv", tmp_path / "rabi.json"
        assert run("simulate", "--kind", "rabi", "--noiseless",
                   "--out", str(trace)) == 0
        assert run("fit", "--kind", "rabi", "--in", str(trace),
                   "--out", str(fit)) == 0
        return trace, fit

    def run_leaving_nothing(self, tmp_path, capsys, argv, **paths):
        """Exit code and stderr of argv, whose {names} are paths, after
        checking that tmp_path is left as it was."""
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        code = run(*(a.format(out=tmp_path / "out", **paths) for a in argv))
        assert sorted(tmp_path.rglob("*")) == before
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("fit", "--kind", "rabi", "--in", "{dir}", "--out", "{out}"),
        ("simulate", "--kind", "rabi", "--out", "{dir}"),
        ("simulate", "--kind", "rabi", "--config", "{dir}", "--out", "{out}"),
        ("report", "--in", "{trace}", "--fit", "{dir}", "--out", "{out}"),
    ])
    def test_directory_path_is_error(self, tmp_path, capsys, rabi, argv):
        # the simulate --out case fails at the rename of its temp file
        directory = tmp_path / "d"
        directory.mkdir()
        code, err = self.run_leaving_nothing(tmp_path, capsys, argv,
                                             dir=directory, trace=rabi[0])
        assert code == 1
        assert err.startswith("error: [Errno 21] Is a directory: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        # simulate --out names the directory, not its removed temp file
        assert ".tmp-" not in err

    @pytest.mark.parametrize("argv", [
        ("fit", "--kind", "rabi", "--in", "{bad}", "--out", "{out}"),
        ("select-spins", "--in", "{bad}", "--out", "{out}"),
        ("report", "--in", "{bad}", "--fit", "{fit}", "--out", "{out}"),
        ("report", "--in", "{trace}", "--fit", "{bad}", "--out", "{out}"),
    ])
    def test_undecodable_input_is_data_error(self, tmp_path, capsys, rabi,
                                             argv):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe")
        code, err = self.run_leaving_nothing(tmp_path, capsys, argv, bad=bad,
                                             trace=rabi[0], fit=rabi[1])
        assert code == 2
        assert err == (f"data error: {bad}: 'utf-8' codec can't decode byte "
                       "0xff in position 0: invalid start byte\n")

    @pytest.mark.parametrize("argv", [
        ("fit", "--kind", "rabi", "--in", "{ab}", "--out", "{out}"),
        ("fit", "--kind", "gaussian", "--in", "{ab}", "--out", "{out}"),
        ("fit", "--kind", "deer-rabi", "--in", "{ab}", "--out", "{out}"),
        ("select-spins", "--in", "{ab}", "--out", "{out}"),
    ])
    def test_channels_without_reference_pair_is_input_error(
            self, tmp_path, capsys, rabi, argv):
        # two channels, so no lone one to fit, and neither is REF1 or REF2
        trace = read_trace(rabi[0])
        ab = tmp_path / "ab.csv"
        write_trace(ab, trace.with_channels({"A": trace.channel("SIG1"),
                                             "B": trace.channel("REF1")}))
        code, err = self.run_leaving_nothing(tmp_path, capsys, argv, ab=ab)
        assert code == 1
        assert err == ("error: trace has multiple channels but no REF1/REF2 "
                       "pair; pass --channel to pick one\n")

    def test_fit_report_not_an_object_is_data_error(self, tmp_path, capsys,
                                                    rabi):
        arr = tmp_path / "arr.json"
        arr.write_text("[1]")
        code, err = self.run_leaving_nothing(
            tmp_path, capsys,
            ("report", "--in", "{trace}", "--fit", "{arr}", "--out", "{out}"),
            trace=rabi[0], arr=arr)
        assert code == 2
        assert err == f"data error: {arr}: fit report must be a JSON object\n"

    def test_truncated_fit_report_is_data_error(self, tmp_path, capsys,
                                                rabi):
        cut = tmp_path / "cut.json"
        cut.write_text('{"model": "rabi", ')
        code, err = self.run_leaving_nothing(
            tmp_path, capsys,
            ("report", "--in", "{trace}", "--fit", "{cut}", "--out", "{out}"),
            trace=rabi[0], cut=cut)
        assert code == 2
        assert err == (f"data error: {cut}: invalid JSON at line 1, column "
                       "19: Expecting property name enclosed in double "
                       "quotes\n")


class TestParser:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("simulate", "--kind", "rabi", "--frobnicate") == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command(self):
        assert run("transmogrify") == 1

    @pytest.mark.parametrize("argv, code", [(["--version"], 0),
                                            (["transmogrify"], 1)])
    def test_module_entry_point_exits_with_the_code_of_main(
            self, monkeypatch, capsys, argv, code):
        # python -m nvsense.cli, where no nvsense script is on PATH; a
        # loaded nvsense.cli would make runpy warn before running it
        monkeypatch.delitem(sys.modules, "nvsense.cli", raising=False)
        monkeypatch.setattr(sys, "argv", ["nvsense", *argv])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("nvsense.cli", run_name="__main__")
        assert exc.value.code == code
        out, err = capsys.readouterr()
        assert (__version__ in out) if code == 0 else err.startswith("error:")
