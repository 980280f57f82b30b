import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import nvsense
from nvsense.fitting import FitProblem
from nvsense.core import (DEFAULT_CONSTANTS, FieldEstimate,
                          PhysicalConstants, Trace, XKind, spin1_operators)


def test_default_constants_values():
    c = DEFAULT_CONSTANTS
    assert c.gamma_nv == pytest.approx(28.024)
    assert c.zero_field_d == pytest.approx(2870.0)
    assert c.gamma_c13 == pytest.approx(0.010708)
    assert c.gamma_n14 == pytest.approx(0.003077)
    assert c.mu_b_over_h == pytest.approx(13.9962, rel=1e-5)


def test_constants_g_sanity_check():
    # gamma/mu_b must stay near the electron g; a wild ratio is a unit slip
    with pytest.raises(ValueError):
        PhysicalConstants(gamma_nv=100.0)


_FIXED_SETTINGS = {"constants", "gamma_e", "noise_floor", "tol"}


def _package_callables():
    """Every function and method (__init__ included) of an nvsense module."""
    for info in pkgutil.iter_modules(nvsense.__path__):
        module = importlib.import_module(f"nvsense.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                yield from (member for member in vars(obj).values()
                            if inspect.isfunction(member))


def test_constants_and_tolerances_are_not_settable():
    # DEFAULT_CONSTANTS, the convergence tolerance, the bath's electron
    # ratio and the normalization floor each have one value in use
    callables = list(_package_callables())
    assert len(callables) > 100
    for obj in callables:
        params = set(inspect.signature(obj).parameters)
        assert not params & _FIXED_SETTINGS, (obj.__qualname__, params)
    assert "tol" not in {f.name for f in dataclasses.fields(FitProblem)}
    assert not hasattr(PhysicalConstants, "replace")


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from nvsense import *", namespace)
    assert len(set(nvsense.__all__)) == len(nvsense.__all__)
    assert set(nvsense.__all__) <= set(namespace)


def test_submodules_load_on_first_use():
    # a fresh interpreter, so no other test has imported a submodule yet
    code = textwrap.dedent("""
        import sys
        import nvsense

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("nvsense."))

        assert loaded() == [], loaded()
        nvsense.load_hyperfine_table()
        assert loaded() == ["nvsense.core", "nvsense.eseem"], loaded()
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_lazy_names_resolve_to_their_modules(monkeypatch):
    # without its global, presets is looked up through __getattr__
    monkeypatch.delattr(nvsense, "presets")
    for module in nvsense._SUBMODULES:
        assert getattr(nvsense, module) is sys.modules[f"nvsense.{module}"]
    assert set(nvsense.__all__) == {"__version__"}.union(
        *nvsense._EXPORTS.values())
    for module, names in nvsense._EXPORTS.items():
        owner = importlib.import_module(f"nvsense.{module}")
        for name in names:
            assert getattr(nvsense, name) is getattr(owner, name), name
    with pytest.raises(AttributeError) as caught:
        nvsense.no_such_name
    assert str(caught.value) == ("module 'nvsense' has no attribute "
                                 "'no_such_name'")
    assert set(nvsense.__all__) <= set(dir(nvsense))


def test_spin1_operators_algebra():
    sx, sy, sz = spin1_operators()
    # commutator [Sx, Sy] = i Sz and Casimir S(S+1) = 2
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
    assert np.allclose(sx @ sx + sy @ sy + sz @ sz, 2.0 * np.eye(3),
                       atol=1e-12)
    assert np.allclose(sz, np.diag([1.0, 0.0, -1.0]))
    with pytest.raises(ValueError):
        sx[0, 0] = 5.0  # read-only


def test_xkind_units():
    assert XKind.FREQUENCY.unit == "MHz"
    assert XKind.PULSE_LENGTH.unit == "us"
    assert XKind.EVOLUTION_TIME.unit == "us"


class TestTrace:
    def test_basic_construction(self):
        x = np.linspace(0, 1, 5)
        tr = Trace(x, XKind.PULSE_LENGTH, {"SIG1": np.ones(5)}, n_avg=100)
        assert tr.n_avg == 100
        assert tr.channel_names == ("SIG1",)
        assert np.all(tr.channel("SIG1") == 1.0)

    def test_rejects_non_increasing_x(self):
        with pytest.raises(ValueError):
            Trace(np.array([0.0, 1.0, 1.0]), XKind.FREQUENCY,
                  {"a": np.zeros(3)})
        with pytest.raises(ValueError):
            Trace(np.array([2.0, 1.0]), XKind.FREQUENCY, {"a": np.zeros(2)})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_spanning_the_float_range(self):
        # the difference of the ends overflows; comparing neighbours does not
        tr = Trace(np.array([-1e308, 1e308]), XKind.FREQUENCY,
                   {"a": np.zeros(2)})
        assert tr.x.tolist() == [-1e308, 1e308]
        with pytest.raises(ValueError, match="strictly increasing"):
            Trace(np.array([1e308, -1e308]), XKind.FREQUENCY,
                  {"a": np.zeros(2)})

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Trace(np.array([0.0, 1.0]), XKind.FREQUENCY, {"a": np.zeros(3)})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Trace(np.array([0.0, 1.0]), XKind.FREQUENCY,
                  {"a": np.array([1.0, np.nan])})

    def test_rejects_bad_n_avg(self):
        x = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            Trace(x, XKind.FREQUENCY, {"a": np.zeros(2)}, n_avg=0)
        with pytest.raises(ValueError):
            Trace(x, XKind.FREQUENCY, {"a": np.zeros(2)}, n_avg=1.5)

    def test_channels_are_copied_and_locked(self):
        x = np.array([0.0, 1.0])
        src = np.array([1.0, 2.0])
        tr = Trace(x, XKind.FREQUENCY, {"a": src})
        src[0] = 99.0
        assert tr.channel("a")[0] == 1.0
        with pytest.raises(ValueError):
            tr.channel("a")[0] = 5.0

    @pytest.mark.parametrize("name", ["line\nbreak", "a\r", "\r\n",
                                      "v\x0bt", "f\x0cf", "s\x1cep",
                                      "n\x85l", "l\u2028s"])
    def test_channel_name_with_line_break_rejected(self, name):
        with pytest.raises(ValueError, match="line break"):
            Trace(np.array([0.0, 1.0]), XKind.FREQUENCY, {name: np.zeros(2)})

    def test_unknown_channel(self):
        tr = Trace(np.array([0.0, 1.0]), XKind.FREQUENCY, {"a": np.zeros(2)})
        with pytest.raises(KeyError):
            tr.channel("nope")

    def test_with_channels_preserves_axis(self):
        tr = Trace(np.array([0.0, 1.0]), XKind.PULSE_LENGTH,
                   {"a": np.zeros(2)}, n_avg=7)
        tr2 = tr.with_channels({"b": np.ones(2)})
        assert tr2.n_avg == 7
        assert tr2.x_kind is XKind.PULSE_LENGTH
        assert tr2.channel_names == ("b",)
        assert np.all(tr2.x == tr.x)


def test_field_estimate_validation():
    fe = FieldEstimate(b0=32.59, theta=0.061, b0_err=0.02, theta_err=0.01)
    assert fe.b0 == 32.59
    with pytest.raises(ValueError):
        FieldEstimate(b0=-1.0, theta=0.0)
    with pytest.raises(ValueError):
        FieldEstimate(b0=1.0, theta=2.0)  # beyond pi/2
