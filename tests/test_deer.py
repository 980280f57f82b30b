import math

import numpy as np
import pytest

from nvsense.core import TWO_PI
from nvsense.deer import (DeerSpectrumModel, TargetSpinModel, deer_spectrum,
                          nv_epr_signal, statistical_average_bruteforce)


class TestStatisticalAverage:
    def test_factorization_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = rng.integers(1, 7)
            ws = rng.uniform(0.5, 40.0, size=n)
            t = rng.uniform(0.0, 2.0)
            avg = statistical_average_bruteforce(ws, t)
            assert avg == pytest.approx(float(np.prod(np.cos(ws * t))),
                                        abs=1e-12)

    def test_vectorized_time(self):
        t = np.linspace(0.0, 1.0, 9)
        avg = statistical_average_bruteforce([3.0, 5.0], t)
        assert np.allclose(avg, np.cos(3.0 * t) * np.cos(5.0 * t), atol=1e-12)

    def test_limits(self):
        with pytest.raises(ValueError):
            statistical_average_bruteforce([], 0.1)
        with pytest.raises(ValueError):
            statistical_average_bruteforce(np.ones(21), 0.1)


class TestEprSignal:
    def test_starts_at_one(self):
        model = TargetSpinModel(omegas=(TWO_PI * 1.12, TWO_PI * 2.24), t0=0.34)
        assert nv_epr_signal(model, 0.0) == pytest.approx(1.0)

    def test_bounded(self):
        model = TargetSpinModel(omegas=(TWO_PI * 1.12, TWO_PI * 2.24), t0=0.34)
        t = np.linspace(0.0, 2.0, 400)
        y = nv_epr_signal(model, t)
        assert np.all(y >= 0.0) and np.all(y <= 1.0)

    def test_no_decay_branch(self):
        model = TargetSpinModel(omegas=(TWO_PI * 1.5,), t0=math.inf)
        t = np.linspace(0.0, 1.0, 11)
        assert np.allclose(nv_epr_signal(model, t),
                           0.5 + 0.5 * np.cos(TWO_PI * 1.5 * t), atol=1e-12)

    def test_single_spin_form(self):
        model = TargetSpinModel(omegas=(TWO_PI * 2.0,), t0=0.5)
        t = np.linspace(0.0, 1.0, 11)
        expected = 0.5 + 0.5 * np.exp(-((t / 0.5) ** 2)) \
            * np.cos(TWO_PI * 2.0 * t)
        assert np.allclose(nv_epr_signal(model, t), expected, atol=1e-12)

    def test_spin_count_limits(self):
        with pytest.raises(ValueError):
            TargetSpinModel(omegas=(), t0=0.3)
        with pytest.raises(ValueError):
            TargetSpinModel(omegas=tuple([1.0] * 6), t0=0.3)
        with pytest.raises(ValueError):
            TargetSpinModel(omegas=(1.0,), t0=0.0)
        assert TargetSpinModel(omegas=(1.0, 2.0), t0=1.0).n_spins == 2


class TestSpectrum:
    def test_center_value(self):
        model = DeerSpectrumModel(center=914.7, width=9.0, amplitude=-0.3,
                                  baseline=0.5)
        assert deer_spectrum(914.7, model) == pytest.approx(0.2)

    def test_far_wing_is_baseline(self):
        model = DeerSpectrumModel(center=914.7, width=9.0, amplitude=-0.3,
                                  baseline=0.5)
        assert deer_spectrum(914.7 + 80.0, model) == pytest.approx(0.5,
                                                                   abs=1e-9)

    def test_gaussian_profile(self):
        model = DeerSpectrumModel(center=900.0, width=10.0, amplitude=1.0)
        f = np.array([890.0, 900.0, 910.0])
        y = deer_spectrum(f, model)
        assert y[1] == pytest.approx(1.0)
        assert y[0] == pytest.approx(math.exp(-0.5))
        assert y[0] == pytest.approx(y[2])

    def test_width_positive(self):
        with pytest.raises(ValueError):
            DeerSpectrumModel(center=900.0, width=0.0, amplitude=1.0)
