import numpy as np
import pytest

from eigenwave.grid import Grid2D, GridError
from eigenwave.synthetics import add_model_noise, make_layered_model


def layered_model():
    g = Grid2D(nx=30, nz=20, hx=10.0, hz=10.0)
    return make_layered_model(g, 1500.0, 3000.0, c_min=1000.0, c_max=4000.0)


class TestAddModelNoise:
    def test_seeded(self):
        m = layered_model()
        a = add_model_noise(m, 5.0, seed=3)
        assert a.m.tobytes() == add_model_noise(m, 5.0, seed=3).m.tobytes()
        assert a.m.tobytes() != add_model_noise(m, 5.0, seed=4).m.tobytes()

    @pytest.mark.parametrize("percent", [0.5, 5.0, 40.0])
    def test_speeds_stay_within_percent(self, percent):
        # 40 % pushes speeds past c_min and c_max: the noise leaves the
        # clamp to the caller and keeps the box
        m = layered_model()
        noisy = add_model_noise(m, percent, seed=1)
        assert (noisy.c_min, noisy.c_max) == (m.c_min, m.c_max)
        ratio = noisy.speeds().values / m.speeds().values
        p = percent / 100.0
        assert ratio.min() >= 1.0 - p - 1e-12
        assert ratio.max() <= 1.0 + p + 1e-12
        # the draws fill the band, not a narrower one
        assert ratio.min() < 1.0 - 0.9 * p
        assert ratio.max() > 1.0 + 0.9 * p

    def test_zero_percent_returns_input(self):
        m = layered_model()
        assert add_model_noise(m, 0.0, seed=1) is m

    @pytest.mark.parametrize("percent", [100.0, 250.0, -0.1])
    def test_percent_out_of_range(self, percent):
        with pytest.raises(GridError):
            add_model_noise(layered_model(), percent, seed=1)
