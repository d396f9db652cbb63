import numpy as np
import pytest
from propellers import make_spec

from rotorsense.events import SensorGeometry
from rotorsense.sim import NO_NOISE, NoiseSpec, simulate_propellers


@pytest.fixture(scope="session")
def clean_3000():
    """Noise-free 3000 RPM stream, 50 ms: the workhorse fixture."""
    events, truth = simulate_propellers([make_spec()], NO_NOISE, duration_us=50_000, tick_us=50, seed=1)
    return events, truth


@pytest.fixture(scope="session")
def noisy_3000():
    """3000 RPM with background noise, hot pixels, and jitter on a 320x240 sensor."""
    noise = NoiseSpec(
        background_rate=10.0, hot_pixel_count=20, hot_pixel_rate=2000.0, vibration_jitter_px=0.5
    )
    spec = make_spec(center=(80.0, 80.0), blade_length=40.0)
    events, truth = simulate_propellers(
        [spec], noise, duration_us=100_000, tick_us=40, seed=3, geometry=SensorGeometry(320, 240)
    )
    return events, truth, spec


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
