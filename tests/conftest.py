import pytest

from qsagnac import InterferometerGeometry
from qsagnac.expsim import NoiseConfig


@pytest.fixture
def bench_geometry():
    """The 2 km, 360-turn square loop with its measured 715 m^2 area."""
    return InterferometerGeometry.square(
        fiber_length=2000.0, turns=360, effective_area=715.0,
        wavelength=1546e-9)


@pytest.fixture
def quiet_noise():
    return NoiseConfig(dark_rate=0.0, motor_sigma=0.0, drift_rate=0.0,
                       walk_sigma=0.0, polarimeter_sigma=0.0,
                       leakage_fraction=0.0)
