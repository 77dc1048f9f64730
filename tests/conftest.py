import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def generated_recordings():
    """Two scripted 1 s recordings (seeds 5 and 6) at the default config."""
    from evsteer.datagen import DatagenConfig, generate_recording
    from evsteer.sim import SimConfig

    cfg = DatagenConfig(sim=SimConfig(), duration=1.0)
    return [generate_recording(cfg, seed) for seed in (5, 6)]
