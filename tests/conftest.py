from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import theta_forge
from theta_forge.symplectic import sample_siegel_point

# --hypothesis-profile=seeded: --hypothesis-seed alone decides the draws (the
# built-in "ci" profile derandomizes, which ignores the seed) and no example
# database replays the failures of an earlier run
settings.register_profile("seeded", derandomize=False, database=None)


@pytest.fixture
def package_root():
    """Import root of the ``theta_forge`` this process is testing.

    Child processes put it on ``PYTHONPATH`` so that they import the same
    package, whether it comes from a ``src/`` checkout or an install.
    """
    return str(Path(theta_forge.__file__).resolve().parent.parent)


@pytest.fixture
def rng():
    return np.random.default_rng(20240615)


@pytest.fixture
def tau_g1(rng):
    return sample_siegel_point(1, rng)


@pytest.fixture
def tau_g2(rng):
    return sample_siegel_point(2, rng)


@pytest.fixture
def tau_g3(rng):
    return sample_siegel_point(3, rng)
