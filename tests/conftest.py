import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# pytest puts src/ on its own path (pyproject's pythonpath); the Python processes the tests
# start import the package from the same checkout
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,  # the same examples on every run, so a failure reproduces
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
