import pytest

from rieszkit import default_ball_family, dyadic_ball_family


@pytest.fixture(scope="session")
def std_family():
    """Dyadic ball family around the usual singular centers on the line."""
    return default_ball_family(1)


@pytest.fixture(scope="session")
def small_family():
    return dyadic_ball_family([[0.0], [1.0], [-1.0]], -6, 2)
