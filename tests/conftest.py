import pytest

from rieszkit import QuadratureScheme, default_ball_family, dyadic_ball_family


@pytest.fixture(scope="session")
def std_family():
    """Dyadic ball family around the usual singular centers on the line."""
    return default_ball_family(1)


@pytest.fixture(scope="session")
def small_family():
    return dyadic_ball_family([[0.0], [1.0], [-1.0]], -6, 2)


@pytest.fixture(scope="session")
def fast_scheme():
    """Cheaper 1-d scheme for unit tests that do many integrals."""
    return QuadratureScheme(resolution=128, tol=1e-5)
