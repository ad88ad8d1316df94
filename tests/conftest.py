import pytest

from betatet.tetration import get_model


@pytest.fixture(scope="session")
def high_model():
    return get_model(profile="high")


@pytest.fixture(scope="session")
def default_model():
    return get_model(profile="default")
