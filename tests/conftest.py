import numpy as np
import pytest

from voteweight import make_ranking
# re-exported for the test modules
from voteweight.adversaries import random_rankings  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def ranking(*order):
    return make_ranking(order, len(order))


@pytest.fixture
def abc():
    return ranking(0, 1, 2)


@pytest.fixture
def bac():
    return ranking(1, 0, 2)


@pytest.fixture
def bca():
    return ranking(1, 2, 0)


@pytest.fixture
def cab():
    return ranking(2, 0, 1)
