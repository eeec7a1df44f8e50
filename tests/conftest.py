import json
import os
import tempfile

import numpy as np
import pytest

from voteweight import FileSource
# re-exported for the test modules
from voteweight.adversaries import random_rankings  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def ranking(*order):
    """One ranking as a tuple order, best first."""
    return order


def orders_of(rankings):
    """The (n, m) orders of a sequence of rankings, as `evaluate` takes them."""
    return np.array(rankings)


def alone(ranking):
    """The profile in which one ranking carries all the weight, as (orders, weights)."""
    return [ranking], [1.0]


def voter_rankings(source, groups):
    """The (n, m) orders, one per voter, of an adversary's round with these groups."""
    return source.orders[groups]


def voter_losses(rule, rankings, losses):
    """Each voter's expected loss if its ranking carried all the weight."""
    return np.array([float(rule.evaluate(*alone(r)) @ losses) for r in rankings])


def file_source(lines):
    """A FileSource over the given JSONL round objects; it parses the whole
    file on construction, so the file is removed right after."""
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(json.dumps(obj) + "\n" for obj in lines)
        return FileSource(path)
    finally:
        os.unlink(path)


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
