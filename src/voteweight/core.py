"""Core election values: rankings as orders and rank codes, weights and draws.

Alternatives are round-local integers ``0..m-1``. A ranking is an order, a row
permuting ``0..m-1`` best first, so the most preferred alternative has
position 0; its rank code is its lexicographic index among the m! orders. A
weighted profile is the voters' (n, m) orders plus a weight vector (see
:func:`~voteweight.rules.group_statistic`). Draws take uniforms the caller
supplies.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateWeightsError,
    EnumerationRefusedError,
    InvalidRankingError,
    ShapeError,
)

#: Comparison tolerance for all probability/loss identities. Everything tested
#: against it is a short sum of double-precision products.
TOL = 1e-12

#: Largest number of alternatives whose m! rank codes fit in int64.
MAX_M = 20

SUITES = ("identities", "estimators", "adversaries", "all")  # verify's; checks.run_suite runs them


def check_alternatives(m: int) -> int:
    """Reject alternative counts outside 2..MAX_M: with one alternative the
    positional score sums vanish, and past MAX_M rank codes overflow."""
    if not 2 <= m <= MAX_M:
        raise ShapeError(f"need 2 <= m <= {MAX_M} alternatives, got {m}")
    return m


def whole_number(value, key: str) -> int:
    """A config count, seed or index as an int: JSON true and false, strings,
    negative numbers and floats that are not whole numbers (infinity and NaN
    included) are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer() or value < 0):
        raise ConfigError(f"{key} must be a non-negative whole number, got {value!r}")
    return int(value)


def all_rankings(m: int) -> np.ndarray:
    """The (m!, m) orders of all rankings in lexicographic order, row c having
    rank code c; guarded against large m."""
    if m > 8:
        raise EnumerationRefusedError(f"refusing to enumerate {m}! rankings")
    return orders_from_codes(np.arange(math.factorial(m)), m)


def rank_codes(orders) -> np.ndarray:
    """Lexicographic index of each order among the m! orderings (its Lehmer code).

    `orders` has shape (..., m), any integer dtype, and holds permutations of
    0..m-1; the result drops the last axis. ``all_rankings(m)[c]`` is the order
    with code c. Digits add up column comparisons, not sums over the short last axis.
    """
    orders = np.asarray(orders)
    m = orders.shape[-1]
    codes = np.zeros(orders.shape[:-1], dtype=np.int64)
    for j in range(m - 1):
        codes *= m - j
        for k in range(j + 1, m):
            codes += orders[..., k] < orders[..., j]
    return codes


def orders_from_codes(codes, m: int) -> np.ndarray:
    """Inverse of :func:`rank_codes`: the (k, m) orders of k codes over m
    alternatives, decoded as arrays: split into Lehmer digits, then each digit
    is shifted past the alternatives placed before it."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    if np.any((codes < 0) | (codes >= math.factorial(m))):
        raise InvalidRankingError(f"rank codes must lie in 0..{m}!-1 for m={m}")
    orders = np.empty((len(codes), m), dtype=np.int64)
    for j in range(m):
        orders[:, j], codes = np.divmod(codes, math.factorial(m - 1 - j))
    for j in range(m - 2, -1, -1):
        orders[:, j + 1:] += orders[:, j + 1:] >= orders[:, j, None]
    return orders


def as_weights(weights: Sequence[float] | np.ndarray) -> tuple[np.ndarray, float]:
    """The weights as floats and their total, which must be positive and finite."""
    w = np.asarray(weights, dtype=float)
    if not (w >= 0).all():  # also false for NaN
        raise DegenerateWeightsError("weights must be non-negative numbers")
    total = float(w.sum())
    if not 0 < total < math.inf:
        raise DegenerateWeightsError("total weight must be positive and finite")
    return w, total


def inverse_cdf(weights: np.ndarray, u) -> np.ndarray:
    """Row-wise inverse-CDF draws from unnormalized non-negative weights.

    `weights` has shape (..., k) and `u` (uniforms in [0, 1)) the shape of its
    leading axes. Each draw is the first index whose normalized cumulative weight
    exceeds u, bisect_right's in a normalized row. The normalized total is exactly
    1, so the draw always lands on a positive weight, zero padding included. More
    draws than k**2 add one category at a time along the draws, in a cumsum's order.
    """
    if np.size(weights) > np.shape(weights)[-1] ** 3:
        cdf = list(itertools.accumulate(np.moveaxis(weights, -1, 0)))
        return sum(c / cdf[-1] <= u for c in cdf)
    cdf = np.cumsum(weights, axis=-1)
    return np.add.reduce(cdf / cdf[..., -1:] <= np.asarray(u)[..., None], axis=-1)
