"""Anonymous voting rules: positional scoring, Copeland, unilaterals, duples,
and mixtures, in deterministic and randomized forms.

Every rule maps a weighted profile, voters' orders plus their weights, to a
probability vector over alternatives through a linear statistic of it:
``statistic(orders)`` gives each ranking's vector, the profile's statistic is
their mass-weighted sum (:func:`group_statistic`, the one place that forms it),
and ``decide`` maps that sum to the outcome. Deterministic rules return a point
mass and break score ties by smallest alternative id.
"""

from __future__ import annotations

import itertools
import math
import numbers
from typing import Callable, Optional, Sequence

import numpy as np

from .core import TOL, all_rankings, as_weights, orders_from_codes, whole_number
from .errors import ConfigError, InvalidPairError, InvalidRankingError, ShapeError

# ---------------------------------------------------------------------------
# Score vectors


def plurality_scores(m: int) -> np.ndarray:
    return np.array([1.0] + [0.0] * (m - 1))


def veto_scores(m: int) -> np.ndarray:
    return np.array([1.0] * (m - 1) + [0.0])


def borda_scores(m: int) -> np.ndarray:
    return np.arange(m - 1, -1, -1, dtype=float)


_SCORE_FAMILIES: dict[str, Callable[[int], np.ndarray]] = {
    "plurality": plurality_scores,
    "veto": veto_scores,
    "borda": borda_scores,
}


def validate_scores(s: Sequence[float] | np.ndarray) -> np.ndarray:
    """Check s1 >= s2 >= ... >= sm >= 0 with s1 > 0, all finite with a finite sum."""
    items = s.tolist() if isinstance(s, np.ndarray) else s
    if not isinstance(items, (list, tuple)) or not items or not all(
            isinstance(x, numbers.Real) and not isinstance(x, bool) for x in items):
        raise ShapeError(f"scores must be a non-empty list of numbers, got {s!r}")
    vec = np.array(items, dtype=float)
    with np.errstate(over="ignore"):  # the sum the rules normalize by; refused, not warned of
        total = float(vec.sum())
    if not math.isfinite(total):  # also false for a NaN or infinite entry
        raise ShapeError(f"scores must be finite with a finite sum, got {vec.tolist()}")
    if np.any(np.diff(vec) > 0):
        raise ShapeError("scores must be non-increasing")
    if vec[-1] < 0:
        raise ShapeError("scores must be non-negative")
    if vec[0] <= 0:
        raise ShapeError("top score must be positive")
    return vec


# ---------------------------------------------------------------------------
# Statistics: a rule sees a weighted profile only through the weighted sum of
# one statistic vector per ranking.


def pairwise_statistic(orders: np.ndarray) -> np.ndarray:
    """Row i, read as an (m, m) matrix, is 1 at [a, b] when ``orders[i]`` ranks
    a strictly above b; weighted, it is the mass preferring a over b."""
    # Orders have no ties, so a stable sort gives the same positions, and it
    # maps less of numpy's code into memory than the default sort does.
    pos = np.argsort(orders, axis=1, kind="stable")
    above = pos[:, :, None] < pos[:, None, :]
    return above.reshape(len(orders), orders.shape[1] ** 2).astype(float)


def group_statistic(stat: np.ndarray, groups, weights) -> np.ndarray:
    """The weighted statistic when voter i reports the ranking whose statistic is
    ``stat[groups[i]]``. Group masses are summed in voter order and the groups
    added in order of their first positive-weight voter, as a loop over the
    voters adds: a sum that meets a threshold or ties an argmax there does so
    here too. Two terms add alike in either order and a zero mass adds +0, so
    two groups skip the ordering."""
    g = np.asarray(groups, dtype=np.int64)
    w, total = as_weights(weights)
    if len(g) != len(w):
        raise ShapeError(f"{len(g)} rankings but {len(w)} weights")
    mass = np.bincount(g, weights=w, minlength=len(stat)) / total
    if len(stat) > 2:
        first = list(dict.fromkeys(g[w > 0].tolist()))
        mass, stat = mass[first], stat[first]
    return np.add.accumulate(mass[:, None] * stat)[-1]


def profile_statistic(statistic: Callable[[np.ndarray], np.ndarray], orders,
                      weights) -> np.ndarray:
    """The weighted statistic of voters' ``orders`` (n, m) under ``weights``, for a
    statistic of orders such as :func:`pairwise_statistic`; equal rows are one group."""
    orders = np.asarray(orders)
    if orders.ndim != 2 or (np.sort(orders, axis=1) != np.arange(orders.shape[1])).any():
        raise InvalidRankingError("orders must be rows permuting 0..m-1 for one m")
    distinct, groups = np.unique(orders, axis=0, return_inverse=True)
    return group_statistic(statistic(distinct), groups.reshape(-1), weights)


def copeland_scores(pairwise: np.ndarray) -> np.ndarray:
    """Pairwise wins plus half a point per exact tie, from weighted pairwise
    statistics (..., m*m). Each pair is decided once from one side, like a
    duple, so rounding in the two masses can never leave a pair with no
    winner. A loop over Python floats: one round has only a few pairs."""
    m = math.isqrt(pairwise.shape[-1])
    pairs = list(itertools.combinations(range(m), 2))
    rows = []
    for mass in pairwise.reshape(-1, m * m).tolist():
        rows.append([0.0] * m)
        for a, b in pairs:
            win = 1.0 if mass[a * m + b] > 0.5 else 0.0 if mass[a * m + b] < 0.5 else 0.5
            rows[-1][a] += win
            rows[-1][b] += 1.0 - win
    return np.array(rows).reshape(pairwise.shape[:-1] + (m,))


def condorcet_winner(pairwise: np.ndarray) -> Optional[int]:
    """The alternative strictly beating all others in one weighted pairwise
    statistic (m*m,), if any."""
    m = math.isqrt(len(pairwise))
    mass = np.reshape(pairwise, (m, m)).tolist()
    for a in range(m):
        if all(mass[a][b] > 0.5 for b in range(m) if b != a):
            return a
    return None


# ---------------------------------------------------------------------------
# Rules


class VotingRule:
    """Base class; subclasses implement :meth:`statistic` and :meth:`decide`.

    ``deterministic`` rules return a point mass. A rule ``decomposes`` when it
    is a distribution over unilaterals: its outcome on a weighted profile is
    the weighted average of its outcomes on the voters' rankings alone, which
    is what makes a deterministic weighting scheme possible.
    """

    deterministic: bool = False
    decomposes: bool = False

    def statistic(self, orders: np.ndarray) -> np.ndarray:
        """Row i is the statistic of ``orders[i]``, for a (k, m) array of orders."""
        raise NotImplementedError

    def decide(self, stat: np.ndarray, m: int) -> np.ndarray:
        """The outcomes (..., m) of weighted statistics over m alternatives."""
        raise NotImplementedError

    def evaluate(self, orders, weights) -> np.ndarray:
        """The outcome of voters' ``orders`` (n, m) under ``weights`` (n,)."""
        return self.decide(profile_statistic(self.statistic, orders, weights), np.shape(orders)[1])

    def unanimous_outcomes(self, orders: np.ndarray) -> np.ndarray:
        """Row i is the outcome when ``orders[i]`` carries all the weight, for a
        (k, m) array of orders: that profile's statistic is the order's own."""
        return self.decide(self.statistic(orders), orders.shape[1])


class _Positional(VotingRule):
    """The statistic is the score vector s scattered onto each order."""

    def __init__(self, scores: Sequence[float] | np.ndarray | str):
        if isinstance(scores, str):
            if scores not in _SCORE_FAMILIES:
                raise ConfigError(f"unknown score family {scores!r}")
            self._family: Optional[str] = scores
            self._scores: Optional[np.ndarray] = None
        else:
            self._family = None
            self._scores = validate_scores(scores)

    def score_vector(self, m: int) -> np.ndarray:
        if self._family is not None:
            return _SCORE_FAMILIES[self._family](m)
        if len(self._scores) != m:
            raise ShapeError(
                f"rule fixed to {len(self._scores)} alternatives, profile has {m}"
            )
        return self._scores

    def statistic(self, orders: np.ndarray) -> np.ndarray:
        scores = np.zeros(orders.shape)
        np.put_along_axis(scores, orders, self.score_vector(orders.shape[1]), axis=1)
        return scores


class DeterministicPositional(_Positional):
    """Point mass on the highest positional score, smallest id on ties."""

    deterministic = True

    def decide(self, stat: np.ndarray, m: int) -> np.ndarray:
        return np.eye(m)[np.argmax(stat, axis=-1)]


class RandomizedPositional(_Positional):
    """Each alternative wins with probability proportional to its score."""

    decomposes = True

    def decide(self, stat: np.ndarray, m: int) -> np.ndarray:
        # The normalizer is the constant ||s||_1, not the realized score sum.
        return stat / float(self.score_vector(m).sum())


class DeterministicCopeland(VotingRule):
    """Point mass on the highest Copeland score, smallest id on ties."""

    deterministic = True
    statistic = staticmethod(pairwise_statistic)

    def decide(self, stat: np.ndarray, m: int) -> np.ndarray:
        return np.eye(m)[np.argmax(copeland_scores(stat), axis=-1)]


class RandomizedCopeland(VotingRule):
    """Each alternative wins with probability proportional to its Copeland score."""

    statistic = staticmethod(pairwise_statistic)

    def decide(self, stat: np.ndarray, m: int) -> np.ndarray:
        return copeland_scores(stat) / (m * (m - 1) / 2)


class Unilateral(VotingRule):
    """Pick a ranking with its profile mass and apply a fixed selector to it;
    the statistic is the one-hot of the selected alternative. A selector maps
    (k, m) orders to the (k,) alternatives it selects."""

    decomposes = True

    def __init__(self, selector: Callable[[np.ndarray], np.ndarray]):
        self.selector = selector

    def statistic(self, orders: np.ndarray) -> np.ndarray:
        return np.eye(orders.shape[1])[self.selector(orders)]

    def decide(self, stat: np.ndarray, m: int) -> np.ndarray:
        return stat


def position_selector(k: int) -> Callable[[np.ndarray], np.ndarray]:
    """Selector returning the alternative each order ranks at 0-based position k."""
    k = whole_number(k, "unilateral position")

    def select(orders: np.ndarray) -> np.ndarray:
        if k >= orders.shape[1]:
            raise ConfigError(f"unilateral position={k} needs m > {k}, got m={orders.shape[1]}")
        return orders[:, k]

    return select


class Duple(VotingRule):
    """Award the pairwise majority winner among {a, b}; split 50/50 on a tie.
    The statistic is the indicator of a above b."""

    def __init__(self, a: int, b: int):
        self.a, self.b = whole_number(a, "duple a"), whole_number(b, "duple b")
        if self.a == self.b:
            raise InvalidPairError(f"duple needs distinct alternatives, got {self.a}")

    def statistic(self, orders: np.ndarray) -> np.ndarray:
        for field, x in (("a", self.a), ("b", self.b)):
            if x >= orders.shape[1]:
                raise ConfigError(f"duple {field}={x} needs m > {x}, got m={orders.shape[1]}")
        return pairwise_statistic(orders)[:, [self.a * orders.shape[1] + self.b]]

    def decide(self, stat: np.ndarray, m: int) -> np.ndarray:
        win = np.where(stat[..., 0] > 0.5, 1.0, np.where(stat[..., 0] < 0.5, 0.0, 0.5))
        out = np.zeros(stat.shape[:-1] + (m,))
        out[..., self.a], out[..., self.b] = win, 1.0 - win
        return out


class Mixture(VotingRule):
    """Probability-weighted average of component rules; the statistic is the
    concatenation of the components' statistics. It decomposes when every
    component does."""

    def __init__(self, components: Sequence[tuple[VotingRule, float]]):
        for part in components:  # bool is a numbers.Real, so it is refused by name
            rule, q = part if isinstance(part, (tuple, list)) and len(part) == 2 else (None, 0)
            if not isinstance(rule, VotingRule):
                raise ShapeError(f"a mixture component must be a (rule, probability) pair, "
                                 f"got {part!r}")
            if isinstance(q, bool) or not isinstance(q, numbers.Real):
                raise ShapeError(f"mixture probabilities must be real numbers, got {q!r}")
        probabilities = [q for _, q in components]  # a NaN fails the check of their sum
        if not (abs(sum(probabilities) - 1.0) <= TOL and all(q >= 0 for q in probabilities)):
            raise ShapeError(f"mixture probabilities must be >= 0 with sum 1, got {probabilities}")
        self.components = list(components)
        self.decomposes = all(rule.decomposes for rule, _ in components)

    def statistic(self, orders: np.ndarray) -> np.ndarray:
        return np.concatenate([rule.statistic(orders) for rule, _ in self.components], axis=1)

    def decide(self, stat: np.ndarray, m: int) -> np.ndarray:
        # each component's part is as long as its statistic of one order
        ends = np.cumsum([rule.statistic(np.arange(m)[None]).shape[1]
                          for rule, _ in self.components])
        parts = np.split(stat, ends[:-1], axis=-1)
        return sum(q * rule.decide(part, m) for (rule, q), part in zip(self.components, parts))


class ConstantUniform(VotingRule):
    """Ignore the profile entirely and return the uniform distribution; the
    statistic is empty. A constant rule is a mixture of constant-selector
    unilaterals, so it decomposes."""

    decomposes = True

    def statistic(self, orders: np.ndarray) -> np.ndarray:
        return np.zeros((len(orders), 0))

    def decide(self, stat: np.ndarray, m: int) -> np.ndarray:
        return np.full(stat.shape[:-1] + (m,), 1.0 / m)


# ---------------------------------------------------------------------------
# Structural helpers


def duple_mixture_copeland(m: int) -> Mixture:
    """Uniform mixture over all C(m,2) duples; equals randomized Copeland."""
    pairs = list(itertools.combinations(range(m), 2))
    return Mixture([(Duple(a, b), 1.0 / len(pairs)) for a, b in pairs])


def unilateral_mixture_positional(s: Sequence[float] | np.ndarray) -> Mixture:
    """Position-selector unilaterals weighted by s; equals randomized positional."""
    vec = validate_scores(s)
    total = float(vec.sum())
    return Mixture([(Unilateral(position_selector(k)), q / total)
                    for k, q in enumerate(vec.tolist())])


def unanimity_witness(rule: VotingRule, m: int) -> Optional[np.ndarray]:
    """The (2, m) orders of two rankings whose outcomes differ when each carries
    all the weight.

    Enumerates all m! rankings, so m is capped at 8. Returns None when every
    ranking alone gets the same outcome.
    """
    orders = all_rankings(m)
    base = rule.unanimous_outcomes(orders[:1])
    for lo in range(0, len(orders), 64):  # blocks keep most of a scan's early exit
        differs = np.abs(rule.unanimous_outcomes(orders[lo:lo + 64]) - base).max(axis=1) > TOL
        if differs.any():
            return orders[[0, lo + int(np.argmax(differs))]]
    return None


# ---------------------------------------------------------------------------
# Per-voter outcomes


def outcome_table(rule: VotingRule, m: int, codes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule's outcome on each distinct rank code over m alternatives, when
    that ranking carries all the weight: ``(rows, U, stat)``, where ``rows`` has
    the shape of ``codes`` and holds each code's row of ``U`` (k, m) and ``stat``
    (k, width), the distinct codes listed in ascending order. Given at least m!
    codes, the distinct ones are counted into an m!-long lookup, not sorted."""
    codes, size = np.asarray(codes), math.factorial(m)
    if size <= codes.size:
        if codes.min() < 0 or codes.max() >= size:
            raise InvalidRankingError(f"rank codes must lie in 0..{m}!-1 for m={m}")
        distinct = np.flatnonzero(np.bincount(codes.ravel(), minlength=size))
        lookup = np.zeros(size, dtype=np.int64)
        lookup[distinct] = np.arange(len(distinct))
        rows = lookup[codes]
    else:  # orders_from_codes refuses out-of-range codes
        distinct, rows = np.unique(codes, return_inverse=True)
        rows = rows.reshape(codes.shape)
    stat = rule.statistic(orders_from_codes(distinct, m))
    return rows, rule.decide(stat, m), stat


def voter_losses(U: np.ndarray, idx: np.ndarray, losses: np.ndarray) -> np.ndarray:
    """Each vote's U[idx] . losses, summed over the alternatives in order so that
    scalar replays match exactly. Any rounds axis is the first of both idx and losses."""
    out = np.zeros(np.shape(idx))
    for k in range(U.shape[1]):
        term = U[:, k].take(idx)
        term *= losses[..., k, None]
        out += term
        del term  # freed before the next one is taken
    return out
