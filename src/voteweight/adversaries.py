"""Round generators: worst-case constructions against deterministic weighting
schemes, plus the random rankings and profiles the checks and tests fuzz with.

The worst-case sources are adaptive: ``emit(weights)`` consumes the voter
distribution the scheme just played, never its draw, and only then builds the
round as three arrays, ``(groups, losses, outcome)``. ``groups`` is int64 of
length n, voter i reporting ``orders[groups[i]]``; ``losses`` holds a loss per
alternative; ``outcome`` is the rule's under the played weights, decided on
:func:`~voteweight.rules.group_statistic` of the groups' statistics, and the
engine reads it only under deterministic weights on a rule that does not
decompose. ``unanimous[g]``, computed once per source, is group g's outcome
with all the weight. ``m`` is the number of alternatives a source emits,
checked first; sources hold no per-episode state and learn n from the
weights, so one instance serves every trial and every n. The engine
reads only ``rule``, which must be the episode's rule, ``m``, ``unanimous`` and
``emit``. The oblivious sources in `harness` answer ``rounds(T, n, rng)`` with
all T rounds at once, as the three arrays ``(m, codes, losses)``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .core import TOL, as_weights, check_alternatives
from .errors import ConfigError, HypothesisViolatedError, NoWitnessError
from .rules import (RandomizedCopeland, VotingRule, condorcet_winner, group_statistic,
                    pairwise_statistic, unanimity_witness)


def majority_prefix_partition(weights: Sequence[float] | np.ndarray) -> np.ndarray:
    """The heavy block: voters sorted by weight descending, ties by ascending
    index, up to the shortest prefix whose sum exceeds half the total, grown
    while its mass as a round adds it (:func:`~voteweight.rules.group_statistic`:
    in voter order, over the same total) is not above 1/2."""
    w, total = as_weights(weights)
    order = np.argsort(-w, kind="stable")
    prefix = np.cumsum(w[order])  # adds in sequence, like a loop over the sorted voters
    j = int(np.searchsorted(prefix, total / 2, side="right"))
    # Only a sum within summation-order error of half can add to 1/2 in voter order.
    while (prefix[j] - total / 2 <= (j + 1) * math.ulp(1.0) * total
           and np.cumsum(w[np.sort(order[: j + 1])])[-1] / total <= 0.5):
        j += 1
    # The top-j prefix of a sorted sequence carries at least j/n of the total.
    share = (j + 1) * total / len(w)
    if prefix[j] < share - TOL * total:
        raise HypothesisViolatedError(f"prefix of {j + 1} voters carries {prefix[j]}, "
                                      f"under its share {share} of the total {total}")
    return order[: j + 1]


class WinnerPunishingSource:
    """Adaptive worst case for deterministic rules (config token: "thm3").

    Voter 0 reports one witness ranking, everyone else the other, and
    whatever wins under the played weights gets loss 1. The scheme's loss is
    exactly 1 while at least one voter's own outcome (its ranking carrying all
    the weight) differs from the winner and so incurs loss 0.
    """

    def __init__(self, rule: VotingRule, m: int):
        self.m = m = check_alternatives(m)
        if not rule.deterministic:
            raise NoWitnessError("winner punishment requires a deterministic rule")
        witness = unanimity_witness(rule, m)
        if witness is None:
            raise NoWitnessError("rule is constant when one ranking carries all the weight")
        self.rule = rule
        self.orders = witness
        self._stat = rule.statistic(witness)
        self.unanimous = rule.decide(self._stat, m)
        for table in (self.orders, self._stat, self.unanimous):  # shared by every trial
            table.flags.writeable = False

    def emit(self, weights: Sequence[float] | np.ndarray) -> tuple:
        """``(groups, losses, outcome)``, ``groups`` int64 of length n (voter 0 alone) and
        ``outcome`` the rule's under ``weights``."""
        groups = (np.arange(len(weights)) > 0).astype(np.int64)
        outcome = self.rule.decide(group_statistic(self._stat, groups, weights), self.m)
        losses = np.eye(self.m)[np.argmax(outcome)]
        return groups, losses, outcome


class CondorcetSplitSource:
    """Adaptive worst case for Condorcet-leaning rules (config token: "thm5").

    The heavy block ranks a over b, the rest rank b over a; losses are 1 on a,
    0 on b, and 1/2 elsewhere. a is then a Condorcet winner under the played
    weights, so a rule whose Condorcet winner leads by `delta` must
    over-select the loss-1 alternative. `delta` is the rule's guaranteed
    selection gap. Built-in values: 2/(m(m-1)) for randomized Copeland and 1
    for deterministic rules; any other rule needs an explicit delta.

    The pair is oriented once, from the rule's outcomes when either block's
    order carries all the weight: the winner's margin when b over a does is
    at least its margin when a over b does. (a, b) is (0, 1) or (1, 0).
    """

    def __init__(self, rule: VotingRule, m: int, delta: Optional[float] = None):
        self.m = m = check_alternatives(m)
        if delta is None:
            if isinstance(rule, RandomizedCopeland):
                delta = 2.0 / (m * (m - 1))
            elif rule.deterministic:
                delta = 1.0
            else:
                raise ConfigError("no built-in gap for this rule; supply delta")
        if isinstance(delta, bool) or not isinstance(delta, (int, float)) or not 0 < delta <= 1:
            raise ConfigError(f"delta is a selection gap in (0, 1], got {delta!r}")
        self.rule = rule
        self.delta = delta
        # 0 over 1, then 1 over 0; the remaining alternatives follow in ascending order
        # and share one loss, so their positions never matter.
        orders = np.array([[0, 1, *range(2, m)], [1, 0, *range(2, m)]])
        stat = rule.statistic(orders)
        unanimous = rule.decide(stat, m)
        # Keep 0 over 1 only if the winner's margin when the second order carries all the
        # weight is at least its margin when the first does; else swap the blocks.
        if not unanimous[1, 1] - unanimous[1, 0] >= unanimous[0, 0] - unanimous[0, 1]:
            orders, stat, unanimous = orders[[1, 0]], stat[[1, 0]], unanimous[[1, 0]]
        self.orders, self.unanimous = orders, unanimous  # the heavy block's, then the rest's
        self.a, self.b = int(orders[0, 0]), int(orders[0, 1])
        # Each block's pairwise statistic, for the Condorcet check, then the rule's.
        self._stat = np.concatenate((pairwise_statistic(self.orders), stat), axis=1)
        self.losses = np.full(m, 0.5)  # every round's
        self.losses[[self.a, self.b]] = 1.0, 0.0
        for table in (self.orders, self._stat, self.unanimous, self.losses):  # every trial's
            table.flags.writeable = False

    def emit(self, weights: Sequence[float] | np.ndarray) -> tuple:
        """``(groups, losses, outcome)``, ``groups`` int64 of length n (heavy block 0) and
        ``outcome`` the rule's under ``weights``."""
        n, delta = len(weights), self.delta
        if n < 2 * (3.0 / (2.0 * delta) + 1.0):
            raise HypothesisViolatedError(f"need n >= 2(3/(2 delta) + 1) = "
                                          f"{2 * (3 / (2 * delta) + 1):.3f}, got {n}")
        heavy = majority_prefix_partition(weights)
        groups = np.ones(n, dtype=np.int64)
        groups[heavy] = 0
        stat = group_statistic(self._stat, groups, weights)
        if condorcet_winner(stat[: self.m * self.m]) != self.a:
            raise HypothesisViolatedError(f"{self.a} is not the Condorcet winner of the split")
        # Case split on how far the heavy block's mass (its a-over-b share) overshoots half.
        if stat[self.a * self.m + self.b] >= 0.5 + delta / 3.0:
            bounded = len(heavy) <= 3.0 / (2.0 * delta) + 1.0 + TOL
        else:
            bounded = len(heavy) < n * (0.5 + delta / 3.0) + TOL
        if not bounded:
            raise HypothesisViolatedError(f"heavy block of {len(heavy)} voters "
                                          "breaks its size bound")
        outcome = self.rule.decide(stat[self.m * self.m:], self.m)
        rest = outcome.tolist()
        lead = rest.pop(self.a) - max(rest)
        if lead < delta - TOL:
            raise HypothesisViolatedError(f"the Condorcet winner {self.a} leads by {lead:.6g}, "
                                          f"under delta={delta}")
        return groups, self.losses, outcome


# ---------------------------------------------------------------------------
# Fuzzing helpers shared by the verification suites and tests


def random_rankings(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """The (n, m) orders of n independent uniform rankings over m alternatives."""
    return np.array([rng.permutation(m) for _ in range(n)])


def random_profile(m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random profile as (orders, weights): 5 voters, random positive weights."""
    return random_rankings(5, m, rng), rng.random(5) + 1e-3


def random_distribution(n: int, rng: np.random.Generator) -> np.ndarray:
    p = rng.random(n) + 1e-3
    return p / p.sum()
