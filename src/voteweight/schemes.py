"""Online voter-weighting schemes.

Four kinds are shipped:

- ``full_info``: exponential weights over voters driven by their true
  cumulative losses; each round one voter's basis vector is sampled.
- ``partial_info``: the same update driven by importance-weighted loss
  estimates built from the selected winner's loss only.
- ``deterministic_unilateral``: plays the exponential-weights distribution
  itself as the weight vector, with no voter sampling. Matches the sampled
  schemes round-for-round whenever the rule decomposes across voters.
- ``constant``: always the first voter's basis vector; ignores feedback.

States are values: updates return a new state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Ranking, sample_index
from .errors import ConfigError, EstimatorUndefinedError
from .rules import VotingRule, per_voter_losses

SCHEME_KINDS = ("full_info", "partial_info", "deterministic_unilateral", "constant")


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme kind plus the parameters of its exponential-weights update.

    When `eta` is omitted it defaults to sqrt(2 ln n / T) for full-information
    kinds and sqrt(2 ln n / (T n)) for the partial-information kind; with an
    unknown horizon the caller must supply `eta` explicitly.
    """

    kind: str
    n: int
    horizon: int
    eta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ConfigError(f"unknown scheme kind {self.kind!r}")
        if self.n < 1 or self.horizon < 1:
            raise ConfigError("need n >= 1 and horizon >= 1")
        if self.eta is not None and not (0 < self.eta < math.inf):
            raise ConfigError("eta must be positive and finite")

    @property
    def feedback(self) -> str:
        """"partial" for the importance-weighted kind, "full" for the rest."""
        return "partial" if self.kind == "partial_info" else "full"

    @property
    def regret_bound(self) -> float:
        """sqrt(2 T ln n) for full information, sqrt(2 T n ln n) for partial."""
        rounds = self.horizon * (self.n if self.kind == "partial_info" else 1)
        return math.sqrt(2.0 * rounds * math.log(self.n))

    @property
    def learning_rate(self) -> float:
        if self.eta is not None:
            return self.eta
        if self.kind == "partial_info":
            return math.sqrt(2.0 * math.log(self.n) / (self.horizon * self.n))
        return math.sqrt(2.0 * math.log(self.n) / self.horizon)


@dataclass(frozen=True)
class SchemeState:
    """Per-voter cumulative (true or estimated) losses and the round index."""

    cumulative: np.ndarray
    t: int = 0


def initial_state(config: SchemeConfig) -> SchemeState:
    return SchemeState(np.zeros(config.n), 0)


def exp_weights(cumulative: np.ndarray, eta: float) -> np.ndarray:
    """Row-wise p_i proportional to exp(-eta * cumulative_i) over the last
    axis, max-shifted for overflow safety."""
    z = cumulative * -eta
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def voter_distribution(state: SchemeState, config: SchemeConfig) -> np.ndarray:
    """p_i proportional to exp(-eta * cumulative_i)."""
    return exp_weights(state.cumulative, config.learning_rate)


def full_info_update(
    state: SchemeState,
    config: SchemeConfig,
    rankings: Sequence[Ranking],
    losses: np.ndarray,
    rule: VotingRule,
) -> SchemeState:
    """Add each voter's unanimous-profile expected loss to their tally."""
    if state.t >= config.horizon:
        raise ConfigError(f"round {state.t} is past the horizon {config.horizon}")
    increments = per_voter_losses(rule, rankings, losses)
    if len(increments) != config.n:
        raise ConfigError(f"{len(increments)} voter losses for n={config.n}")
    return SchemeState(state.cumulative + increments, state.t + 1)


def partial_info_update(
    state: SchemeState,
    config: SchemeConfig,
    chosen: int,
    observed_loss: float,
    probs: np.ndarray,
) -> SchemeState:
    """Importance-weighted update: only the chosen voter's tally moves.

    Consumes exactly (chosen voter, winner's loss, selection probabilities);
    the other voters' induced losses are deliberately not available here.
    """
    if state.t >= config.horizon:
        raise ConfigError(f"round {state.t} is past the horizon {config.horizon}")
    if probs[chosen] <= 0:
        raise EstimatorUndefinedError(
            f"voter {chosen} was selected with probability {probs[chosen]}"
        )
    if not 0.0 <= observed_loss <= 1.0:
        raise ConfigError(f"observed loss {observed_loss} outside [0, 1]")
    cumulative = state.cumulative.copy()
    cumulative[chosen] += observed_loss / probs[chosen]
    return SchemeState(cumulative, state.t + 1)


def act(
    state: SchemeState, config: SchemeConfig, rng: np.random.Generator
) -> tuple[np.ndarray, Optional[int]]:
    """Emit this round's weight vector and, for sampled kinds, the chosen voter."""
    if config.kind == "constant":
        weights = np.zeros(config.n)
        weights[0] = 1.0
        return weights, None
    probs = voter_distribution(state, config)
    if config.kind == "deterministic_unilateral":
        return probs, None
    chosen = sample_index(probs, rng)
    weights = np.zeros(config.n)
    weights[chosen] = 1.0
    return weights, chosen
