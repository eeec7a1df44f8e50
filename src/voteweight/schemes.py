"""Online voter-weighting schemes: their configuration and their softmax.

Four kinds are shipped, all played by :func:`voteweight.harness.run_episode`:

- ``full_info``: exponential weights over voters driven by their true
  cumulative losses; each round one voter is drawn from it.
- ``partial_info``: the same update driven by importance-weighted loss
  estimates built from the selected winner's loss only.
- ``deterministic_unilateral``: plays the exponential-weights distribution
  itself as the weight vector. When the rule decomposes across voters the
  weighted outcome is the distribution's mixture of the voters' own, so the
  episode is ``full_info``'s bit for bit, draws included, but for ``chosen``,
  which is -1, and ``scheme_loss``, the mixture's expected loss.
- ``constant``: always the first voter's basis vector; ignores feedback.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import whole_number
from .errors import ConfigError

SCHEME_KINDS = ("full_info", "partial_info", "deterministic_unilateral", "constant")


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme kind plus the parameters of its exponential-weights update; the
    horizon is also the number of rounds an episode plays.

    When `eta` is omitted it defaults to sqrt(2 ln n / T) for full-information
    kinds and sqrt(2 ln n / (T n)) for the partial-information kind; `constant`
    has no update and takes no `eta`.
    """

    kind: str
    n: int
    horizon: int
    eta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ConfigError(f"unknown scheme kind {self.kind!r}")
        for key in ("n", "horizon"):  # bools and fractions are refused, 3.0 becomes 3
            object.__setattr__(self, key, whole_number(getattr(self, key), key))
        if self.n < 1 or self.horizon < 1:
            raise ConfigError("need n >= 1 and horizon >= 1")
        if self.kind == "constant" and self.eta is not None:
            raise ConfigError(f"scheme kind 'constant' takes no eta, got {self.eta!r}")
        # The least cumulative loss, true or estimated, is at most horizon * n, so
        # the softmax's max-shift stays finite; a whole-number eta past the float
        # range is refused too.
        if self.eta is not None and (
            isinstance(self.eta, bool) or not isinstance(self.eta, (int, float))
            or not 0 < self.eta * self.horizon * self.n <= sys.float_info.max
        ):
            raise ConfigError(f"eta must be > 0 with eta * horizon * n finite, got {self.eta!r}")

    @property
    def feedback(self) -> str:
        """"partial" for the importance-weighted kind, "full" for the rest."""
        return "partial" if self.kind == "partial_info" else "full"

    @property
    def _rounds(self) -> int:  # times n for EXP3: its estimates' second moment is up to n
        return self.horizon * (self.n if self.kind == "partial_info" else 1)

    @property
    def regret_bound(self) -> float:
        """sqrt(2 T ln n) for full information, sqrt(2 T n ln n) for partial."""
        return math.sqrt(2.0 * self._rounds * math.log(self.n))

    @property
    def learning_rate(self) -> float:
        if self.eta is not None:
            return self.eta
        return math.sqrt(2.0 * math.log(self.n) / self._rounds)


def exp_weights(cumulative: np.ndarray, eta: float) -> np.ndarray:
    """p_i proportional to exp(-eta * cumulative_i), max-shifted for overflow
    safety. Voters are the first axis of ``cumulative`` (n,) or (n, T) and the last
    of the C-ordered result, whose rows numpy sums pairwise as a row-wise softmax does."""
    z = np.multiply(cumulative.T, -eta, order="C")
    z -= (cumulative.min(axis=0) * -eta)[..., None]  # z's max: rounding keeps the order
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z
