"""Anonymous voting rules: positional scoring, Copeland, unilaterals, duples,
and mixtures, in deterministic and randomized forms.

Every rule maps an :class:`~voteweight.core.AnonymousProfile` to a probability
vector over alternatives. Deterministic rules return a point mass and break
score ties by smallest alternative id.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    TOL,
    AnonymousProfile,
    Ranking,
    all_rankings,
    orders_from_codes,
    unanimous,
)
from .errors import ConfigError, InvalidPairError, ShapeError

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
    """Check s1 >= s2 >= ... >= sm >= 0 with s1 > 0."""
    vec = np.asarray(s, dtype=float)
    if vec.ndim != 1 or len(vec) < 1:
        raise ShapeError("score vector must be a non-empty 1-d sequence")
    if np.any(np.diff(vec) > 0):
        raise ShapeError("scores must be non-increasing")
    if vec[-1] < 0:
        raise ShapeError("scores must be non-negative")
    if vec[0] <= 0:
        raise ShapeError("top score must be positive")
    return vec


# ---------------------------------------------------------------------------
# Score computations


def positional_scores(profile: AnonymousProfile, s: np.ndarray) -> np.ndarray:
    """Per-alternative score: sum over rankings of mass * score-of-position."""
    if len(s) != profile.m:
        raise ShapeError(f"{len(s)} scores for a profile with m={profile.m}")
    scores = np.zeros(profile.m)
    for ranking, frac in profile.items():
        scores[list(ranking.order)] += frac * s
    return scores


def pairwise_weight(profile: AnonymousProfile, a: int, b: int) -> float:
    """Total profile mass of rankings placing a strictly above b."""
    if a == b:
        raise InvalidPairError(f"pairwise weight needs distinct alternatives, got {a}")
    return sum(frac for ranking, frac in profile.items() if ranking.prefers(a, b))


def _pairwise_matrix(profile: AnonymousProfile) -> np.ndarray:
    """P[a, b] = mass preferring a over b (diagonal zero)."""
    m = profile.m
    mat = np.zeros((m, m))
    for ranking, frac in profile.items():
        pos = np.array(ranking.positions)
        mat += frac * (pos[:, None] < pos[None, :])
    return mat


def copeland_scores(profile: AnonymousProfile) -> np.ndarray:
    """Pairwise wins plus half a point per exact pairwise tie."""
    mat = _pairwise_matrix(profile)
    scores = np.zeros(profile.m)
    # Each pair is decided once from one side, like a duple, so rounding in
    # the two masses can never leave a pair with no winner.
    for a, b in itertools.combinations(range(profile.m), 2):
        if mat[a, b] > 0.5:
            scores[a] += 1.0
        elif mat[a, b] < 0.5:
            scores[b] += 1.0
        else:
            scores[[a, b]] += 0.5
    return scores


def condorcet_winner(profile: AnonymousProfile) -> Optional[int]:
    """The alternative strictly beating all others pairwise, if any."""
    mat = _pairwise_matrix(profile)
    for a in range(profile.m):
        if all(mat[a, b] > 0.5 for b in range(profile.m) if b != a):
            return a
    return None


def _point_mass(index: int, m: int) -> np.ndarray:
    out = np.zeros(m)
    out[index] = 1.0
    return out


# ---------------------------------------------------------------------------
# Rules


class VotingRule:
    """Base class; subclasses implement :meth:`evaluate`."""

    deterministic: bool = False

    def evaluate(self, profile: AnonymousProfile) -> np.ndarray:
        raise NotImplementedError

    def unanimous_outcomes(self, orders: np.ndarray) -> np.ndarray:
        """Row i is the outcome on the unanimous profile of ``orders[i]``, for a
        (k, m) array of orders. Overrides must match this loop bit for bit."""
        rows = [self.evaluate(unanimous(Ranking(tuple(o)))) for o in orders.tolist()]
        return np.array(rows).reshape(orders.shape)

    def is_distribution_over_unilaterals(self) -> bool:
        """True when the rule decomposes across voters' individual rankings.

        For such rules evaluating the profile built from the voter
        distribution coincides with averaging the rule over single-voter
        profiles, which is what makes a deterministic weighting scheme
        possible.
        """
        return False


class _Positional(VotingRule):
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

    def unanimous_outcomes(self, orders: np.ndarray) -> np.ndarray:
        """Each order's unanimous scores are s scattered onto its alternatives."""
        s = self.score_vector(orders.shape[1])
        scores = np.zeros(orders.shape)
        np.put_along_axis(scores, orders, s, axis=1)
        if self.deterministic:
            return np.eye(len(s))[np.argmax(scores, axis=1)]
        return scores / float(s.sum())

    def __repr__(self) -> str:
        tag = self._family if self._family is not None else list(self._scores)
        return f"{type(self).__name__}({tag})"


class DeterministicPositional(_Positional):
    """Point mass on the highest positional score, smallest id on ties."""

    deterministic = True

    def evaluate(self, profile: AnonymousProfile) -> np.ndarray:
        scores = positional_scores(profile, self.score_vector(profile.m))
        return _point_mass(int(np.argmax(scores)), profile.m)


class RandomizedPositional(_Positional):
    """Each alternative wins with probability proportional to its score."""

    def evaluate(self, profile: AnonymousProfile) -> np.ndarray:
        s = self.score_vector(profile.m)
        # The normalizer is the constant ||s||_1, not the realized score sum.
        return positional_scores(profile, s) / float(s.sum())

    def is_distribution_over_unilaterals(self) -> bool:
        return True


class DeterministicCopeland(VotingRule):
    """Point mass on the highest Copeland score, smallest id on ties."""

    deterministic = True

    def evaluate(self, profile: AnonymousProfile) -> np.ndarray:
        return _point_mass(int(np.argmax(copeland_scores(profile))), profile.m)


class RandomizedCopeland(VotingRule):
    """Each alternative wins with probability proportional to its Copeland score."""

    def evaluate(self, profile: AnonymousProfile) -> np.ndarray:
        m = profile.m
        return copeland_scores(profile) / (m * (m - 1) / 2)


class Unilateral(VotingRule):
    """Pick a ranking with its profile mass and apply a fixed selector to it."""

    def __init__(self, selector: Callable[[Ranking], int], name: str = "unilateral"):
        self.selector = selector
        self.name = name

    def evaluate(self, profile: AnonymousProfile) -> np.ndarray:
        probs = np.zeros(profile.m)
        for ranking, frac in profile.items():
            probs[self.selector(ranking)] += frac
        return probs

    def is_distribution_over_unilaterals(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"Unilateral({self.name})"


def position_selector(k: int) -> Callable[[Ranking], int]:
    """Selector returning the alternative ranked at 0-based position k."""
    return lambda ranking: ranking.order[k]


class Duple(VotingRule):
    """Award the pairwise majority winner among {a, b}; split 50/50 on a tie."""

    def __init__(self, a: int, b: int):
        if a == b:
            raise InvalidPairError(f"duple needs distinct alternatives, got {a}")
        self.a = a
        self.b = b

    def evaluate(self, profile: AnonymousProfile) -> np.ndarray:
        probs = np.zeros(profile.m)
        w = pairwise_weight(profile, self.a, self.b)
        if w > 0.5:
            probs[self.a] = 1.0
        elif w < 0.5:
            probs[self.b] = 1.0
        else:
            probs[self.a] = probs[self.b] = 0.5
        return probs

    def __repr__(self) -> str:
        return f"Duple({self.a}, {self.b})"


class Mixture(VotingRule):
    """Probability-weighted average of component rules."""

    def __init__(self, components: Sequence[tuple[VotingRule, float]]):
        total = sum(q for _, q in components)
        if abs(total - 1.0) > TOL or any(q < 0 for _, q in components):
            raise ShapeError(f"mixture probabilities must sum to 1, got {total}")
        self.components = list(components)

    def evaluate(self, profile: AnonymousProfile) -> np.ndarray:
        out = np.zeros(profile.m)
        for rule, q in self.components:
            out += q * rule.evaluate(profile)
        return out

    def is_distribution_over_unilaterals(self) -> bool:
        return all(rule.is_distribution_over_unilaterals() for rule, _ in self.components)


class ConstantUniform(VotingRule):
    """Ignore the profile entirely and return the uniform distribution."""

    def evaluate(self, profile: AnonymousProfile) -> np.ndarray:
        return np.full(profile.m, 1.0 / profile.m)

    def is_distribution_over_unilaterals(self) -> bool:
        # A constant rule is a mixture of constant-selector unilaterals.
        return True


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
    return Mixture(
        [
            (Unilateral(position_selector(k), name=f"position_{k}"), float(vec[k]) / total)
            for k in range(len(vec))
        ]
    )


def unanimity_witness(rule: VotingRule, m: int) -> Optional[tuple[Ranking, Ranking]]:
    """Two rankings whose unanimous profiles get different outcomes, if any.

    Enumerates all m! unanimous profiles, so m is capped at 8. Returns None
    when the rule is constant on unanimous profiles.
    """
    rankings = all_rankings(m)
    orders = np.array([r.order for r in rankings])
    base = rule.unanimous_outcomes(orders[:1])
    for lo in range(0, len(orders), 64):  # blocks keep most of a scan's early exit
        differs = np.abs(rule.unanimous_outcomes(orders[lo:lo + 64]) - base).max(axis=1) > TOL
        if differs.any():
            return rankings[0], rankings[lo + int(np.argmax(differs))]
    return None


# ---------------------------------------------------------------------------
# Config grammar


def rule_from_spec(spec: dict) -> VotingRule:
    """Build a rule from its config form, e.g. {"kind": "randomized_positional",
    "scores": [2, 1, 0]}. Score vectors may also be named families
    ("plurality", "veto", "borda"), which adapt to the round's m."""
    try:
        kind = spec["kind"]
    except (TypeError, KeyError):
        raise ConfigError(f"rule spec must be an object with a 'kind', got {spec!r}")
    if kind == "deterministic_positional":
        return DeterministicPositional(spec["scores"])
    if kind == "randomized_positional":
        return RandomizedPositional(spec["scores"])
    if kind == "deterministic_copeland":
        return DeterministicCopeland()
    if kind == "randomized_copeland":
        return RandomizedCopeland()
    if kind == "constant_uniform":
        return ConstantUniform()
    if kind == "duple":
        return Duple(int(spec["a"]), int(spec["b"]))
    if kind == "unilateral":
        return Unilateral(position_selector(int(spec["position"])),
                          name=f"position_{spec['position']}")
    raise ConfigError(f"unknown rule kind {kind!r}")


# ---------------------------------------------------------------------------
# Per-voter outcomes


class OutcomeTable:
    """The rule's outcome on each distinct unanimous profile an episode meets.

    Row k of `U` is f(unanimous(rankings[k])), zero-padded to `width`
    alternatives. Rows are keyed by (m, rank code), so one table serves rounds
    with different alternative counts and evaluates the rule once per key.
    """

    def __init__(self, rule: VotingRule, width: int):
        self.rule = rule
        self.width = width
        self.U = np.zeros((0, width))
        self._rankings: list[Ranking] = []
        self._pending: list[np.ndarray] = []  # decoded orders of rows past _rankings
        self._rows: dict[tuple[int, int], int] = {}

    @property
    def rankings(self) -> list[Ranking]:
        """Row k's ranking, built on first use: only weighted profiles need it."""
        while self._pending:
            self._rankings += [Ranking(tuple(o)) for o in self._pending.pop(0).tolist()]
        return self._rankings

    def row(self, m: int, code: int) -> int:
        """Table row of one rank code over m alternatives."""
        k = self._rows.get((m, code))
        return int(self.index(m, np.array([code]))[0]) if k is None else k

    def index(self, m: int, codes: np.ndarray) -> np.ndarray:
        """Table row of each rank code in an array of codes over m alternatives.
        Codes new to the table are decoded and evaluated in one rule call."""
        distinct, inverse = np.unique(codes, return_inverse=True)
        new = [c for c in distinct.tolist() if (m, c) not in self._rows]
        orders = orders_from_codes(new, m)
        padded = np.zeros((len(new), self.width))
        padded[:, :m] = self.rule.unanimous_outcomes(orders)
        self._rows.update({(m, c): len(self._rows) + i for i, c in enumerate(new)})
        self._pending.append(orders)
        self.U = np.concatenate((self.U, padded))
        rows = np.array([self._rows[(m, c)] for c in distinct.tolist()], dtype=np.int64)
        return rows[inverse].reshape(np.shape(codes))

    def voter_losses(self, idx: np.ndarray, losses: np.ndarray) -> np.ndarray:
        """U[idx] . losses over the last axis of `losses`, summed over the
        alternatives in order so that scalar replays match exactly."""
        out = np.zeros(np.shape(idx))
        for k in range(self.width):
            out += self.U[idx, k] * losses[..., k, None]
        return out

