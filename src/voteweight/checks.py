"""Verification suites behind the `verify` CLI command.

Each check compares an implementation path against an independent route:
closed-form identities against direct evaluation, Monte Carlo estimates
against exact expectations, and adversary accounting against the quantities
the constructions guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversaries import (
    CondorcetSplitSource,
    WinnerPunishingSource,
    majority_prefix_partition,
    random_distribution,
    random_profile,
    random_rankings,
)
from .core import SUITES, TOL, inverse_cdf, whole_number
from .errors import HypothesisViolatedError
from .harness import IIDRandomSource, best_voter, regret, run_episode
from .rules import (
    DeterministicPositional,
    RandomizedCopeland,
    RandomizedPositional,
    condorcet_winner,
    copeland_scores,
    duple_mixture_copeland,
    pairwise_statistic,
    profile_statistic,
    unilateral_mixture_positional,
    validate_scores,
)
from .schemes import SchemeConfig


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# identities


def _fuzz(rng: np.random.Generator, profiles: int, deviation, *args) -> float:
    """The worst of ``profiles`` draws of ``deviation(rng, *args)``, or 0."""
    return max([0.0] + [deviation(rng, *args) for _ in range(profiles)])


def _random_scores(m: int, rng: np.random.Generator) -> np.ndarray:
    """A random non-increasing score vector with a positive top score."""
    return validate_scores(np.sort(rng.random(m))[::-1] + np.array([1.0] + [0.0] * (m - 1)))


def check_single_voter_decomposition(seed: int, profiles: int) -> CheckResult:
    """Averaging the rule over single-voter profiles must equal evaluating the
    profile built from the voter distribution, for score-based randomized rules."""
    def deviation(rng, rule):  # 6 voters, 4 alternatives
        votes, p = random_rankings(6, 4, rng), random_distribution(6, rng)
        averaged = sum(p[i] * alone for i, alone in enumerate(rule.unanimous_outcomes(votes)))
        return float(np.max(np.abs(rule.evaluate(votes, p) - averaged)))

    rng = np.random.default_rng(seed)
    worst = max(_fuzz(rng, profiles, deviation, RandomizedPositional(name))
                for name in ("plurality", "veto", "borda"))
    return CheckResult("single_voter_decomposition", worst <= TOL, f"max deviation {worst:.3e}")


def check_duple_decomposition(seed: int, profiles: int) -> CheckResult:
    def deviation(rng):
        m = int(rng.integers(3, 6))
        profile = random_profile(m, rng)
        return float(np.abs(RandomizedCopeland().evaluate(*profile)
                            - duple_mixture_copeland(m).evaluate(*profile)).max())

    worst = _fuzz(np.random.default_rng(seed + 1), profiles, deviation)
    return CheckResult("duple_decomposition", worst <= TOL, f"max deviation {worst:.3e}")


def check_unilateral_decomposition(seed: int, profiles: int) -> CheckResult:
    def deviation(rng):
        s = _random_scores(int(rng.integers(3, 6)), rng)
        profile = random_profile(len(s), rng)
        return float(np.abs(RandomizedPositional(s).evaluate(*profile)
                            - unilateral_mixture_positional(s).evaluate(*profile)).max())

    worst = _fuzz(np.random.default_rng(seed + 2), profiles, deviation)
    return CheckResult("unilateral_decomposition", worst <= TOL, f"max deviation {worst:.3e}")


def check_score_conservation(seed: int, profiles: int) -> CheckResult:
    def deviation(rng):
        m = int(rng.integers(2, 7))
        profile = random_profile(m, rng)
        s = _random_scores(m, rng)
        scores = profile_statistic(RandomizedPositional(s).statistic, *profile)
        pairwise = profile_statistic(pairwise_statistic, *profile)
        return max(abs(float(scores.sum()) - float(s.sum())),
                   abs(float(copeland_scores(pairwise).sum()) - m * (m - 1) / 2))

    worst = _fuzz(np.random.default_rng(seed + 3), profiles, deviation)
    return CheckResult("score_conservation", worst <= TOL, f"max deviation {worst:.3e}")


def check_condorcet_gap(seed: int, profiles: int) -> CheckResult:
    """Wherever a Condorcet winner exists, randomized Copeland must select it
    with a lead over every other alternative of at least its Theorem 5 delta."""
    rng = np.random.default_rng(seed + 4)
    rule = RandomizedCopeland()
    delta = {m: CondorcetSplitSource(rule, m).delta for m in range(3, 6)}
    found, worst_slack = 0, math.inf
    while found < profiles:
        m = int(rng.integers(3, 6))
        profile = random_profile(m, rng)
        winner = condorcet_winner(profile_statistic(pairwise_statistic, *profile))
        if winner is None:
            continue
        found += 1
        dist = rule.evaluate(*profile)
        slack = float(dist[winner] - np.delete(dist, winner).max()) - delta[m]
        worst_slack = min(worst_slack, slack)
    return CheckResult("condorcet_gap", worst_slack >= -TOL,
                       f"{found} Condorcet instances, worst slack {worst_slack:.3e}")


# ---------------------------------------------------------------------------
# estimators


def check_estimator_moments(seed: int) -> list[CheckResult]:
    """EXP3's importance-weighted loss estimates over one sample of (voter,
    winner) draws at a fixed round: their mean is the exact round loss within 3
    standard errors, and their second moment is at most n plus 3 standard errors."""
    n, m, samples = 5, 3, 10**5
    rng = np.random.default_rng(seed + 10)
    votes = random_rankings(n, m, rng)
    ell = rng.random(m)
    p = random_distribution(n, rng)

    dists = RandomizedPositional("borda").unanimous_outcomes(votes)
    exact = float(p @ (dists @ ell))

    voters = inverse_cdf(np.broadcast_to(p, (samples, n)), rng.random(samples))
    winners = inverse_cdf(dists[voters], rng.random(samples))

    # sum_i p_i * est_i collapses to the winner's observed loss; the second
    # moment collapses to that loss squared over the selection probability.
    first, second = ell[winners], ell[winners] ** 2 / p[voters]
    mean, moment = float(first.mean()), float(second.mean())
    err = abs(mean - exact)
    bound = 3 * float(first.std(ddof=1) / math.sqrt(samples))
    moment_bound = n + 3 * float(second.std(ddof=1) / math.sqrt(samples))
    return [
        CheckResult("estimator_mean", err <= bound,
                    f"|{mean:.6f} - {exact:.6f}| = {err:.2e} vs 3se {bound:.2e}"),
        CheckResult("estimator_second_moment", moment <= moment_bound,
                    f"{moment:.4f} <= {moment_bound:.4f}"),
    ]


def check_estimator_error_path(seed: int) -> CheckResult:
    """EXP3 divides by the chosen voter's probability, so no draw may land on
    a probability of 0: not on rows whose weights are 0 or normalize to 0, at
    the edges of [0, 1), nor in episodes whose probabilities underflow to 0."""
    rows = ([0.0, 1.0], [1.0, 0.0], [0.0, 0.5, 0.0, 0.5, 0.0], [0.25, 0.0, 0.0, 0.75],
            [1e-300, 0.0, 1.0], [0.0, 0.0, 3.0, 0.0], [0.0, 5e-324, 3.0])
    bad = []
    for row in rows:
        for u in (0.0, 0.5, math.nextafter(1.0, 0.0)):
            c = int(inverse_cdf(row, u))
            if not (0 <= c < len(row) and row[c] / sum(row) > 0):
                bad.append(f"{row} at u={u!r} drew {c}")
    n, T, zeros = 10, 2000, 0
    for eta in (50.0, 1e6):
        trace = run_episode(SchemeConfig("partial_info", n=n, horizon=T, eta=eta),
                            RandomizedPositional("borda"), IIDRandomSource(3), seed=seed)
        p = trace.probs[np.arange(T), trace.chosen]
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero p fails below
            estimates = np.bincount(trace.chosen, trace.winner_loss / p, minlength=n)
        if not (np.all(p > 0) and np.isfinite(trace.probs).all() and np.isfinite(estimates).all()):
            bad.append(f"eta={eta:g}: a zero-probability voter was chosen or an estimate overflowed")
        zeros += int(np.count_nonzero(trace.probs == 0))
    detail = bad[0] if bad else (f"{len(rows) * 3} edge draws with positive probability; "
                                 f"{zeros} zero probabilities in EXP3 episodes, none chosen")
    return CheckResult("estimator_error_path", not bad, detail)


# ---------------------------------------------------------------------------
# adversaries


def check_winner_punishing(seed: int) -> CheckResult:
    n, T = 4, 200
    rule = DeterministicPositional("plurality")
    scheme = SchemeConfig("constant", n=n, horizon=T)
    trace = run_episode(scheme, rule, WinnerPunishingSource(rule, 3), seed=seed)
    losses_one = bool(np.all(trace.scheme_loss == 1.0))
    _, best = best_voter(trace)
    ok = losses_one and best <= (n - 1) * T / n and regret(trace) >= T / n
    return CheckResult(
        "winner_punishing_accounting",
        ok,
        f"regret {regret(trace):.1f} >= {T / n:.1f}, best voter {best:.1f}",
    )


def check_prefix_bound(seed: int, profiles: int) -> CheckResult:
    """Heavy-block weight must be at least its share of a uniform split."""
    rng = np.random.default_rng(seed + 20)
    worst = math.inf
    for _ in range(profiles):
        n = int(rng.integers(2, 30))
        w = rng.random(n) * 10
        try:
            heavy = majority_prefix_partition(w)
        except HypothesisViolatedError as exc:  # the partition checks the same bound
            return CheckResult("majority_prefix_bound", False, str(exc))
        worst = min(worst, np.cumsum(w[heavy])[-1] - len(heavy) * float(w.sum()) / n)
    return CheckResult("majority_prefix_bound", worst >= -TOL, f"worst slack {worst:.3e}")


def check_condorcet_split(seed: int) -> CheckResult:
    n, T, source = 11, 200, CondorcetSplitSource(RandomizedCopeland(), 3)
    delta = source.delta
    scheme = SchemeConfig("deterministic_unilateral", n=n, horizon=T)
    trace = run_episode(scheme, source.rule, source, seed=seed)
    worst_gap = float(np.min(trace.scheme_loss - trace.per_voter_loss.mean(axis=1)))
    ok = worst_gap >= delta / 6 - TOL and regret(trace) >= T * delta / 6 - TOL
    return CheckResult(
        "condorcet_split_gap",
        ok,
        f"worst per-round gap {worst_gap:.5f} >= {delta / 6:.5f}, "
        f"regret {regret(trace):.1f}",
    )


# ---------------------------------------------------------------------------
# suite dispatch


def suite_seed(seed, profiles: int) -> int:
    """The seed as an int, or ValueError if ``seed`` and ``profiles`` cannot run a suite."""
    if profiles < 1:  # a check over no profiles would pass on nothing
        raise ValueError(f"profiles must be at least 1, got {profiles}")
    return whole_number(seed, "seed")  # numpy refuses a negative seed naming no option


def run_suite(name: str, seed: int = 0, profiles: int = 100) -> list[CheckResult]:
    seed = suite_seed(seed, profiles)
    identities = [check_single_voter_decomposition, check_duple_decomposition,
                  check_unilateral_decomposition, check_score_conservation, check_condorcet_gap]
    results: list[CheckResult] = []
    if name in ("identities", "all"):
        results.extend(fn(seed, profiles) for fn in identities)
    if name in ("estimators", "all"):
        results += [*check_estimator_moments(seed), check_estimator_error_path(seed)]
    if name in ("adversaries", "all"):
        results += [check_winner_punishing(seed), check_prefix_bound(seed, profiles),
                    check_condorcet_split(seed)]
    if not results:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return results
