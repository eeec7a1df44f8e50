import bisect
import itertools
import math

import numpy as np
import pytest

from voteweight import (
    TOL,
    RandomizedCopeland,
    RandomizedPositional,
    SchemeConfig,
    exp_weights,
    run_episode,
)
from voteweight import checks
from voteweight.errors import ConfigError

from conftest import alone, file_source, orders_of, random_rankings, ranking


def config(kind="full_info", n=3, T=100, eta=None):
    return SchemeConfig(kind, n=n, horizon=T, eta=eta)


def play(kind, lines, eta=None, rule=None, seed=0):
    """`run_episode` over the given file rounds, one round per line."""
    scheme = config(kind, n=len(lines[0]["rankings"]), T=len(lines), eta=eta)
    rule = rule or RandomizedPositional("borda")
    return run_episode(scheme, rule, file_source(lines), seed=seed)


class TestConfig:
    @pytest.mark.parametrize("n, T", [(1, 1), (1, 50), (2, 7), (10, 400), (1001, 60)])
    def test_default_eta_and_bound_share_one_rounds_count(self, n, T):
        # T rounds, times n for EXP3; the rate is not rederived from the bound (0/0 at n = 1)
        for kind, rounds in (("full_info", T), ("partial_info", T * n)):
            cfg = config(kind, n=n, T=T)
            assert cfg.learning_rate == math.sqrt(2.0 * math.log(n) / rounds)
            assert cfg.regret_bound == math.sqrt(2.0 * rounds * math.log(n))

    def test_explicit_eta_wins(self):
        assert config(eta=0.25).learning_rate == 0.25

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            config("softmax")

    def test_bad_eta(self):
        for eta in (-1.0, 0, math.nan, math.inf, "0.5", True):
            with pytest.raises(ConfigError, match="eta"):
                config(eta=eta)

    @pytest.mark.parametrize("key", ["n", "horizon"])
    @pytest.mark.parametrize("bad", [True, 3.5, math.inf, "4", -1, 0])
    def test_bad_counts(self, key, bad):
        # a boolean n would play a one-voter episode, a fractional one crash later
        with pytest.raises(ConfigError):
            SchemeConfig("full_info", **{"n": 3, "horizon": 10, key: bad})

    def test_whole_float_counts_become_ints(self):
        cfg = SchemeConfig("full_info", n=3.0, horizon=10.0)
        assert (cfg.n, cfg.horizon) == (3, 10) and type(cfg.n) is type(cfg.horizon) is int


class TestVoterDistribution:
    """The voter distribution the engine plays is `exp_weights` of the cumulative losses."""

    def test_first_round_is_uniform(self):
        assert np.allclose(exp_weights(np.zeros(5), 0.3), 0.2, atol=TOL)

    def test_softmax_by_hand(self):
        p = exp_weights(np.array([0.0, 1.0]), 1.0)
        z = 1 + math.exp(-1)
        assert np.allclose(p, [1 / z, math.exp(-1) / z], atol=1e-9)

    def test_shift_invariance(self, rng):
        cum = rng.random(6) * 5
        assert np.allclose(exp_weights(cum, 0.3), exp_weights(cum + 17.0, 0.3), atol=TOL)

    def test_overflow_safety(self):
        p = exp_weights(np.array([0.0, 5000.0]), 1.0)
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0, abs=1e-9)

    def test_permutation_equivariance(self, rng):
        cum = rng.random(5) * 3
        perm = rng.permutation(5)
        assert np.allclose(exp_weights(cum, 0.7)[perm], exp_weights(cum[perm], 0.7), atol=TOL)


class TestFullInfoUpdate:
    def test_borda_increment(self):
        # voter 0 reports abc: (2/3, 1/3, 0) . (1, 0, 0.5) = 2/3
        lines = [{"rankings": [[0, 1, 2], [1, 0, 2]], "losses": [1.0, 0.0, 0.5]},
                 {"rankings": [[0, 1, 2], [1, 0, 2]], "losses": [0.0, 1.0, 0.5]}]
        trace = play("full_info", lines, eta=1.0)
        assert trace.per_voter_loss[0, 0] == pytest.approx(2 / 3, abs=TOL)
        # round 2 plays the softmax of round 1's per-voter losses
        assert np.allclose(trace.probs[1], exp_weights(trace.per_voter_loss[0], 1.0), atol=TOL)

    def test_zero_losses(self):
        lines = [{"rankings": [[0, 1, 2], [1, 0, 2]], "losses": [0.0, 0.0, 0.0]},
                 {"rankings": [[0, 1, 2], [1, 0, 2]], "losses": [1.0, 0.0, 0.5]}]
        trace = play("full_info", lines, eta=1.0)
        assert np.array_equal(trace.per_voter_loss[0], [0.0, 0.0])
        assert np.array_equal(trace.probs[1], [0.5, 0.5])

    def test_identical_rankings_identical_increments(self, rng):
        lines = [{"rankings": [[0, 1, 2]] * 3, "losses": rng.random(3).tolist()}]
        trace = play("full_info", lines, rule=RandomizedCopeland())
        assert trace.per_voter_loss[0, 0] == trace.per_voter_loss[0, 1] == trace.per_voter_loss[0, 2]


class TestPartialInfoUpdate:
    @staticmethod
    def only_chosen_moves(trace, eta, t=0):
        """Round t+1's probabilities, recomputed from a tally in which only
        round t's chosen voter moved, by its winner loss over its probability."""
        c = trace.chosen[t]
        tally = np.zeros(trace.probs.shape[1])
        tally[c] = trace.winner_loss[t] / trace.probs[t, c]
        return tally, exp_weights(tally, eta)

    def test_importance_weighting(self):
        lines = [{"rankings": [[0, 1, 2], [2, 1, 0]], "losses": [0.75, 0.75, 0.75]}] * 2
        trace = play("partial_info", lines, eta=1.0)
        tally, want = self.only_chosen_moves(trace, 1.0)
        assert tally[trace.chosen[0]] == pytest.approx(1.5, abs=TOL)
        assert np.allclose(trace.probs[1], want, atol=TOL)

    def test_zero_observed_loss(self):
        lines = [{"rankings": [[0, 1, 2], [2, 1, 0]], "losses": [0.0, 0.0, 0.0]}] * 2
        trace = play("partial_info", lines, eta=1.0)
        assert np.array_equal(trace.probs[1], [0.5, 0.5])

    def test_small_probability_blows_up(self):
        lines = [{"rankings": [[0, 1, 2]] * 4, "losses": [1.0, 1.0, 1.0]}] * 2
        trace = play("partial_info", lines, eta=0.5)
        tally, want = self.only_chosen_moves(trace, 0.5)
        assert tally[trace.chosen[0]] == pytest.approx(4.0, abs=TOL)
        assert np.allclose(trace.probs[1], want, atol=TOL)

    def test_touches_exactly_one_entry(self, rng):
        # log p moves by the same constant for every voter but the chosen one,
        # whose tally grows by winner_loss / p[chosen]
        n, T, eta = 6, 12, 0.5
        lines = [{"rankings": random_rankings(n, 3, rng).tolist(),
                  "losses": (0.1 + 0.9 * rng.random(3)).tolist()} for _ in range(T)]
        trace = play("partial_info", lines, eta=eta)
        for t in range(T - 1):
            step = np.log(trace.probs[t + 1]) - np.log(trace.probs[t])
            c = trace.chosen[t]
            others = np.delete(step, c)
            assert np.allclose(others, others[0], atol=1e-9)
            moved = (others[0] - step[c]) / eta
            assert moved == pytest.approx(trace.winner_loss[t] / trace.probs[t, c], rel=1e-9)


class TestAct:
    """The weights each scheme plays, read off `run_episode`'s `probs` and `chosen`."""

    def test_constant_plays_first_voter(self):
        # voter 0 is the worst voter every round, and constant ignores it
        lines = [{"rankings": [[0, 1, 2], [1, 0, 2], [2, 1, 0], [1, 2, 0]],
                  "losses": [1.0, 0.0, 0.0]}] * 5
        trace = play("constant", lines, rule=RandomizedPositional("plurality"))
        assert np.array_equal(trace.probs, np.eye(1, 4).repeat(5, axis=0))
        assert np.array_equal(trace.chosen, np.zeros(5))

    def test_deterministic_unilateral_plays_distribution(self):
        lines = [{"rankings": [[0, 1, 2], [1, 0, 2], [2, 1, 0]], "losses": [0.3, 0.6, 0.9]}]
        trace = play("deterministic_unilateral", lines)
        assert np.allclose(trace.probs[0], 1 / 3, atol=TOL)
        assert trace.chosen.tolist() == [-1]

    def test_point_mass_distribution_is_deterministic(self):
        # after round 1 the weights of voters 1 and 2 are exp(-1e6), exactly 0
        lines = [{"rankings": [[0, 1, 2], [1, 0, 2], [2, 1, 0]], "losses": [0.0, 1.0, 1.0]}] * 10
        for seed in range(10):
            trace = play("full_info", lines, eta=1e6,
                         rule=RandomizedPositional("plurality"), seed=seed)
            assert np.array_equal(trace.probs[1:], np.eye(1, 3).repeat(9, axis=0))
            assert np.array_equal(trace.chosen[1:], np.zeros(9))


def _draw_left(weights, u):
    """An inverse-CDF draw with bisect_left, which can land on a zero weight."""
    cdf = list(itertools.accumulate(weights))
    return bisect.bisect_left([x / cdf[-1] for x in cdf], u)


def _draw_in_weight_space(weights, u):
    """A draw at u * total among the running sums, which can land on a weight
    that normalizes to 0."""
    cdf = list(itertools.accumulate(weights))
    return bisect.bisect_right(cdf, u * cdf[-1])


class TestEstimatorErrorPath:
    def test_passes(self):
        result = checks.check_estimator_error_path(seed=0)
        assert result.passed, result.detail
        assert "none chosen" in result.detail

    def test_reports_a_draw_on_zero_weight(self, monkeypatch):
        monkeypatch.setattr(checks, "inverse_cdf", _draw_left)
        result = checks.check_estimator_error_path(seed=0)
        assert result.passed is False
        assert "[0.0, 1.0] at u=0.0 drew 0" in result.detail

    def test_reports_a_draw_on_a_weight_that_normalizes_to_zero(self, monkeypatch):
        # the weight drawn is positive: only its probability is 0
        monkeypatch.setattr(checks, "inverse_cdf", _draw_in_weight_space)
        result = checks.check_estimator_error_path(seed=0)
        assert result.passed is False
        assert "[0.0, 5e-324, 3.0] at u=0.0 drew 1" in result.detail


class TestSingleVoterIdentity:
    def test_mixing_equals_averaging(self):
        # evaluating the p-weighted profile must equal averaging over voters,
        # for rules that decompose across voters (the `verify` check)
        result = checks.check_single_voter_decomposition(seed=12345, profiles=30)
        assert result.passed, result.detail

    def test_copeland_does_not_decompose(self):
        # the identity fails for randomized Copeland: a known witness
        rule = RandomizedCopeland()
        votes = [ranking(0, 1, 2), ranking(1, 0, 2)]
        p = np.array([0.6, 0.4])
        mixed = rule.evaluate(orders_of(votes), p)
        averaged = p[0] * rule.evaluate(*alone(votes[0])) + p[1] * rule.evaluate(*alone(votes[1]))
        assert np.max(np.abs(mixed - averaged)) > 0.05
        assert not rule.decomposes


class TestEstimatorMoments:
    def test_unbiased_mean_and_second_moment(self):
        # fixed round; draw (voter, winner) pairs and check the estimator sums
        stats = checks.estimator_monte_carlo(seed=12345)
        assert abs(stats["mean"] - stats["exact"]) <= 3 * stats["stderr"]
        assert stats["second_moment"] <= stats["n"] + 3 * stats["second_stderr"]
