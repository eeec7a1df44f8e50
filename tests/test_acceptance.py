"""Acceptance gate: one test per shipped guarantee, each printing a
PASS/FAIL line (visible with ``pytest -s``) and asserting at the stated
tolerance. Lower bounds are exact by construction; upper bounds are checked
by Monte Carlo with a hard failure only at twice the bound and a warning in
between.
"""

import math
import time
import warnings

import numpy as np
import pytest

from voteweight import (
    TOL,
    CondorcetSplitSource,
    ConstantUniform,
    DeterministicPositional,
    IIDRandomSource,
    RandomizedCopeland,
    RandomizedPositional,
    SchemeConfig,
    WinnerPunishingSource,
    monte_carlo_regret,
    regret,
    run_episode,
)
from voteweight.adversaries import random_profile
from voteweight.checks import (
    check_condorcet_gap,
    check_duple_decomposition,
    check_estimator_moments,
    check_prefix_bound,
    check_score_conservation,
    check_single_voter_decomposition,
    check_unilateral_decomposition,
)
from voteweight.cli import main


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


class TestExactLowerBounds:
    def test_winner_punishing_regret_floor(self):
        """Deterministic schemes against the winner-punishing source lose at
        least T/n relative to the best voter, with no tolerance."""
        T = 1000
        rule = DeterministicPositional("plurality")
        start = time.perf_counter()
        worst_slack = math.inf
        for kind in ("constant", "deterministic_unilateral"):
            for n in (2, 4, 10):
                scheme = SchemeConfig(kind, n=n, horizon=T)
                trace = run_episode(scheme, rule, WinnerPunishingSource(rule, 3), seed=0)
                worst_slack = min(worst_slack, regret(trace) - T / n)
                assert regret(trace) >= T / n
        elapsed = time.perf_counter() - start
        report(
            "winner_punishing_regret_floor",
            worst_slack >= 0 and elapsed < 1.0,
            f"worst slack over regret >= T/n is {worst_slack:.3f}, {elapsed:.2f}s",
        )

    def test_constant_rule_zero_regret(self):
        """A rule with the same outcome on every unanimous profile gives every
        weighting identical loss, so regret is exactly zero."""
        T = 1000
        scheme = SchemeConfig("constant", n=4, horizon=T)
        trace = run_episode(scheme, ConstantUniform(), IIDRandomSource(3), seed=0)
        report(
            "constant_rule_zero_regret",
            regret(trace) == 0.0,
            f"regret {regret(trace)} over {T} rounds",
        )

    def test_condorcet_split_regret_floor(self):
        """The Condorcet-split source forces a per-round gap of at least
        delta/6 = 1/18 against randomized Copeland with m=3, at n=11 and at
        the width n=1001."""
        for n, T in ((11, 1000), (1001, 200)):
            m = 3
            delta = 2.0 / (m * (m - 1))
            rule = RandomizedCopeland()
            scheme = SchemeConfig("deterministic_unilateral", n=n, horizon=T)
            start = time.perf_counter()
            trace = run_episode(scheme, rule, CondorcetSplitSource(rule, m, delta), seed=0)
            elapsed = time.perf_counter() - start
            worst_gap = min(
                scheme_loss - float(per_voter.mean())
                for scheme_loss, per_voter in zip(trace.scheme_loss, trace.per_voter_loss)
            )
            ok = (
                worst_gap >= delta / 6 - TOL
                and regret(trace) >= T * delta / 6
                and elapsed < 5.0
            )
            report(
                f"condorcet_split_regret_floor n={n}",
                ok,
                f"worst per-round gap {worst_gap:.5f} >= {delta / 6:.5f}, "
                f"regret {regret(trace):.1f} >= {T * delta / 6:.1f}, {elapsed:.2f}s",
            )


def mean_regret_gate(name, episode, trials, bound, seconds):
    """Fail past twice the bound or the time limit; warn between the bound and twice it."""
    start = time.perf_counter()
    mean, stderr = monte_carlo_regret(episode, trials, base_seed=0)
    elapsed = time.perf_counter() - start
    if bound < mean <= 2 * bound:
        warnings.warn(
            f"{name}: mean regret {mean:.1f} exceeds the bound {bound:.1f} "
            f"but is within twice it"
        )
    report(
        name,
        mean <= 2 * bound and elapsed < seconds,
        f"mean regret {mean:.1f} (stderr {stderr:.1f}) vs bound {bound:.1f}, "
        f"{elapsed:.1f}s for {trials} trials",
    )


class TestMonteCarloUpperBounds:
    n = 10
    T = 10**4
    trials = 50

    def _run(self, name, kind, bound):
        rule = RandomizedPositional("borda")
        scheme = SchemeConfig(kind, n=self.n, horizon=self.T)

        def episode(seed):
            return run_episode(scheme, rule, IIDRandomSource(3), seed=seed)

        mean_regret_gate(name, episode, self.trials, bound, seconds=120.0)

    def test_full_feedback_regret_bound(self):
        bound = math.sqrt(2 * self.T * math.log(self.n))
        self._run("full_feedback_regret_bound", "full_info", bound)

    def test_partial_feedback_regret_bound(self):
        bound = math.sqrt(2 * self.T * self.n * math.log(self.n))
        self._run("partial_feedback_regret_bound", "partial_info", bound)


class TestAdaptiveUpperBounds:
    """The randomized kinds stay no-regret against the adaptive sources, which
    answer the played distribution but never see the voter drawn from it.
    Deterministic weights are the ones these sources defeat (the floors above).
    Full information's distribution follows the true losses, which follow the
    distribution, so its expected loss takes no draw: one episode is exact."""

    T = 4000
    trials = 4

    @pytest.mark.parametrize("kind", ["full_info", "partial_info"])
    @pytest.mark.parametrize("source", ["thm3", "thm5"])
    def test_adaptive_regret_bound(self, source, kind):
        if source == "thm3":
            rule, n = DeterministicPositional("plurality"), 5
            adversary = WinnerPunishingSource(rule, 3)
        else:
            rule, n = RandomizedCopeland(), 11
            adversary = CondorcetSplitSource(rule, 3)
        scheme = SchemeConfig(kind, n=n, horizon=self.T)
        traces = {}

        def play(seed):
            traces[seed] = run_episode(scheme, rule, adversary, seed=seed)
            return traces[seed]

        name = f"adaptive_regret_bound {source} {kind}"
        mean_regret_gate(name, play, self.trials, scheme.regret_bound, seconds=30.0)
        if kind == "full_info":  # seeds 0 and 1 of the gate's trials
            exact = traces[0].scheme_loss.tobytes() == traces[1].scheme_loss.tobytes()
            report(f"{name} exact", exact and regret(traces[0]) <= scheme.regret_bound,
                   f"seeds 0 and 1 byte-equal: {exact}, "
                   f"regret {regret(traces[0]):.4f} vs bound {scheme.regret_bound:.1f}")


class TestClosedFormIdentities:
    def test_single_voter_decomposition(self):
        res = check_single_voter_decomposition(seed=0, profiles=100)
        report(res.name, res.passed, res.detail)

    def test_mixture_decompositions(self):
        for res in (
            check_duple_decomposition(seed=0, profiles=100),
            check_unilateral_decomposition(seed=0, profiles=100),
        ):
            report(res.name, res.passed, res.detail)

    def test_condorcet_gap(self):
        res = check_condorcet_gap(seed=0, profiles=1000)
        report(res.name, res.passed, res.detail)


class TestEstimatorMoments:
    @pytest.fixture(scope="class")
    def moments(self):
        # both moments read one sample, drawn once for the class
        return check_estimator_moments(seed=0)

    def test_mean_matches_expected_loss(self, moments):
        res = moments[0]
        report(res.name, res.passed, res.detail)

    def test_second_moment_bounded_by_n(self, moments):
        res = moments[1]
        report(res.name, res.passed, res.detail)


class TestConservation:
    def test_distribution_normalization(self):
        rng = np.random.default_rng(5)
        rules = [RandomizedCopeland(), RandomizedPositional("borda")]
        worst = 0.0
        for _ in range(1000):
            profile = random_profile(int(rng.integers(2, 6)), rng)
            for rule in rules:
                dist = rule.evaluate(*profile)
                worst = max(worst, abs(float(dist.sum()) - 1.0))
                assert np.all(dist >= -TOL)
        report(
            "distribution_normalization", worst <= TOL, f"max deviation {worst:.3e}"
        )

    def test_score_sums(self):
        res = check_score_conservation(seed=0, profiles=1000)
        report(res.name, res.passed, res.detail)

    def test_majority_prefix_bound(self):
        res = check_prefix_bound(seed=0, profiles=1000)
        report(res.name, res.passed, res.detail)


class TestReplayDeterminism:
    def test_byte_identical_traces(self, tmp_path):
        import json

        cfg = {
            "rule": {"kind": "randomized_positional", "scores": "borda"},
            "scheme": {"kind": "partial_info"},
            "n": 6,
            "m": 3,
            "T": 300,
            "feedback": "partial",
            "source": {"kind": "iid_random"},
            "seed": 17,
            "trials": 1,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out1)]) == 0
        assert main(["simulate", "--config", str(path), "--out-dir", str(out2)]) == 0
        same = (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        report("replay_determinism", same, "trace CSVs are byte-identical")
