"""Rules as a linear statistic plus a decision, against the per-rule loops they
replaced: every outcome must equal the old loop's bit for bit, ties included."""

import itertools
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voteweight import (
    CondorcetSplitSource,
    ConstantUniform,
    DeterministicCopeland,
    DeterministicPositional,
    Duple,
    IIDRandomSource,
    Mixture,
    RandomizedCopeland,
    RandomizedPositional,
    SchemeConfig,
    Unilateral,
    VotingRule,
    WinnerPunishingSource,
    condorcet_winner,
    pairwise_statistic,
    profile_statistic,
    rank_codes,
    run_episode,
)
from voteweight import adversaries, harness, rules
from voteweight.core import all_rankings
from voteweight.harness import _index_rounds, _weighted_outcomes

from conftest import orders_of
from test_core import reference_anonymize
from test_rules import SHIPPED_RULES


# ---------------------------------------------------------------------------
# The per-rule loops on an AnonymousProfile before rules became a statistic
# plus a decision, kept as the reference; only their input changed, from
# ranking objects to order tuples (``prefers`` and ``positions`` were methods of
# those objects). They read only a profile's ``mass`` ({order tuple: fraction},
# in order of first positive-weight voter) and ``m``.

Profile = namedtuple("Profile", "mass m")


def reference_profile(groups, reps, weights):
    """The profile of voter i reporting the order tuple ``reps[groups[i]]``,
    merged by the plain loop over the voters."""
    return Profile(reference_anonymize([reps[g] for g in groups], weights), len(reps[0]))


def challenge_profile(source, groups, weights):
    """:func:`reference_profile` of an adversary's round with these groups."""
    reps = [tuple(order) for order in source.orders.tolist()]
    return reference_profile(groups, reps, weights)


def positions(ranking):
    pos = [0] * len(ranking)
    for rank, a in enumerate(ranking):
        pos[a] = rank
    return tuple(pos)


def prefers(ranking, a, b):
    return positions(ranking)[a] < positions(ranking)[b]


def positional_scores(profile, s):
    scores = np.zeros(profile.m)
    for ranking, frac in profile.mass.items():
        scores[list(ranking)] += frac * s
    return scores


def pairwise_weight(profile, a, b):
    return sum(frac for ranking, frac in profile.mass.items() if prefers(ranking, a, b))


def pairwise_matrix(profile):
    m = profile.m
    mat = np.zeros((m, m))
    for ranking, frac in profile.mass.items():
        pos = np.array(positions(ranking))
        mat += frac * (pos[:, None] < pos[None, :])
    return mat


def copeland_scores(profile):
    mat = pairwise_matrix(profile)
    scores = np.zeros(profile.m)
    for a, b in itertools.combinations(range(profile.m), 2):
        if mat[a, b] > 0.5:
            scores[a] += 1.0
        elif mat[a, b] < 0.5:
            scores[b] += 1.0
        else:
            scores[[a, b]] += 0.5
    return scores


def old_condorcet_winner(profile):
    mat = pairwise_matrix(profile)
    for a in range(profile.m):
        if all(mat[a, b] > 0.5 for b in range(profile.m) if b != a):
            return a
    return None


def point_mass(index, m):
    out = np.zeros(m)
    out[index] = 1.0
    return out


def old_evaluate(rule, profile):
    m = profile.m
    if isinstance(rule, DeterministicPositional):
        return point_mass(int(np.argmax(positional_scores(profile, rule.score_vector(m)))), m)
    if isinstance(rule, RandomizedPositional):
        s = rule.score_vector(m)
        return positional_scores(profile, s) / float(s.sum())
    if isinstance(rule, DeterministicCopeland):
        return point_mass(int(np.argmax(copeland_scores(profile))), m)
    if isinstance(rule, RandomizedCopeland):
        return copeland_scores(profile) / (m * (m - 1) / 2)
    if isinstance(rule, Unilateral):
        probs = np.zeros(m)
        for ranking, frac in profile.mass.items():
            probs[rule.selector(np.array([ranking]))[0]] += frac
        return probs
    if isinstance(rule, Duple):
        probs = np.zeros(m)
        w = pairwise_weight(profile, rule.a, rule.b)
        if w > 0.5:
            probs[rule.a] = 1.0
        elif w < 0.5:
            probs[rule.b] = 1.0
        else:
            probs[rule.a] = probs[rule.b] = 0.5
        return probs
    if isinstance(rule, Mixture):
        out = np.zeros(m)
        for component, q in rule.components:
            out += q * old_evaluate(component, profile)
        return out
    assert isinstance(rule, ConstantUniform)
    return np.full(m, 1.0 / m)


# ---------------------------------------------------------------------------

RULES = {
    **SHIPPED_RULES,
    "duple_1_0": lambda m: Duple(1, 0),
    "unilateral_lambda": lambda m: Unilateral(
        lambda orders: np.where(orders[:, 0] % 2, orders[:, -1], orders[:, 1])),
    "mixture_copeland_duple_borda": lambda m: Mixture(
        [(DeterministicCopeland(), 0.5), (Duple(1, 0), 0.25),
         (RandomizedPositional("borda"), 0.25)]),
}


@st.composite
def rounds(draw):
    """T rounds over m alternatives, n voters on a few distinct rankings, and
    weights built to tie: all equal (even n gives exact halves), small
    integers (exact ties and zeros), one heavy voter, or random floats."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 12))
    T = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    orders = all_rankings(m)
    reps = [tuple(order) for order in orders[rng.permutation(len(orders))[:4]].tolist()]
    groups = rng.integers(0, draw(st.integers(1, len(reps))), size=(T, n))
    mode = draw(st.sampled_from(["uniform", "integers", "heavy", "random"]))
    if mode == "uniform":
        weights = np.ones((T, n))
    elif mode == "integers":
        weights = rng.integers(0, 3, size=(T, n)).astype(float)
        weights[:, -1] += 1.0
    elif mode == "heavy":
        weights = np.full((T, n), 1e-3)
        weights[:, 0] = 1.0
    else:
        weights = rng.random((T, n))
    return m, reps, groups, weights


class TestTieExactReference:
    @given(case=rounds())
    @settings(max_examples=150, deadline=None)
    def test_decide_matches_the_old_loops(self, case):
        m, reps, groups, weights = case
        orders = np.array([orders_of([reps[g] for g in row]) for row in groups.tolist()])
        ms, codes, losses = np.full(len(groups), m), rank_codes(orders), np.zeros((len(groups), m))
        profiles = [reference_profile(g, reps, w) for g, w in zip(groups, weights)]
        for name, make in RULES.items():
            rule = make(m)
            idx, _, tables, _ = _index_rounds(rule, ms, codes, losses, groups.shape[1])
            weighted = _weighted_outcomes(rule, ms, losses, idx, tables, weights)
            for t, profile in enumerate(profiles):
                want = old_evaluate(rule, profile)
                assert np.array_equal(rule.evaluate(orders[t], weights[t]), want), name
                assert np.array_equal(weighted[t], want), name
        for t, profile in enumerate(profiles):
            got = condorcet_winner(profile_statistic(pairwise_statistic, orders[t], weights[t]))
            assert got == old_condorcet_winner(profile)

    def test_uniform_even_split_is_an_exact_half(self):
        # two opposite rankings, six voters each at weight 1/12: every pair
        # they disagree on carries exactly 0.5
        reps = [tuple(all_rankings(3)[0].tolist()), tuple(all_rankings(3)[-1].tolist())]
        groups, w = np.arange(12) % 2, np.ones(12)
        profile = reference_profile(groups, reps, w)
        orders = orders_of([reps[g] for g in groups])
        assert pairwise_matrix(profile)[0, 2] == 0.5
        for rule in (DeterministicCopeland(), RandomizedCopeland(), Duple(0, 2), Duple(2, 0),
                     DeterministicPositional("borda")):
            assert np.array_equal(rule.evaluate(orders, w), old_evaluate(rule, profile))
        assert np.array_equal(Duple(0, 2).evaluate(orders, w), [0.5, 0.0, 0.5])

    @pytest.mark.parametrize("rule, m, n", [
        (RandomizedCopeland(), 3, 11), (RandomizedCopeland(), 3, 12),
        (DeterministicPositional("borda"), 4, 40), (DeterministicCopeland(), 3, 10),
    ])
    def test_condorcet_split_outcomes(self, rule, m, n):
        source = CondorcetSplitSource(rule, m)
        rng = np.random.default_rng(7)
        for w in [np.ones(n)] + [rng.random(n) + 1e-3 for _ in range(30)]:
            groups, _, outcome = source.emit(w)
            profile = challenge_profile(source, groups, w)
            assert np.array_equal(outcome, old_evaluate(rule, profile))

    @pytest.mark.parametrize("rule", [DeterministicPositional("plurality"),
                                      DeterministicPositional("borda"), DeterministicCopeland()])
    def test_winner_punishing_outcomes(self, rule):
        source = WinnerPunishingSource(rule, 3)
        rng = np.random.default_rng(8)
        for w in [np.ones(4), np.ones(5), np.array([1.0, 0.0, 1.0])] + [
                rng.random(6) for _ in range(30)]:
            groups, _, outcome = source.emit(w)
            profile = challenge_profile(source, groups, w)
            assert np.array_equal(outcome, old_evaluate(rule, profile))


class PerCount(VotingRule):
    """``make(m)``'s statistic and decision at each alternative count m, so that
    a rule RULES builds for one count (tied scores) can play rounds of several."""

    def __init__(self, make):
        self.make = make

    def statistic(self, orders):
        return self.make(orders.shape[1]).statistic(orders)

    def decide(self, stat, m):
        return self.make(m).decide(stat, m)


@st.composite
def mixed_rounds(draw):
    """Rounds of two or three alternative counts, indexed together. The first
    round of each count puts its voters on every ranking of the count's pool,
    so a count of m > 2 has a table of at least three rows; each later round
    puts them on one, two or all of its pool. Weights tie, hold zeros, or put
    all the mass on one voter."""
    counts = draw(st.lists(st.integers(2, 5), min_size=2, max_size=3, unique=True))
    ms = counts + draw(st.lists(st.sampled_from(counts), min_size=1, max_size=6))
    n = draw(st.integers(3, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pools = {m: all_rankings(m)[rng.permutation(len(all_rankings(m)))[:4]] for m in counts}
    orders = []
    for t, m in enumerate(ms):
        pool = pools[m]
        if t < len(counts):
            reps, on = pool, np.arange(n) % len(pool)
        else:
            reps = pool[rng.permutation(len(pool))[:draw(st.sampled_from([1, 2, len(pool)]))]]
            on = rng.integers(0, len(reps), n)
        orders.append(reps[on])
    mode = draw(st.sampled_from(["uniform", "integers", "one", "random"]))
    if mode == "uniform":
        weights = np.ones((len(ms), n))
    elif mode == "integers":  # exact ties and zeros
        weights = rng.integers(0, 3, size=(len(ms), n)).astype(float)
        weights[:, -1] += 1.0
    elif mode == "one":  # every other voter weighs 0
        weights = np.zeros((len(ms), n))
        weights[np.arange(len(ms)), rng.integers(0, n, len(ms))] = 1.0
    else:
        weights = rng.random((len(ms), n))
    return np.array(ms), orders, weights


class TestMixedCountReference:
    @given(case=mixed_rounds())
    @settings(max_examples=60, deadline=None)
    def test_weighted_outcomes_match_the_old_loops(self, case):
        """`_weighted_outcomes` on rounds of several counts, whose tables start
        past row 0 of the stacked table, against the old loops and `evaluate`."""
        ms, orders, weights = case
        width, n = int(ms.max()), weights.shape[1]
        codes = np.array([rank_codes(o) for o in orders])
        losses = np.zeros((len(ms), width))
        profiles = [reference_profile(range(n), [tuple(r) for r in o.tolist()], w)
                    for o, w in zip(orders, weights)]
        for name, make in RULES.items():
            idx, _, tables, _ = _index_rounds(PerCount(make), ms, codes, losses, n)
            weighted = _weighted_outcomes(PerCount(make), ms, losses, idx, tables, weights)
            for t, m in enumerate(ms.tolist()):
                want = old_evaluate(make(m), profiles[t])
                assert np.array_equal(make(m).evaluate(orders[t], weights[t]), want), name
                assert np.array_equal(weighted[t, :m], want), name
                assert not weighted[t, m:].any(), name


class TestNoProfilesOnTheEngine:
    """Deterministic weights reach the rule as one grouped statistic of the
    round's groups or table rows: no round groups voters' orders again
    (``profile_statistic``) or calls ``evaluate``."""

    @pytest.fixture
    def no_profiles(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a round grouped voters' orders")

        for module in (rules, harness, adversaries):
            monkeypatch.setattr(module, "profile_statistic", refuse, raising=False)
        monkeypatch.setattr(rules.VotingRule, "evaluate", refuse)
        with pytest.raises(AssertionError):
            RandomizedCopeland().evaluate([[0, 1, 2]], [1.0])
        calls = []
        for module in (harness, adversaries):
            def counted(*args, grouped=module.group_statistic):
                calls.append(1)
                return grouped(*args)

            monkeypatch.setattr(module, "group_statistic", counted)
        return calls

    @pytest.mark.parametrize("rule, m, n", [
        (RandomizedCopeland(), 3, 11), (RandomizedCopeland(), 3, 1001),
        (DeterministicPositional("borda"), 4, 40),
    ])
    def test_deterministic_thm5_rounds(self, no_profiles, rule, m, n):
        source = CondorcetSplitSource(rule, m)
        run_episode(SchemeConfig("deterministic_unilateral", n=n, horizon=20), rule, source)
        assert len(no_profiles) == 20

    def test_deterministic_rounds_of_other_sources(self, no_profiles):
        rule = DeterministicCopeland()
        run_episode(SchemeConfig("deterministic_unilateral", n=6, horizon=20),
                    rule, WinnerPunishingSource(rule, 3))
        run_episode(SchemeConfig("deterministic_unilateral", n=6, horizon=20),
                    rule, IIDRandomSource(4))
        assert len(no_profiles) == 40
