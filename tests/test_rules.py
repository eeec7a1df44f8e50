import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voteweight import (
    TOL,
    CondorcetSplitSource,
    ConstantUniform,
    DeterministicCopeland,
    DeterministicPositional,
    Duple,
    Mixture,
    RandomizedCopeland,
    RandomizedPositional,
    Unilateral,
    VotingRule,
    condorcet_winner,
    copeland_scores,
    pairwise_statistic,
    position_selector,
    profile_statistic,
    unanimity_witness,
)
from voteweight import checks, cli
from voteweight.adversaries import random_profile
from voteweight.core import all_rankings
from voteweight.errors import (
    ConfigError,
    EnumerationRefusedError,
    HypothesisViolatedError,
    InvalidPairError,
    InvalidRankingError,
    ShapeError,
)
from voteweight.harness import _index_rounds
from voteweight.rules import (
    borda_scores,
    duple_mixture_copeland,
    outcome_table,
    unilateral_mixture_positional,
    validate_scores,
)

from conftest import alone, orders_of, ranking


def rule_from_spec(spec):
    """The rule a simulate config with rule section ``spec`` builds."""
    config = {"rule": spec, "source": {"kind": "iid_random"}, "n": 3, "m": 3, "T": 1}
    return cli.parse_section("config", config, cli._simulation)[1]


def profile_of(mass):
    """A profile as (orders, weights) from {order tuple: fraction}."""
    return np.array(list(mass)), np.array(list(mass.values()))


def positional_scores(profile, s):
    """The profile's positional scores, read from the rule's statistic."""
    return profile_statistic(RandomizedPositional(s).statistic, *profile)


def pairwise(profile):
    """The profile's (m, m) pairwise masses, read from the pairwise statistic."""
    m = np.shape(profile[0])[1]
    return profile_statistic(pairwise_statistic, *profile).reshape(m, m)


class TestScoreVectors:
    def test_non_increasing_required(self):
        with pytest.raises(ShapeError):
            validate_scores([1, 2, 0])

    def test_top_score_positive(self):
        with pytest.raises(ShapeError):
            validate_scores([0, 0, 0])

    def test_negative_rejected(self):
        with pytest.raises(ShapeError):
            validate_scores([1, 0, -1])

    @pytest.mark.parametrize("scores", [[1e308, 1e308, 0], [1, math.nan, 0], [math.inf, 1, 0]],
                             ids=["sum_overflows", "nan", "infinity"])
    def test_non_finite_rejected(self, scores):
        with pytest.raises(ShapeError, match="scores must be finite with a finite sum"):
            validate_scores(scores)


class TestPositionalScores:
    def test_borda_unanimous(self, abc):
        scores = positional_scores(alone(abc), np.array([2.0, 1.0, 0.0]))
        assert np.allclose(scores, [2, 1, 0], atol=TOL)

    def test_plurality_weighted(self):
        profile = profile_of({(0, 1, 2): 0.4, (1, 0, 2): 0.6})
        scores = positional_scores(profile, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(scores, [0.4, 0.6, 0.0], atol=TOL)

    def test_unanimous_scores_are_permuted(self, bca):
        s = np.array([5.0, 2.0, 1.0])
        scores = positional_scores(alone(bca), s)
        # b first, c second, a third
        assert np.allclose(scores, [1.0, 5.0, 2.0], atol=TOL)

    def test_shape_mismatch(self, abc):
        with pytest.raises(ShapeError):
            positional_scores(alone(abc), np.array([1.0, 0.0]))


class TestDeterministicPositional:
    def test_plurality_winner_by_weight(self):
        profile = profile_of({(0, 1, 2): 0.4, (1, 0, 2): 0.6})
        dist = DeterministicPositional("plurality").evaluate(*profile)
        assert np.array_equal(dist, [0, 1, 0])

    def test_tie_breaks_to_smallest_id(self):
        profile = profile_of({(0, 1, 2): 0.5, (1, 0, 2): 0.5})
        dist = DeterministicPositional("plurality").evaluate(*profile)
        assert np.array_equal(dist, [1, 0, 0])

    def test_unanimity(self, abc):
        dist = DeterministicPositional([3.0, 1.0, 0.0]).evaluate(*alone(abc))
        assert np.array_equal(dist, [1, 0, 0])

    def test_argmax_invariant_to_scaling(self, rng):
        for _ in range(20):
            profile = random_profile(4, rng)
            s = np.sort(rng.random(4))[::-1] + np.array([1.0, 0, 0, 0])
            base = DeterministicPositional(s).evaluate(*profile)
            scaled = DeterministicPositional(7.5 * s).evaluate(*profile)
            assert np.array_equal(base, scaled)


class TestRandomizedPositional:
    def test_borda_unanimous(self, abc):
        dist = RandomizedPositional("borda").evaluate(*alone(abc))
        assert np.allclose(dist, [2 / 3, 1 / 3, 0], atol=TOL)

    def test_veto_unanimous(self, abc):
        dist = RandomizedPositional("veto").evaluate(*alone(abc))
        assert np.allclose(dist, [0.5, 0.5, 0], atol=TOL)

    def test_plurality_fractional_mass(self):
        profile = profile_of({(0, 1, 2): 0.25, (1, 2, 0): 0.75})
        dist = RandomizedPositional("plurality").evaluate(*profile)
        assert np.allclose(dist, [0.25, 0.75, 0], atol=TOL)


class TestPairwise:
    def test_read_off_support(self):
        profile = profile_of({(0, 1, 2): 0.25, (1, 2, 0): 0.75})
        assert pairwise(profile)[0, 1] == pytest.approx(0.25, abs=TOL)
        assert profile_statistic(Duple(0, 1).statistic, *profile) == pytest.approx(0.25, abs=TOL)

    def test_symmetric_split_is_tie(self):
        profile = profile_of({(0, 1, 2): 0.5, (1, 0, 2): 0.5})
        assert pairwise(profile)[0, 1] == 0.5

    def test_complementarity(self, rng):
        for _ in range(20):
            profile = random_profile(4, rng)
            P = pairwise(profile)
            assert np.all(np.diag(P) == 0)
            for a, b in itertools.combinations(range(4), 2):
                assert P[a, b] + P[b, a] == pytest.approx(1.0, abs=TOL)

    def test_same_alternative_rejected(self, abc):
        with pytest.raises(InvalidPairError):
            rule_from_spec({"kind": "duple", "a": 1, "b": 1.0})


class TestCopeland:
    def test_unanimous_scores(self, abc):
        assert np.allclose(copeland_scores(pairwise_statistic(np.array([abc]))),
                           [[2, 1, 0]], atol=TOL)

    def test_tied_pair_scores(self):
        profile = profile_of({(0, 1, 2): 0.5, (1, 2, 0): 0.5})
        assert np.allclose(copeland_scores(pairwise(profile).ravel()), [1, 1.5, 0.5], atol=TOL)

    def test_rounded_half_split_still_awards_the_pair(self):
        # both sides of pair (0, 1) round to just under one half
        profile = profile_of({(0, 1, 2): 0.5 - 1e-13, (1, 0, 2): 0.5 - 1e-13})
        assert copeland_scores(pairwise(profile).ravel()).sum() == 3.0
        assert RandomizedCopeland().evaluate(*profile).sum() == pytest.approx(1.0, abs=TOL)

    def test_two_alternatives(self):
        profile = profile_of({(0, 1): 1.0})
        assert np.allclose(copeland_scores(pairwise(profile).ravel()), [1, 0], atol=TOL)

    def test_deterministic_unanimous(self, abc):
        assert np.array_equal(DeterministicCopeland().evaluate(*alone(abc)), [1, 0, 0])

    def test_deterministic_tie_case(self):
        profile = profile_of({(0, 1, 2): 0.5, (1, 2, 0): 0.5})
        assert np.array_equal(DeterministicCopeland().evaluate(*profile), [0, 1, 0])

    def test_deterministic_cycle_tie_break(self):
        cycle = profile_of({(0, 1, 2): 1 / 3, (1, 2, 0): 1 / 3, (2, 0, 1): 1 / 3})
        assert np.array_equal(DeterministicCopeland().evaluate(*cycle), [1, 0, 0])

    def test_randomized_unanimous(self, abc):
        dist = RandomizedCopeland().evaluate(*alone(abc))
        assert np.allclose(dist, [2 / 3, 1 / 3, 0], atol=TOL)

    def test_randomized_tie_case(self):
        profile = profile_of({(0, 1, 2): 0.5, (1, 2, 0): 0.5})
        dist = RandomizedCopeland().evaluate(*profile)
        assert np.allclose(dist, [1 / 3, 1 / 2, 1 / 6], atol=TOL)

    def test_randomized_cycle_uniform(self):
        cycle = profile_of({(0, 1, 2): 1 / 3, (1, 2, 0): 1 / 3, (2, 0, 1): 1 / 3})
        dist = RandomizedCopeland().evaluate(*cycle)
        assert np.allclose(dist, [1 / 3, 1 / 3, 1 / 3], atol=TOL)


class TestCondorcetWinner:
    def test_unanimity(self, abc):
        assert condorcet_winner(pairwise(alone(abc)).ravel()) == 0

    def test_cycle_has_none(self):
        cycle = profile_of({(0, 1, 2): 1 / 3, (1, 2, 0): 1 / 3, (2, 0, 1): 1 / 3})
        assert condorcet_winner(pairwise(cycle).ravel()) is None

    def test_pairwise_tie_is_not_a_win(self):
        profile = profile_of({(0, 1, 2): 0.5, (1, 0, 2): 0.5})
        assert condorcet_winner(pairwise(profile).ravel()) is None


class TestUnilateralAndDuple:
    def test_top_selector_mixture(self):
        profile = profile_of({(0, 1, 2): 0.25, (1, 2, 0): 0.75})
        dist = Unilateral(position_selector(0)).evaluate(*profile)
        assert np.allclose(dist, [0.25, 0.75, 0], atol=TOL)

    def test_second_place_selector(self, abc):
        dist = Unilateral(position_selector(1)).evaluate(*alone(abc))
        assert np.array_equal(dist, [0, 1, 0])

    def test_constant_selector(self, rng):
        rule = Unilateral(lambda orders: np.full(len(orders), 2))
        for _ in range(5):
            assert np.array_equal(rule.evaluate(*random_profile(3, rng)), [0, 0, 1])

    def test_duple_unanimous(self, abc):
        assert np.array_equal(Duple(0, 1).evaluate(*alone(abc)), [1, 0, 0])

    def test_duple_tie_splits_evenly(self):
        profile = profile_of({(0, 1, 2): 0.5, (1, 0, 2): 0.5})
        assert np.allclose(Duple(0, 1).evaluate(*profile), [0.5, 0.5, 0], atol=TOL)

    def test_duple_majority_loser(self):
        profile = profile_of({(0, 1, 2): 0.25, (1, 2, 0): 0.75})
        assert np.array_equal(Duple(0, 1).evaluate(*profile), [0, 1, 0])

    def test_duple_same_alternative_rejected(self):
        with pytest.raises(InvalidPairError):
            Duple(1, 1)


class TestMixture:
    def test_uniform_duples_equal_randomized_copeland(self, abc):
        dist = duple_mixture_copeland(3).evaluate(*alone(abc))
        assert np.allclose(dist, [2 / 3, 1 / 3, 0], atol=TOL)

    def test_score_weighted_unilaterals_equal_randomized_positional(self, rng):
        s = borda_scores(3)
        mix = unilateral_mixture_positional(s)
        rule = RandomizedPositional(s)
        for _ in range(10):
            profile = random_profile(3, rng)
            assert np.allclose(mix.evaluate(*profile), rule.evaluate(*profile), atol=TOL)

    def test_single_component(self, rng):
        rule = RandomizedCopeland()
        mix = Mixture([(rule, 1.0)])
        profile = random_profile(3, rng)
        assert np.allclose(mix.evaluate(*profile), rule.evaluate(*profile), atol=TOL)

    def test_bad_weights_rejected(self):
        r = RandomizedCopeland()
        for components in ([(ConstantUniform(), 0.7)], [(r, math.nan)], [(r, 1.0), (r, math.nan)]):
            with pytest.raises(ShapeError):
                Mixture(components)

    def test_negative_probability_is_named(self):
        # the probabilities sum to 1, so only the sign can be at fault
        r = RandomizedCopeland()
        with pytest.raises(ShapeError, match=r"must be >= 0 .*got \[1\.5, -0\.5\]"):
            Mixture([(r, 1.5), (r, -0.5)])

    def test_components_of_every_statistic_width(self, rng):
        # statistic widths 0, 1, m and m * m: decide splits by each one's length
        parts = [(ConstantUniform(), 0.1), (Duple(1, 0), 0.2),
                 (RandomizedPositional("borda"), 0.3), (DeterministicCopeland(), 0.4)]
        mix = Mixture(parts)
        for m in range(2, 6):
            assert mix.statistic(all_rankings(m)).shape == (math.factorial(m), 1 + m + m * m)
            for _ in range(5):
                profile = random_profile(m, rng)
                expected = sum(q * rule.evaluate(*profile) for rule, q in parts)
                assert np.allclose(mix.evaluate(*profile), expected, atol=TOL)


class TestInvariants:
    @given(seed=st.integers(0, 10**6), m=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_outputs_are_distributions(self, seed, m):
        rng = np.random.default_rng(seed)
        profile = random_profile(m, rng)
        rules = [
            RandomizedPositional("borda"),
            RandomizedPositional("plurality"),
            RandomizedCopeland(),
            DeterministicCopeland(),
            DeterministicPositional("borda"),
            ConstantUniform(),
        ]
        for rule in rules:
            dist = rule.evaluate(*profile)
            assert np.all(dist >= -TOL)
            assert abs(dist.sum() - 1.0) <= TOL

    @given(seed=st.integers(0, 10**6), m=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_score_conservation(self, seed, m):
        rng = np.random.default_rng(seed)
        profile = random_profile(m, rng)
        s = np.sort(rng.random(m))[::-1] + np.array([1.0] + [0.0] * (m - 1))
        assert positional_scores(profile, s).sum() == pytest.approx(s.sum(), abs=TOL)
        assert copeland_scores(pairwise(profile).ravel()).sum() == pytest.approx(
            m * (m - 1) / 2, abs=TOL)

    def test_neutrality_of_randomized_rules(self, rng):
        for _ in range(20):
            m = int(rng.integers(3, 6))
            profile = random_profile(m, rng)
            rho = [int(x) for x in rng.permutation(m)]
            relabeled = np.array(rho)[profile[0]], profile[1]
            for rule in (RandomizedPositional("borda"), RandomizedCopeland()):
                base = rule.evaluate(*profile)
                mapped = rule.evaluate(*relabeled)
                for a in range(m):
                    assert mapped[rho[a]] == base[a]

    def test_duple_decomposition_random_profiles(self):
        result = checks.check_duple_decomposition(seed=12345, profiles=30)
        assert result.passed, result.detail

    def test_condorcet_gap_on_random_profiles(self):
        result = checks.check_condorcet_gap(seed=12345, profiles=50)
        assert result.passed, result.detail
        assert result.detail.startswith("50 Condorcet instances")

    def test_condorcet_checks_take_delta_from_the_source(self, monkeypatch):
        # delta is stated once, by Theorem 5's source; both checks test the value it uses
        class WiderGap(CondorcetSplitSource):
            def __init__(self, rule, m, delta=None):
                super().__init__(rule, m, delta)
                self.delta *= 1.5

        monkeypatch.setattr(checks, "CondorcetSplitSource", WiderGap)
        result = checks.check_condorcet_gap(seed=12345, profiles=50)
        assert not result.passed, result.detail
        # the split's episode plays the widened source, whose lead check refuses it
        with pytest.raises(HypothesisViolatedError, match="under delta=0.5"):
            checks.check_condorcet_split(seed=0)


class TestUnanimityWitness:
    def test_plurality_witness(self):
        witness = unanimity_witness(DeterministicPositional("plurality"), 3)
        assert np.array_equal(witness, orders_of([ranking(0, 1, 2), ranking(1, 0, 2)]))

    def test_constant_rule_has_no_witness(self):
        assert unanimity_witness(ConstantUniform(), 3) is None

    def test_borda_two_alternatives(self):
        witness = unanimity_witness(DeterministicPositional("borda"), 2)
        assert np.array_equal(witness, orders_of([ranking(0, 1), ranking(1, 0)]))

    def test_enumeration_guard(self):
        with pytest.raises(EnumerationRefusedError):
            unanimity_witness(ConstantUniform(), 9)

    def test_witness_past_the_first_block(self):
        reversed_only = Unilateral(lambda orders: (orders == (4, 3, 2, 1, 0)).all(axis=1) * 1)
        witness = unanimity_witness(reversed_only, 5)
        assert np.array_equal(witness, orders_of([ranking(0, 1, 2, 3, 4), ranking(4, 3, 2, 1, 0)]))


def tied_scores(m):
    return [3.0, 3.0, 1.0, 1.0, 0.0, 0.0][:m]


# Every shipped rule, as a function of m.
SHIPPED_RULES = {
    "randomized_borda": lambda m: RandomizedPositional("borda"),
    "randomized_plurality": lambda m: RandomizedPositional("plurality"),
    "randomized_veto": lambda m: RandomizedPositional("veto"),
    "randomized_tied": lambda m: RandomizedPositional(tied_scores(m)),
    "deterministic_borda": lambda m: DeterministicPositional("borda"),
    "deterministic_plurality": lambda m: DeterministicPositional("plurality"),
    "deterministic_veto": lambda m: DeterministicPositional("veto"),
    "deterministic_tied": lambda m: DeterministicPositional(tied_scores(m)),
    "deterministic_copeland": lambda m: DeterministicCopeland(),
    "randomized_copeland": lambda m: RandomizedCopeland(),
    "duple_0_1": lambda m: Duple(0, 1),
    "unilateral_position_1": lambda m: Unilateral(position_selector(1)),
    "constant_uniform": lambda m: ConstantUniform(),
    "duple_mixture_copeland": duple_mixture_copeland,
    "unilateral_mixture_borda": lambda m: unilateral_mixture_positional(borda_scores(m)),
}


# (deterministic, decomposes) of every shipped rule
RULE_FLAGS = {
    "randomized_borda": (False, True),
    "randomized_plurality": (False, True),
    "randomized_veto": (False, True),
    "randomized_tied": (False, True),
    "deterministic_borda": (True, False),
    "deterministic_plurality": (True, False),
    "deterministic_veto": (True, False),
    "deterministic_tied": (True, False),
    "deterministic_copeland": (True, False),
    "randomized_copeland": (False, False),
    "duple_0_1": (False, False),
    "unilateral_position_1": (False, True),
    "constant_uniform": (False, True),
    "duple_mixture_copeland": (False, False),
    "unilateral_mixture_borda": (False, True),
}


class TestRuleFlags:
    def test_every_shipped_rule_is_listed(self):
        assert RULE_FLAGS.keys() == SHIPPED_RULES.keys()

    @pytest.mark.parametrize("name", SHIPPED_RULES)
    def test_flags(self, name, rng):
        rule = SHIPPED_RULES[name](4)
        assert (rule.deterministic, rule.decomposes) == RULE_FLAGS[name]
        if rule.decomposes:  # a weighted profile's outcome averages its rankings' own
            for _ in range(5):
                orders, weights = random_profile(4, rng)
                averaged = weights @ rule.unanimous_outcomes(orders) / weights.sum()
                assert np.allclose(rule.evaluate(orders, weights), averaged, atol=TOL)


class TestUnanimousOutcomes:
    @pytest.mark.parametrize("make_rule", SHIPPED_RULES.values(), ids=SHIPPED_RULES.keys())
    def test_hook_matches_scalar_evaluate(self, make_rule):
        for m in range(2, 7):
            rule, rankings = make_rule(m), all_rankings(m)
            expected = np.array([rule.evaluate(*alone(r)) for r in rankings])
            got = rule.unanimous_outcomes(rankings)
            assert got.shape == (len(rankings), m)
            assert np.array_equal(got, expected), m


class TestOutcomeTable:
    @pytest.mark.parametrize(
        "name", ["randomized_borda", "deterministic_plurality", "randomized_copeland"]
    )
    def test_batches_match_scalar_build(self, rng, name):
        """`_index_rounds` on mixed-m rounds against `evaluate` one vote at a
        time: each count's table is one block of rows in ascending code order,
        starting where the one before it ends, and every vote's outcome,
        statistic and loss match bit for bit."""
        rule, width, n = SHIPPED_RULES[name](None), 5, 7
        ms = np.array([4, 3, 4, 5, 4, 2, 5, 3, 4, 2, 3, 4])
        codes = np.array([rng.integers(0, math.factorial(m), size=n) for m in ms.tolist()])
        losses = np.zeros((len(ms), width))
        for t, m in enumerate(ms.tolist()):
            losses[t, :m] = rng.random(m)
        idx, U, tables, L = _index_rounds(rule, ms, codes, losses, n)
        assert tables.keys() == set(ms.tolist())
        end = 0
        for lo, outcomes, stat in sorted(tables.values(), key=lambda table: table[0]):
            assert lo == end and len(outcomes) == len(stat)  # each count's block follows the last
            end += len(outcomes)
        assert end == len(U) == len(set(zip(ms.repeat(n).tolist(), codes.ravel().tolist())))
        for m, (lo, outcomes, stat) in tables.items():
            at = ms == m
            rank = np.searchsorted(np.unique(codes[at]), codes[at])
            assert np.array_equal(idx[at] - lo, rank)
            assert np.array_equal(U[lo:lo + len(outcomes), :m], outcomes)
        for (t, i), code in np.ndenumerate(codes):
            m = int(ms[t])
            lo, _, stat = tables[m]
            order = all_rankings(m)[code]
            outcome = rule.evaluate(*alone(order)).tolist() + [0.0] * (width - m)
            assert U[idx[t, i]].tolist() == outcome
            assert stat[idx[t, i] - lo].tolist() == rule.statistic(order[None])[0].tolist()
            assert L[t, i] == sum(o * x for o, x in zip(outcome, losses[t].tolist()))


class CountingRule(VotingRule):
    """A rule that records every order it computes a statistic for."""

    def __init__(self, rule):
        self.rule, self.seen = rule, []

    def statistic(self, orders):
        self.seen.extend(map(tuple, orders.tolist()))
        return self.rule.statistic(orders)

    def decide(self, stat, m):
        return self.rule.decide(stat, m)


class TestOutcomeTableBranches:
    """`outcome_table` counts the codes when there are at least m! of them and
    sorts them otherwise; both must build the same table."""

    @pytest.mark.parametrize(
        "name", ["randomized_borda", "deterministic_plurality", "randomized_copeland"]
    )
    def test_counting_and_sorting_build_the_same_table(self, rng, name):
        for m in (3, 2, 4, 3, 5, 4, 2):
            size = math.factorial(m)
            present = rng.permutation(size)[: max(1, size // 2)]
            codes = rng.choice(present, size=(size, 2))  # 2 m! codes: counted
            few = rng.permutation(np.unique(codes))  # fewer than m! codes: sorted
            counting = CountingRule(SHIPPED_RULES[name](None))
            sorting = CountingRule(SHIPPED_RULES[name](None))
            rows, U, stat = outcome_table(counting, m, codes)
            few_rows, few_U, few_stat = outcome_table(sorting, m, few)
            assert rows.shape == codes.shape and few_rows.shape == few.shape
            row_of = dict(zip(few.tolist(), few_rows.tolist()))
            assert np.array_equal(rows, np.vectorize(row_of.get, otypes=[np.int64])(codes))
            assert np.array_equal(U, few_U) and np.array_equal(stat, few_stat)
            # one evaluation per distinct code, in ascending code order
            distinct = [tuple(order) for order in all_rankings(m)[np.unique(codes)].tolist()]
            assert counting.seen == sorting.seen == distinct

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_out_of_range_codes_rejected_on_both_branches(self, m):
        size = math.factorial(m)
        for bad in (-1, size, size + 7):
            for codes in (np.append(np.zeros(size - 1, dtype=np.int64), bad),  # counted
                          np.array([bad])):  # sorted
                rule = CountingRule(RandomizedPositional("borda"))
                with pytest.raises(InvalidRankingError):
                    outcome_table(rule, m, codes)
                assert not rule.seen


class TestRuleSpec:
    def test_randomized_positional_with_explicit_scores(self, abc):
        rule = rule_from_spec({"kind": "randomized_positional", "scores": [2, 1, 0]})
        assert np.allclose(rule.evaluate(*alone(abc)), [2 / 3, 1 / 3, 0], atol=TOL)

    def test_named_family(self, abc):
        rule = rule_from_spec({"kind": "deterministic_positional", "scores": "plurality"})
        assert np.array_equal(rule.evaluate(*alone(abc)), [1, 0, 0])

    def test_copeland_and_constant(self):
        assert isinstance(rule_from_spec({"kind": "randomized_copeland"}), RandomizedCopeland)
        assert isinstance(rule_from_spec({"kind": "constant_uniform"}), ConstantUniform)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            rule_from_spec({"kind": "schulze"})

    @pytest.mark.parametrize("spec", [
        {"kind": "duple", "a": 1.9, "b": 0}, {"kind": "duple", "a": -1, "b": 0},
        {"kind": "duple", "a": 0, "b": True}, {"kind": "unilateral", "position": -1},
        {"kind": "unilateral", "position": "1"}, {"kind": "unilateral", "position": 0.5},
    ])
    def test_indices_must_be_non_negative_whole_numbers(self, spec):
        with pytest.raises(ConfigError, match="must be a non-negative whole number"):
            rule_from_spec(spec)

    def test_whole_float_indices_accepted(self, abc):
        rule = rule_from_spec({"kind": "duple", "a": 2.0, "b": 0})
        assert np.array_equal(rule.evaluate(*alone(abc)), [1, 0, 0])

    @pytest.mark.parametrize("spec, field", [
        ({"kind": "duple", "a": 0, "b": 3}, "duple b=3"),
        ({"kind": "duple", "a": 4, "b": 0}, "duple a=4"),
        ({"kind": "unilateral", "position": 3}, "position=3"),
    ])
    def test_index_past_the_round_names_its_field(self, abc, spec, field):
        rule = rule_from_spec(spec)
        with pytest.raises(ConfigError, match=field):
            rule.evaluate(*alone(abc))
        with pytest.raises(ConfigError, match=field):
            outcome_table(rule, 3, np.array([0, 5]))
        # the same rule serves a round with more alternatives
        assert rule.unanimous_outcomes(np.array([[4, 3, 2, 1, 0], [0, 1, 2, 3, 4]])).shape == (2, 5)
