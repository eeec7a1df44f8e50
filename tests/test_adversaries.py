import math

import numpy as np
import pytest

from voteweight import (
    TOL,
    CondorcetSplitSource,
    DeterministicCopeland,
    DeterministicPositional,
    IIDRandomSource,
    RandomizedCopeland,
    RandomizedPositional,
    WinnerPunishingSource,
    condorcet_winner,
    majority_prefix_partition,
    pairwise_statistic,
    profile_statistic,
    unanimity_witness,
)
from voteweight import adversaries, checks
from voteweight.errors import (
    DegenerateWeightsError,
    HypothesisViolatedError,
    NoWitnessError,
    ShapeError,
)
from voteweight.rules import ConstantUniform

from conftest import alone, orders_of, voter_losses, voter_rankings


class TestWinnerPunishingRound:
    def setup_method(self):
        self.rule = DeterministicPositional("plurality")
        self.witness = unanimity_witness(self.rule, 3)
        self.source = WinnerPunishingSource(self.rule, 3)

    def test_majority_weight_picks_second_ranking(self):
        groups, losses, _ = self.source.emit([1, 1, 1])
        assert voter_rankings(self.source, groups).tolist() == [[0, 1, 2], [1, 0, 2], [1, 0, 2]]
        # 2/3 of the weight puts b on top, so b wins and is punished
        assert np.array_equal(losses, [0, 1, 0])

    def test_dominant_first_voter(self):
        _, losses, _ = self.source.emit([10, 1, 1])
        assert np.array_equal(losses, [1, 0, 0])

    def test_scheme_loss_is_one_and_some_voter_escapes(self, rng):
        for _ in range(20):
            w = rng.random(4) + 1e-3
            groups, losses, emitted = self.source.emit(w)
            rankings = voter_rankings(self.source, groups)
            outcome = self.rule.evaluate(orders_of(rankings), w)
            assert np.array_equal(emitted, outcome)
            assert outcome @ losses == 1.0
            voter = voter_losses(self.rule, rankings, losses)
            assert voter.sum() <= len(w) - 1

    def test_randomized_rule_rejected(self):
        with pytest.raises(NoWitnessError):
            WinnerPunishingSource(ConstantUniform(), 3)
        # randomized Borda has a witness pair, but it is rejected all the same
        with pytest.raises(NoWitnessError, match="deterministic"):
            WinnerPunishingSource(RandomizedPositional("borda"), 3)

    def test_groups_are_voter_zero_against_the_rest(self, rng):
        for n in (1, 2, 30):
            groups, _, _ = self.source.emit(rng.random(n) + 1e-3)
            assert groups.dtype == np.int64
            assert groups.tolist() == [0] + [1] * (n - 1)
        assert np.array_equal(self.source.orders, self.witness)

    def test_no_voters_are_degenerate_weights(self):
        with pytest.raises(DegenerateWeightsError, match="total weight"):
            self.source.emit([])


class TestMajorityPrefixPartition:
    def test_single_heavy_voter(self):
        assert majority_prefix_partition([5, 1, 1, 1]).tolist() == [0]

    def test_uniform_needs_strict_majority(self):
        # 4/8 is not strictly more than half, so five voters are needed
        assert majority_prefix_partition(np.ones(8)).tolist() == [0, 1, 2, 3, 4]

    def test_prefix_sums(self):
        assert majority_prefix_partition([0.3, 0.3, 0.2, 0.2]).tolist() == [0, 1]

    def test_prefix_bound_fuzz(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 25))
            w = rng.random(n) * 10
            heavy = majority_prefix_partition(w)
            weight = np.cumsum(w[heavy])[-1]  # summed in the partition's sorted order
            assert weight >= len(heavy) * w.sum() / n - TOL
            assert weight > w.sum() / 2
            # removing the lightest member of the prefix drops it to <= half
            assert weight - w[heavy].min() <= w.sum() / 2 + TOL

    @pytest.mark.parametrize("w", [np.full(11, 1e12 / 3), np.full(3, 999999999999.9973),
                                   np.full(1001, 123456789012.345)],
                             ids=["eleven_thirds_of_1e12", "three_near_1e12", "wide_1e11"])
    def test_large_weights_split_like_their_normalization(self, w):
        # the share bound scales with the total, so rescaling the weights keeps the block
        block = majority_prefix_partition(w).tolist()
        assert block == majority_prefix_partition(w / w.sum()).tolist()
        if len(w) >= 11:
            source = CondorcetSplitSource(RandomizedCopeland(), 3)
            assert np.flatnonzero(source.emit(w)[0] == 0).tolist() == sorted(block)

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateWeightsError):
            majority_prefix_partition([0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_weight_rejected(self, bad):
        with pytest.raises(DegenerateWeightsError):
            majority_prefix_partition([bad, 1.0, 1.0])

    def test_prefix_bound_check_reports_violation(self, monkeypatch):
        def violated(weights):
            raise HypothesisViolatedError("prefix of 1 voters carries 0.1, under its share")

        monkeypatch.setattr(checks, "majority_prefix_partition", violated)
        result = checks.check_prefix_bound(seed=0, profiles=5)
        assert not result.passed
        assert "under its share" in result.detail

    def test_block_is_decided_by_the_rounds_mass(self):
        # The sorted prefix 0.7 + 0.3 + 0.3 = 1.3 clears half the total, 2.5999999999999996,
        # but in voter order the same weights add to 1.2999999999999998, a mass of exactly 1/2.
        w = [0.1, 0.1, 0.3, 0.1, 0.2, 0.3, 0.2, 0.1, 0.2, 0.7, 0.3]
        assert majority_prefix_partition(w).tolist() == [9, 2, 5, 10]
        groups, losses, outcome = CondorcetSplitSource(RandomizedCopeland(), 3).emit(w)
        assert np.flatnonzero(groups == 0).tolist() == [2, 5, 9, 10]
        assert outcome @ losses == pytest.approx(2 / 3, abs=TOL)

    def test_matches_sorted_loop(self, rng):
        def reference(w):
            """The partition as a plain loop over the voters sorted by weight, stopping
            once the prefix exceeds half and its mass in voter order exceeds 1/2."""
            total = float(w.sum())
            heavy, acc = [], 0.0
            for i in sorted(range(len(w)), key=lambda i: (-w[i], i)):
                heavy.append(i)
                acc += w[i]
                if acc > total / 2:
                    mass = 0.0
                    for k in sorted(heavy):
                        mass += w[k]
                    if mass / total > 0.5:
                        break
            return tuple(heavy), acc

        for trial in range(300):
            n = int(rng.integers(1, 2001)) if trial % 10 == 0 else int(rng.integers(1, 60))
            w = rng.integers(0, 4, size=n) * rng.choice([1.0, 0.1, 1 / 3])  # ties and zeros
            if trial % 3 == 0:
                w = rng.random(n)
            if trial % 5 == 0:
                w[rng.integers(n)] = n  # one dominant voter
            if w.sum() == 0:
                w[0] = 1.0
            block = majority_prefix_partition(w)
            heavy, acc = reference(w)
            assert tuple(block.tolist()) == heavy
            assert np.cumsum(w[block])[-1] == acc


def assert_blocks_match_orders(source):
    """The source's statistic and outcomes are those of its orders, row for row."""
    rule, orders = source.rule, source.orders
    stat = np.concatenate((pairwise_statistic(orders), rule.statistic(orders)), axis=1)
    assert source._stat.tobytes() == stat.tobytes()
    assert source.unanimous.tobytes() == rule.unanimous_outcomes(orders).tobytes()


class TestOrientGapPair:
    def test_randomized_copeland_keeps_ascending_pair(self):
        source = CondorcetSplitSource(RandomizedCopeland(), 3)
        assert (source.a, source.b) == (0, 1)
        assert type(source.a) is int and type(source.b) is int
        assert source.orders.tolist() == [[0, 1, 2], [1, 0, 2]]

    def test_remaining_alternatives_fill_ascending(self):
        source = CondorcetSplitSource(RandomizedCopeland(), 4)
        assert source.orders.tolist() == [[0, 1, 2, 3], [1, 0, 2, 3]]

    def test_biased_rule_flips_orientation(self):
        # a rule whose outcome for a ranking alone always favors alternative 1
        class Favors1(ConstantUniform):
            def decide(self, stat, m):
                out = np.full(stat.shape[:-1] + (m,), 0.1)
                out[..., 1] += 1 - out.sum(axis=-1)
                return out

        source = CondorcetSplitSource(Favors1(), 3, delta=0.5)
        a, b = source.a, source.b
        top_ab, top_ba = source.orders
        d_ba = Favors1().evaluate(*alone(top_ba))
        d_ab = Favors1().evaluate(*alone(top_ab))
        assert d_ba[b] - d_ba[a] >= d_ab[a] - d_ab[b]
        assert_blocks_match_orders(source)

    class LeansTo0(RandomizedPositional):
        """Half plurality, half alternative 0: 0 over 1 alone gives 0 a margin of 1,
        1 over 0 alone gives 1 a margin of 0."""

        def decide(self, stat, m):
            return (super().decide(stat, m) + np.eye(m)[0]) / 2

    # Veto picks 0 from either order alone: its margin is -1 when 1 over 0 carries all
    # the weight and +1 when 0 over 1 does. Both rules flip the pair to (1, 0); the
    # second's statistics and outcomes differ between the blocks, so they must move too.
    @pytest.mark.parametrize("rule", [DeterministicPositional("veto"), LeansTo0("plurality")],
                             ids=["veto", "leans_to_0"])
    def test_flipping_rule_swaps_the_blocks(self, rule):
        source = CondorcetSplitSource(rule, 3, delta=0.5)
        assert (source.a, source.b) == (1, 0)
        assert type(source.a) is int and type(source.b) is int
        assert source.orders.tolist() == [[1, 0, 2], [0, 1, 2]]
        assert source.losses.tolist() == [0.0, 1.0, 0.5]
        assert_blocks_match_orders(source)


class TestCondorcetSplitRound:
    def setup_method(self):
        self.rule = RandomizedCopeland()
        self.delta = 1 / 3
        self.source = CondorcetSplitSource(self.rule, 3, self.delta)
        self.blocks = np.array([[0, 1, 2], [1, 0, 2]])

    def test_uniform_eleven_voters(self):
        groups, losses, _ = self.source.emit(np.ones(11))
        n_heavy = (voter_rankings(self.source, groups) == self.blocks[0]).all(axis=1).sum()
        assert n_heavy == 6
        assert np.array_equal(losses, [1.0, 0.0, 0.5])

    def test_scheme_loss_and_average_gap(self):
        w = np.ones(11)
        groups, losses, emitted = self.source.emit(w)
        rankings = voter_rankings(self.source, groups)
        outcome = self.rule.evaluate(orders_of(rankings), w)
        assert np.array_equal(emitted, outcome)
        scheme_loss = outcome @ losses
        assert scheme_loss == pytest.approx(2 / 3, abs=TOL)
        avg = voter_losses(self.rule, rankings, losses).mean()
        assert avg == pytest.approx(0.5 + 1 / 66, abs=TOL)
        assert scheme_loss - avg == pytest.approx(5 / 33, abs=TOL)
        assert scheme_loss - avg >= self.delta / 6 - TOL

    def test_condorcet_winner_holds_for_random_weights(self, rng):
        for _ in range(50):
            w = rng.random(11) + 1e-3
            groups, _, _ = self.source.emit(w)
            profile = orders_of(voter_rankings(self.source, groups)), w
            assert condorcet_winner(profile_statistic(pairwise_statistic, *profile)) == self.source.a

    def test_per_round_gap_for_random_weights(self, rng):
        for _ in range(50):
            w = rng.random(11) + 1e-3
            groups, losses, _ = self.source.emit(w)
            rankings = voter_rankings(self.source, groups)
            scheme_loss = self.rule.evaluate(orders_of(rankings), w) @ losses
            avg = voter_losses(self.rule, rankings, losses).mean()
            assert scheme_loss - avg >= self.delta / 6 - TOL

    def test_too_few_voters_rejected(self):
        with pytest.raises(HypothesisViolatedError):
            self.source.emit(np.ones(5))

    @pytest.mark.parametrize("weights, block, message", [
        (np.ones(11), 5, "0 is not the Condorcet winner of the split"),
        # mass 10/11 >= 1/2 + delta/3, so at most 3/(2 delta) + 1 = 5.5 voters
        (np.ones(11), 10, "heavy block of 10 voters breaks its size bound"),
        # mass 7/13 < 1/2 + delta/3, so fewer than 11 (1/2 + delta/3) = 6.7 voters
        (np.array([1.0] * 7 + [1.5] * 4), 7, "heavy block of 7 voters breaks its size bound"),
    ], ids=["minority_block", "heavy_block_too_large", "light_block_too_large"])
    def test_a_block_off_the_construction_is_refused(self, monkeypatch, weights, block,
                                                      message):
        monkeypatch.setattr(adversaries, "majority_prefix_partition",
                            lambda w: np.arange(block))
        with pytest.raises(HypothesisViolatedError, match=message):
            self.source.emit(weights)

    def test_groups_are_the_heavy_block(self, rng):
        for n in (11, 1001):
            w = rng.random(n) + 1e-3
            groups, _, _ = self.source.emit(w)
            heavy = np.sort(majority_prefix_partition(w))
            assert groups.dtype == np.int64
            assert np.array_equal(np.flatnonzero(groups == 0), heavy)
            assert np.all(groups[groups != 0] == 1)
        assert np.array_equal(self.source.orders, self.blocks)


class TestPerGroupOutcomes:
    """The engine takes a drawn voter's outcome from its group's row of
    ``source.unanimous``. ``constant`` plays voter 0's basis vector, so that
    row must equal the round's ``outcome`` under it, which the source built
    the round against (``thm3`` puts loss 1 on its winner)."""

    @pytest.mark.parametrize("source, n", [
        (WinnerPunishingSource(DeterministicPositional("plurality"), 3), 5),
        (WinnerPunishingSource(DeterministicCopeland(), 4), 5),
        (CondorcetSplitSource(RandomizedCopeland(), 3), 11),
        (CondorcetSplitSource(RandomizedCopeland(), 4), 21),
        (CondorcetSplitSource(DeterministicCopeland(), 3), 11),
    ], ids=["thm3_plurality", "thm3_copeland_m4", "thm5_randomized_copeland",
            "thm5_randomized_copeland_m4", "thm5_deterministic_copeland"])
    def test_unanimous_is_each_sampled_voters_outcome(self, source, n):
        assert np.array_equal(source.unanimous, source.rule.unanimous_outcomes(source.orders))
        for i in range(n):
            groups, _, outcome = source.emit(np.eye(n)[i])
            assert outcome.tobytes() == source.unanimous[groups[i]].tobytes(), i


class TestIIDRandomRound:
    """The i.i.d. rounds `simulate` draws, from `IIDRandomSource.rounds`."""

    def test_one_source_serves_every_n(self, rng):
        source = IIDRandomSource(2)  # n comes with each request
        for n in (4, 1):
            ms, codes, losses = source.rounds(5, n, rng)
            assert ms.tolist() == [2] * 5
            assert codes.shape == (5, n) and set(codes.ravel().tolist()) <= {0, 1}
            assert losses.shape == (5, 2)
            assert np.all((losses >= 0) & (losses < 1))

    def test_single_alternative(self):
        with pytest.raises(ShapeError):
            IIDRandomSource(1)

    def test_deterministic_replay(self):
        _, codes_a, losses_a = IIDRandomSource(3).rounds(20, 5, np.random.default_rng(7))
        _, codes_b, losses_b = IIDRandomSource(3).rounds(20, 5, np.random.default_rng(7))
        assert np.array_equal(codes_a, codes_b)
        assert np.array_equal(losses_a, losses_b)

    def test_ranking_uniformity(self):
        draws = 10**4
        _, codes, _ = IIDRandomSource(2).rounds(draws, 1, np.random.default_rng(0))
        hits = np.count_nonzero(codes[:, 0] == 0)
        assert abs(hits / draws - 0.5) <= 3 * math.sqrt(0.25 / draws)


SOURCES_BY_M = {
    "thm3": lambda m: WinnerPunishingSource(DeterministicPositional("plurality"), m),
    "thm5_copeland": lambda m: CondorcetSplitSource(RandomizedCopeland(), m),
    "thm5_plurality": lambda m: CondorcetSplitSource(DeterministicPositional("plurality"), m),
    "iid_random": IIDRandomSource,
}


class TestAlternativeCount:
    """Every source checks its m first, as the rounds it builds need 2..MAX_M of them."""

    @pytest.mark.parametrize("m, message", [
        (0, "need 2 <= m <= 20 alternatives, got 0"),
        (1, "need 2 <= m <= 20 alternatives, got 1"),
        (21, "need 2 <= m <= 20 alternatives, got 21"),
        (2.5, "the number of alternatives must be an integer, got 2.5"),
        (True, "the number of alternatives must be an integer, got True"),
    ])
    @pytest.mark.parametrize("name", list(SOURCES_BY_M))
    def test_count_refused_at_construction(self, name, m, message):
        with pytest.raises(ShapeError, match=rf"^{message}$"):
            SOURCES_BY_M[name](m)

    @pytest.mark.parametrize("name", list(SOURCES_BY_M))
    def test_numpy_integer_accepted(self, name):
        source = SOURCES_BY_M[name](np.int64(3))
        assert source.m == 3 and type(source.m) is int
