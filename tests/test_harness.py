import bisect
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voteweight import (
    TOL,
    CondorcetSplitSource,
    ConstantUniform,
    DeterministicPositional,
    FileSource,
    IIDRandomSource,
    Mixture,
    RandomizedCopeland,
    RandomizedPositional,
    SchemeConfig,
    Unilateral,
    WinnerPunishingSource,
    best_voter,
    monte_carlo_regret,
    position_selector,
    regret,
    run_episode,
    unanimity_witness,
)
from voteweight.core import all_rankings, rank_codes
from voteweight.errors import ConfigError, NoWitnessError
from voteweight.harness import _index_rounds, _play_sequential, _trace
from voteweight.schemes import SCHEME_KINDS

from conftest import alone, file_source, orders_of, random_rankings, voter_rankings


def episode(kind="full_info", rule=None, source=None, n=4, m=3, T=50, seed=0, eta=None):
    rule = rule or RandomizedPositional("borda")
    source = source or IIDRandomSource(m)
    scheme = SchemeConfig(kind, n=n, horizon=T, eta=eta)
    return run_episode(scheme, rule, source, seed=seed)


class TestRunEpisode:
    def test_constant_scheme_constant_rule_has_zero_regret(self):
        trace = episode("constant", rule=ConstantUniform(), T=100)
        for scheme_loss, per_voter in zip(trace.scheme_loss, trace.per_voter_loss):
            assert all(scheme_loss == loss for loss in per_voter)
        assert regret(trace) == 0.0

    def test_first_round_weights_are_uniform(self):
        scheme = SchemeConfig("deterministic_unilateral", n=5, horizon=1)
        trace = run_episode(scheme, RandomizedPositional("borda"), IIDRandomSource(3))
        assert np.allclose(trace.probs[0], 0.2, atol=TOL)

    def test_winner_punishing_gives_loss_one_every_round(self):
        rule = DeterministicPositional("plurality")
        trace = episode("constant", rule=rule, source=WinnerPunishingSource(rule, 3), T=80)
        assert all(loss == 1.0 for loss in trace.scheme_loss)

    def test_winner_punishing_needs_non_constant_rule(self):
        class FirstAlternative(ConstantUniform):
            deterministic = True

            def decide(self, stat, m):
                return np.eye(m)[np.zeros(stat.shape[:-1], dtype=int)]

        with pytest.raises(NoWitnessError, match="constant"):
            WinnerPunishingSource(FirstAlternative(), 3)

    def test_deterministic_winner_punishing_evaluates_once_per_round(self):
        # the source's outcome is the scheme's: the engine never decides a
        # weighted statistic of its own (2-d statistics are table builds)
        rule, T = DeterministicPositional("plurality"), 50
        source = WinnerPunishingSource(rule, 3)
        calls, decide = [], rule.decide
        rule.decide = lambda stat, m: calls.append(stat.ndim) or decide(stat, m)
        episode("deterministic_unilateral", rule=rule, source=source, T=T)
        assert calls.count(1) == T

    @pytest.mark.parametrize("delta", [0.0, -0.1, 1.5, math.nan, math.inf, "0.5", True])
    def test_condorcet_split_needs_a_gap_in_unit_interval(self, delta):
        with pytest.raises(ConfigError, match="delta"):
            CondorcetSplitSource(RandomizedCopeland(), 3, delta)

    def test_condorcet_split_needs_delta_for_a_rule_without_a_built_in_gap(self):
        with pytest.raises(ConfigError, match="no built-in gap for this rule; supply delta"):
            CondorcetSplitSource(RandomizedPositional("borda"), 3)

    def test_non_decomposing_rule_with_deterministic_weights_is_silent(self, recwarn):
        # the caveat is a fact of the config, printed by `simulate`, not by each episode
        episode("deterministic_unilateral", rule=RandomizedCopeland(),
                source=IIDRandomSource(3), T=3)
        assert not recwarn.list

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    def test_adaptive_source_plays_only_the_rule_it_was_built_with(self, kind):
        # its unanimous table is its own rule's; an equal rule is still another object
        cases = [(CondorcetSplitSource(RandomizedCopeland(), 3), 11,
                  [RandomizedPositional("borda"), RandomizedCopeland()]),
                 (WinnerPunishingSource(DeterministicPositional("plurality"), 3), 4,
                  [DeterministicPositional("plurality"), RandomizedCopeland()])]
        for source, n, rules in cases:
            source.emit = lambda weights: pytest.fail("a round was played")
            for rule in rules:
                with pytest.raises(ConfigError, match="rule it was built with"):
                    run_episode(SchemeConfig(kind, n=n, horizon=50), rule, source)

    @pytest.mark.parametrize("adaptive", [False, True], ids=["file", "adaptive"])
    def test_rounds_of_another_voter_count_rejected(self, adaptive):
        rule = DeterministicPositional("plurality")
        if adaptive:  # every round one voter short of n=4
            source = WinnerPunishingSource(rule, 3)
            groups, losses, outcome = source.emit(np.ones(3))
            source.emit = lambda weights: (groups, losses, outcome)
            message = "round 1 has 3 voters, not 4"
        else:
            source = file_source([{"rankings": [[0, 1, 2], [2, 1, 0]], "losses": [0.1, 0.2, 0.3]}])
            message = "rounds have 2 rankings for n=4"
        with pytest.raises(ConfigError, match=message):
            episode(rule=rule, source=source, T=1)

    def test_replay_determinism(self):
        a = episode("partial_info", T=60, seed=42)
        b = episode("partial_info", T=60, seed=42)
        _, codes_a, losses_a = IIDRandomSource(3).rounds(60, 4, np.random.default_rng(42))
        _, codes_b, losses_b = IIDRandomSource(3).rounds(60, 4, np.random.default_rng(42))
        assert np.array_equal(codes_a, codes_b)
        assert np.array_equal(losses_a, losses_b)
        assert np.array_equal(a.per_voter_loss, b.per_voter_loss)
        assert np.array_equal(a.winner, b.winner)
        assert np.array_equal(a.scheme_loss, b.scheme_loss)


class TestSourceArrays:
    """One source instance serves every trial, so what it hands out is read-only,
    and the engine refuses rounds a third-party source got wrong."""

    def test_shared_arrays_refuse_writes(self):
        file = file_source([{"rankings": [[0, 1, 2], [2, 1, 0]], "losses": [0.1, 0.2, 0.3]}] * 3)
        thm3 = WinnerPunishingSource(DeterministicPositional("plurality"), 3)
        thm5 = CondorcetSplitSource(RandomizedCopeland(), 3)
        shared = [*file.recorded, *file.rounds(2, 2, np.random.default_rng(0)), thm5.losses]
        for source in (thm3, thm5):
            shared += [source.orders, source._stat, source.unanimous]
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 1

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    @pytest.mark.parametrize("shift", [lambda g: -g, lambda g: g + 1],
                             ids=["negative", "past_the_table"])
    def test_adaptive_groups_outside_the_table_rejected(self, kind, shift):
        class Shifted(WinnerPunishingSource):
            def emit(self, weights):
                groups, losses, outcome = super().emit(weights)
                return shift(groups), losses, outcome

        rule = DeterministicPositional("plurality")
        with pytest.raises(ConfigError, match=r"round 1 has groups outside 0\.\.1"):
            episode(kind, rule=rule, source=Shifted(rule, 3), T=20)

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    def test_adaptive_losses_outside_unit_interval_rejected(self, kind):
        class Tripled(WinnerPunishingSource):  # from round 3 on
            played = 0

            def emit(self, weights):
                groups, losses, outcome = super().emit(weights)
                self.played += 1
                return groups, 3 * losses if self.played >= 3 else losses, outcome

        rule = DeterministicPositional("plurality")
        with pytest.raises(ConfigError, match=r"round 3 has a loss outside \[0, 1\]"):
            episode(kind, rule=rule, source=Tripled(rule, 3), T=20)

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    @pytest.mark.parametrize("bad", [-0.25, 1.5, math.nan])
    def test_oblivious_losses_outside_unit_interval_rejected(self, kind, bad):
        class Edited(IIDRandomSource):  # one loss of round 5
            def rounds(self, T, n, rng):
                ms, codes, losses = super().rounds(T, n, rng)
                losses[4, 1] = bad
                return ms, codes, losses

        with pytest.raises(ConfigError, match=r"round 5 has a loss outside \[0, 1\]"):
            episode(kind, source=Edited(3), T=20)


class TestBestVoter:
    def test_single_voter(self):
        trace = episode(n=1, T=20)
        idx, loss = best_voter(trace)
        assert idx == 0
        assert loss == pytest.approx(trace.per_voter_loss[:, 0].sum(), abs=TOL)

    def test_zero_losses_tie_goes_to_first(self):
        lines = [
            {"rankings": [[0, 1], [1, 0]], "losses": [0.0, 0.0]} for _ in range(5)
        ]
        source = file_source(lines)
        trace = episode(n=2, T=5, source=source)
        assert best_voter(trace) == (0, 0.0)

    def test_thm3_best_voter_bound(self):
        rule = DeterministicPositional("plurality")
        n, T = 4, 100
        trace = episode("constant", rule=rule, n=n, T=T,
                        source=WinnerPunishingSource(rule, 3))
        _, best = best_voter(trace)
        assert best <= (n - 1) * T / n
        assert regret(trace) >= T / n

    def test_benchmark_ordering(self):
        trace = episode(T=60)
        totals = trace.per_voter_loss.sum(axis=0)
        _, best = best_voter(trace)
        assert best <= totals.mean() + TOL <= totals.max() + TOL


class TestRegret:
    def test_condorcet_split_lower_bound(self):
        n, m, T = 11, 3, 100
        rule = RandomizedCopeland()
        delta = 2 / (m * (m - 1))
        trace = episode("deterministic_unilateral", rule=rule, n=n, T=T,
                        source=CondorcetSplitSource(rule, m))
        for scheme_loss, per_voter in zip(trace.scheme_loss, trace.per_voter_loss):
            gap = scheme_loss - per_voter.mean()
            assert gap >= delta / 6 - TOL
        assert regret(trace) >= T * delta / 6 - TOL


class TestMonteCarlo:
    def test_single_trial(self):
        mean, stderr = monte_carlo_regret(lambda s: episode(T=20, seed=s), 1, 7)
        assert stderr == 0.0
        assert mean == pytest.approx(regret(episode(T=20, seed=7)), abs=TOL)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(ConfigError, match="need at least one trial"):
            monte_carlo_regret(lambda s: pytest.fail("an episode was run"), trials)

    def test_deterministic_setup_has_zero_variance(self):
        rule = DeterministicPositional("plurality")

        def run(seed):
            return episode("constant", rule=rule, n=4, T=30,
                           source=WinnerPunishingSource(rule, 3), seed=seed)

        mean, stderr = monte_carlo_regret(run, 5, 0)
        assert stderr == 0.0
        assert mean >= 30 / 4


def random_lines(n, m, T, rng):
    """T file rounds of n uniform rankings over m alternatives and uniform losses."""
    return [{"rankings": random_rankings(n, m, rng).tolist(),
             "losses": rng.random(m).tolist()} for _ in range(T)]


@st.composite
def file_rounds(draw):
    n = draw(st.integers(1, 5))
    lines = []
    for _ in range(draw(st.integers(1, 30))):
        m = draw(st.integers(2, 5))
        rankings = [list(draw(st.permutations(range(m)))) for _ in range(n)]
        losses = draw(st.lists(st.floats(0, 1), min_size=m, max_size=m))
        lines.append({"rankings": rankings, "losses": losses})
    return n, lines


class TestOracle:
    """The scheme's expected round loss against the voter distribution it played."""

    def test_point_mass_matches_single_voter(self, rng):
        rule = RandomizedPositional("borda")
        lines = random_lines(4, 3, 10, rng)
        trace = episode("constant", rule=rule, source=file_source(lines), n=4, T=10)
        for t, line in enumerate(lines):
            single = rule.evaluate(line["rankings"][:1], [1.0])
            assert trace.scheme_loss[t] == pytest.approx(single @ line["losses"], abs=TOL)

    def test_decomposing_rule_matches_mixed_profile(self, rng):
        rule = RandomizedPositional("plurality")
        lines = random_lines(5, 3, 20, rng)
        trace = episode("deterministic_unilateral", rule=rule, source=file_source(lines),
                        n=5, T=20)
        for t, line in enumerate(lines):
            mixed = rule.evaluate(line["rankings"], trace.probs[t]) @ line["losses"]
            sampled = trace.probs[t] @ trace.per_voter_loss[t]
            assert trace.scheme_loss[t] == pytest.approx(sampled, abs=TOL)
            assert mixed == pytest.approx(sampled, abs=TOL)

    def test_condorcet_split_breaks_decomposition(self):
        # on a split round, mixing the profile costs strictly more than
        # averaging over voters: the non-decomposability witness
        rule = RandomizedCopeland()
        trace = episode("deterministic_unilateral", rule=rule, n=11, T=1,
                        source=CondorcetSplitSource(rule, 3))
        assert np.array_equal(trace.probs[0], np.full(11, 1 / 11))
        assert trace.scheme_loss[0] > trace.probs[0] @ trace.per_voter_loss[0] + 0.05


class DecomposingPunisher(WinnerPunishingSource):
    """Winner punishment played by a decomposing rule, which no shipped
    adaptive source accepts: voter 0 ranks 0 1 2, the rest 2 1 0, and the
    weighted outcome's likeliest alternative gets loss 1."""

    def __init__(self, rule, m):
        self.rule, self.m, self.orders = rule, m, np.array([[0, 1, 2], [2, 1, 0]])
        self._stat = rule.statistic(self.orders)
        self.unanimous = rule.decide(self._stat, m)


DECOMPOSING_RULES = {
    "plurality": RandomizedPositional("plurality"),
    "veto": RandomizedPositional("veto"),
    "borda": RandomizedPositional("borda"),
    "unilateral": Unilateral(position_selector(0)),
    "constant_uniform": ConstantUniform(),
    "mixture": Mixture([(RandomizedPositional("plurality"), 0.5),
                        (Unilateral(position_selector(2)), 0.3), (ConstantUniform(), 0.2)]),
}


class TestDeterministicMatchesSampledMarginal:
    @pytest.mark.parametrize("source_kind", ["iid_random", "file", "adaptive"])
    @pytest.mark.parametrize("name", list(DECOMPOSING_RULES))
    def test_same_state_same_expected_loss(self, name, source_kind):
        # with identical cumulative losses, playing the voter distribution as
        # weights is the full-information scheme's voter-then-winner draw, and
        # costs exactly the sampled schemes' marginal
        rule, n, T = DECOMPOSING_RULES[name], 5, 40
        assert rule.decomposes
        for seed in (0, 7):
            rng = np.random.default_rng(100 + seed)
            source = {"iid_random": lambda: IIDRandomSource(3),
                      "file": lambda: file_source(random_lines(n, 3, T, rng)),
                      "adaptive": lambda: DecomposingPunisher(rule, 3)}[source_kind]()
            sampled = episode("full_info", rule, source, n=n, T=T, seed=seed)
            deterministic = episode("deterministic_unilateral", rule, source, n=n, T=T, seed=seed)
            for column in ("probs", "per_voter_loss", "winner", "winner_loss"):
                assert np.array_equal(getattr(deterministic, column), getattr(sampled, column))
            assert np.all(deterministic.chosen == -1)
            marginal = np.einsum("tn,tn->t", deterministic.probs, deterministic.per_voter_loss)
            assert deterministic.scheme_loss.tobytes() == marginal.tobytes()


class TestEpisodeCrossCheck:
    def test_sampled_winner_losses_match_expected(self):
        T = 10**4
        trace = episode("full_info", n=6, m=3, T=T, seed=3)
        diff = trace.winner_loss - trace.scheme_loss
        stderr = diff.std(ddof=1) / math.sqrt(T)
        assert abs(diff.mean()) <= 3 * stderr


class TestFileSource:
    def test_round_trip(self):
        source = file_source(
            [
                {"rankings": [[0, 1, 2], [2, 1, 0]], "losses": [0.1, 0.2, 0.3]},
                {"rankings": [[1, 0], [0, 1]], "losses": [1.0, 0.0]},
            ]
        )
        ms, _, _ = source.rounds(2, 2, np.random.default_rng(0))
        assert ms[0] == 3
        # the alternative count may change between rounds
        assert ms[1] == 2

    def test_varying_m_episode(self):
        lines = [
            {"rankings": [[0, 1, 2], [2, 1, 0]], "losses": [0.1, 0.2, 0.3]},
            {"rankings": [[1, 0], [0, 1]], "losses": [1.0, 0.0]},
        ] * 3
        trace = episode(n=2, T=6, source=file_source(lines))
        assert len(trace.scheme_loss) == 6

    @given(case=file_rounds())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_alternative_counts_encode_per_line(self, case):
        _, lines = case
        ms, codes, losses = file_source(lines).recorded
        assert ms.tolist() == [len(line["losses"]) for line in lines]
        assert codes.dtype == np.int64
        assert codes.tolist() == [rank_codes(line["rankings"]).tolist() for line in lines]
        assert losses.tolist() == [
            line["losses"] + [0.0] * (ms.max() - len(line["losses"])) for line in lines]

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            file_source([{"rankings": [[0, 0, 2]], "losses": [0, 0, 0]}])

    @pytest.mark.parametrize("rankings", [
        [[1.5, 0, 2], [0, 1, 2]],
        [[1.0, 0, 2], [0, 1, 2]],
        [[True, False, 2], [0, 1, 2]],
        [[0, 1, 2], [False, True, 2]],
        [["1", "0", "2"], [0, 1, 2]],
        [[10**30, 0, 2], [0, 1, 2]],
    ], ids=["float", "integral_float", "bool", "bool_in_second_voter", "string", "huge"])
    def test_non_integer_rank_ids_rejected(self, rankings):
        good = {"rankings": [[0, 1, 2], [2, 1, 0]], "losses": [0.1, 0.2, 0.3]}
        with pytest.raises(ConfigError, match=r"\.jsonl:2: bad round: rankings must permute"):
            file_source([good, {"rankings": rankings, "losses": [0.1, 0.2, 0.3]}])

    @pytest.mark.parametrize("swapped", [False, True], ids=["order_first", "json_first"])
    def test_first_bad_line_is_named(self, tmp_path, swapped):
        # orders are checked once per alternative count, after the whole file is read
        good = json.dumps({"rankings": [[0, 1, 2], [2, 1, 0]], "losses": [0.1, 0.2, 0.3]})
        bad_order = json.dumps({"rankings": [[0, 0, 2], [2, 1, 0]], "losses": [0.1, 0.2, 0.3]})
        broken = good[:-1]
        faults = [broken, bad_order] if swapped else [bad_order, broken]
        path = tmp_path / "rounds.jsonl"
        path.write_text("\n".join([good, *faults, good]) + "\n")
        message = "Expecting ',' delimiter" if swapped else "rankings must permute 0..2"
        with pytest.raises(ConfigError, match=rf"rounds\.jsonl:2: bad round: {message}"):
            FileSource(str(path))

    @given(case=file_rounds(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_first_of_several_bad_orders_is_named(self, case, data):
        n, lines = case
        bad = sorted(data.draw(st.sets(st.integers(0, len(lines) - 1), min_size=1)))
        for t in bad:  # a repeated id in one voter's order
            order = lines[t]["rankings"][data.draw(st.integers(0, n - 1))]
            order[0] = order[1]
        with pytest.raises(ConfigError, match=rf"\.jsonl:{bad[0] + 1}: bad round: rankings must"):
            file_source(lines)

    @pytest.mark.parametrize("rank_id", [128, 255, 256, -1])
    def test_ids_past_the_alternatives_rejected(self, rank_id):
        good = {"rankings": [[0, 1, 2], [2, 1, 0]], "losses": [0.1, 0.2, 0.3]}
        bad = {"rankings": [[0, 1, 2], [2, rank_id, 0]], "losses": [0.1, 0.2, 0.3]}
        with pytest.raises(ConfigError, match=r"\.jsonl:2: bad round: rankings must permute 0\.\."):
            file_source([good, bad])

    def test_ragged_rows_rejected(self):
        # six ids in all, n * m of them, but not three per voter
        bad = {"rankings": [[0, 1, 2, 3], [0, 1]], "losses": [0.1, 0.2, 0.3]}
        with pytest.raises(ConfigError, match=r"\.jsonl:1: bad round: rankings of shape"):
            file_source([bad])

    @pytest.mark.parametrize("rankings", [{"012": 0, "210": 1}, "012210"], ids=["dict", "string"])
    def test_rankings_not_a_list_of_rows_rejected(self, rankings):
        good = {"rankings": [[0, 1, 2], [2, 1, 0]], "losses": [0.1, 0.2, 0.3]}
        with pytest.raises(ConfigError, match=r"\.jsonl:2: bad round: rankings"):
            file_source([good, {"rankings": rankings, "losses": [0.1, 0.2, 0.3]}])

    def test_non_utf8_line_is_named(self, tmp_path):
        path = tmp_path / "rounds.jsonl"
        good = b'{"rankings": [[0, 1], [1, 0]], "losses": [0.5, 0.5]}\n'
        path.write_bytes(good + good.replace(b"}", b', "note": "\xff"}'))
        with pytest.raises(ConfigError, match=r"rounds\.jsonl:2: bad round: 'utf-8' codec"):
            FileSource(str(path))

    def test_nesting_past_the_recursion_limit_is_named(self, tmp_path):
        path = tmp_path / "rounds.jsonl"
        path.write_text('{"rankings": ' + "[" * 100000 + "]" * 100000 + ', "losses": [0.5, 0.5]}\n')
        with pytest.raises(ConfigError, match=r"rounds\.jsonl:1: bad round: maximum recursion"):
            FileSource(str(path))

    @pytest.mark.parametrize("path", [0, True, "", None, b"rounds.jsonl"],
                             ids=["int", "bool", "empty", "none", "bytes"])
    def test_path_that_is_not_a_non_empty_string_rejected(self, path):
        # open() would take 0 and True as file descriptors: stdin and stdout
        with pytest.raises(ConfigError, match="path must be a non-empty string"):
            FileSource(path)

    def test_true_outside_the_rankings_accepted(self):
        source = file_source([{"rankings": [[0, 1, 2], [2, 1, 0]], "losses": [0.1, 0.2, 0.3],
                               "note": "true", "flag": False}])
        _, codes, _ = source.recorded
        assert codes.tolist() == [[0, 5]]

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf, -0.1, 1.5])
    def test_out_of_range_losses_rejected(self, bad):
        good = {"rankings": [[0, 1], [1, 0]], "losses": [0.5, 0.5]}
        with pytest.raises(ConfigError, match=r"\.jsonl:2: bad round: losses must lie in \[0, 1\]"):
            file_source([good, {"rankings": [[0, 1], [1, 0]], "losses": [bad, 0.5]}])

    @pytest.mark.parametrize("bad", ["0.5", ["0.5", 0.5], [[0.5, 0.5]], 0.5, [True, 0.5],
                                     [10**400, 0.5]],
                             ids=["string", "string_entry", "nested", "bare_number", "bool",
                                  "long_integer"])
    def test_losses_not_a_list_of_numbers_in_range_rejected(self, bad):
        good = {"rankings": [[0, 1], [1, 0]], "losses": [0.5, 0.5]}
        with pytest.raises(ConfigError, match=r"\.jsonl:2: bad round: losses must"):
            file_source([good, {"rankings": [[0, 1], [1, 0]], "losses": bad}])

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank_lines"])
    def test_file_without_rounds_rejected(self, tmp_path, text):
        path = tmp_path / "rounds.jsonl"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"rounds\.jsonl: no rounds"):
            FileSource(str(path))

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        good = json.dumps({"rankings": [[0, 1, 2], [2, 1, 0]], "losses": [0.1, 0.2, 0.3]})
        path = tmp_path / "rounds.jsonl"
        path.write_text(f"\n{good}\n   \n{good[:-1]}\n")
        with pytest.raises(ConfigError, match=r"rounds\.jsonl:4: bad round"):
            FileSource(str(path))

    def test_too_short_rejected(self):
        source = file_source([{"rankings": [[0, 1]], "losses": [0.5, 0.5]}])
        with pytest.raises(ConfigError):
            episode(n=1, T=2, source=source)


def scalar_replay(scheme, rule, trace, round_at, u):
    """Plain per-round semantics of every scheme kind, redrawing the trace's
    voter and winner from the episode's (T, 2) uniforms ``u``: column 0 draws
    the voter, column 1 the winner. Under deterministic weights a decomposing
    rule's winner comes from the outcome of the voter column 0 draws, and any
    other rule's from the weighted profile's. round_at(t, weights) returns
    round t's rankings and losses given the distribution the trace played,
    never the voter drawn from it."""
    n, eta = scheme.n, scheme.learning_rate
    cumulative = [0.0] * n
    for t in range(len(trace.scheme_loss)):
        if scheme.kind == "constant":
            p = [1.0] + [0.0] * (n - 1)
        else:
            w = [math.exp(-eta * (x - min(cumulative))) for x in cumulative]
            p = [x / math.fsum(w) for x in w]
        assert np.max(np.abs(trace.probs[t] - p)) <= TOL
        c, win = int(trace.chosen[t]), int(trace.winner[t])
        rankings, ell = round_at(t, trace.probs[t])
        alone_loss = {}  # each distinct ranking's loss with all the weight, once a round
        for r in map(tuple, rankings):
            if r not in alone_loss:
                acc = 0.0
                for q, loss in zip(rule.evaluate(*alone(r)).tolist(), ell):
                    acc += q * loss
                alone_loss[r] = acc
        per_voter = [alone_loss[r] for r in map(tuple, rankings)]
        assert trace.per_voter_loss[t].tolist() == per_voter
        if scheme.kind == "deterministic_unilateral":
            assert c == -1
            # the played weights: a rule with ties is discontinuous in them
            outcome = drawn_from = rule.evaluate(orders_of(rankings), trace.probs[t])
            if rule.decomposes:  # its mixture passes through one voter's outcome
                drawn_from = rule.evaluate(*alone(rankings[_list_draw(p, u[t, 0])]))
        else:
            assert c == _list_draw(p, u[t, 0]) and p[c] > 0
            outcome = drawn_from = rule.evaluate(*alone(rankings[c]))
        assert abs(trace.scheme_loss[t] - float(outcome @ ell)) <= TOL
        assert win == _list_draw(drawn_from, u[t, 1]) and trace.winner_loss[t] == ell[win]
        if scheme.kind == "partial_info":
            cumulative[c] += ell[win] / p[c]
        elif scheme.kind != "constant":
            cumulative = [a + b for a, b in zip(cumulative, per_voter)]


def _list_draw(weights, u):
    """An inverse-CDF draw as a bisection of the whole normalized CDF list."""
    cdf = list(itertools.accumulate(weights))
    return bisect.bisect_right([x / cdf[-1] for x in cdf], u)


def recomputed_exp3(scheme, rule, rounds, u, pick=None):
    """EXP3 that re-derives the whole softmax and both CDFs every round. The
    voter is drawn in weight space, u * total's place among the running sums
    of w, and redrawn from the normalized row if its probability is 0; the
    winner by `_list_draw`. The total is added in voter order on every
    Python version. Given ``pick``, round t's voter uniform ``u[t, 0]`` is
    overwritten with ``pick(t, p)`` for the round's played p."""
    T, n, eta = len(u), scheme.n, scheme.learning_rate
    (idx, U, _, L), losses = _index_rounds(rule, *rounds, n), rounds[2]
    probs = np.zeros((T, n))
    chosen, winner = [], []
    outcomes = U.tolist()
    cumulative = [0.0] * n
    for t in range(T):
        z = [x * -eta for x in cumulative]
        top = max(z)
        w = [math.exp(x - top) for x in z]
        cdf = list(itertools.accumulate(w))
        total = cdf[-1]  # builtin sum compensates from 3.12
        probs[t] = p = [x / total for x in w]
        if pick is not None:
            u[t, 0] = pick(t, p)
        u_voter, u_winner = u[t].tolist()
        c = bisect.bisect_right(cdf, u_voter * total)
        if p[c] == 0:
            c = _list_draw(p, u_voter)
        chosen.append(c)
        winner.append(_list_draw(outcomes[idx[t, c]], u_winner))
        cumulative[c] += float(losses[t, winner[-1]]) / p[c]
    rows = np.arange(T)
    chosen, winner = np.array(chosen), np.array(winner)
    return L, probs, chosen, winner, L[rows, chosen], losses[rows, winner]


TRACE_COLUMNS = ("per_voter_loss", "probs", "chosen", "winner", "scheme_loss", "winner_loss")


class TestSequentialKernel:
    """The EXP3 engine keeps z, max(z) and the weights across rounds; every
    column must equal the recomputing loop's bit for bit."""

    def assert_matches_recomputed(self, n, source, T, eta, seed=3):
        scheme = SchemeConfig("partial_info", n=n, horizon=T, eta=eta)
        rule = RandomizedPositional("borda")
        trace = run_episode(scheme, rule, source, seed=seed)
        rng = np.random.default_rng(seed)
        rounds = source.rounds(T, n, rng)
        expected = recomputed_exp3(scheme, rule, rounds, rng.random((T, 2)))
        for column, want in zip(TRACE_COLUMNS, expected):
            assert np.array_equal(getattr(trace, column), want), column
        return trace

    @pytest.mark.parametrize("eta", [None, 50.0, 1e6])
    @pytest.mark.parametrize("n", [1, 2, 10, 50])
    def test_iid_rounds(self, n, eta):
        self.assert_matches_recomputed(n, IIDRandomSource(3), 400, eta)

    @pytest.mark.parametrize("eta", [None, 50.0, 1e6])
    def test_mixed_m_file_rounds(self, eta):
        rng = np.random.default_rng(8)
        lines = [random_lines(6, 2 + t % 4, 1, rng)[0] for t in range(60)]
        self.assert_matches_recomputed(6, file_source(lines), 60, eta)

    @pytest.mark.parametrize("eta", [None, 50.0, 1e6])
    def test_zero_losses_keep_every_voter_at_the_max(self, eta):
        rng = np.random.default_rng(9)
        lines = random_lines(5, 3, 80, rng)
        for line in lines:
            line["losses"] = [0.0] * 3
        trace = self.assert_matches_recomputed(5, file_source(lines), 80, eta)
        assert np.all(trace.probs == 0.2)

    @pytest.mark.parametrize("eta", [None, 50.0, 1e6])
    @pytest.mark.parametrize("n", [1, 2, 10, 200])
    def test_voter_uniforms_on_the_cuts(self, n, eta):
        """Round t's voter uniform sits on cut t % n of the played CDF, or
        one ulp below or above it, capped at the largest uniform 1 - 2**-53.
        There rounding decides the voter: the engine's must be the
        reference's, and have positive probability."""
        T = 3 * n + 30
        scheme = SchemeConfig("partial_info", n=n, horizon=T, eta=eta)
        rule = RandomizedPositional("borda")
        rng = np.random.default_rng(11)
        ms, codes, losses = IIDRandomSource(3).rounds(T, n, rng)
        u = rng.random((T, 2))

        def on_a_cut(t, p):
            cdf = list(itertools.accumulate(p))
            cut, step = cdf[t % n] / cdf[-1], t // n % 3 - 1
            cut = math.nextafter(cut, step * math.inf) if step else cut
            return min(max(cut, 0.0), 1 - 2**-53)

        expected = recomputed_exp3(scheme, rule, (ms, codes, losses), u, on_a_cut)
        idx, U, _, L = _index_rounds(rule, ms, codes, losses, n)
        probs, *drawn = _play_sequential(scheme, idx, U, losses, u)
        trace = _trace("partial_info", u, probs, idx, U, L, losses, None, drawn)
        for column, want in zip(TRACE_COLUMNS, expected):
            assert np.array_equal(getattr(trace, column), want), column
        assert np.all(trace.probs[np.arange(T), trace.chosen] > 0)

    def test_a_weight_that_normalizes_to_zero_is_never_chosen(self):
        """Round 1 charges voter 0 an estimate that leaves it the weight
        exp(-744.6) = 5e-324, which is 0 once divided by the total 2. The
        draw in weight space at u = 0 lands on it; the engine must redraw."""
        n, eta = 3, 1e6
        scheme = SchemeConfig("partial_info", n=n, horizon=2, eta=eta)
        idx, U = np.zeros((2, n), dtype=np.int64), np.array([[1.0, 0.0]])
        losses = np.full((2, 2), 744.6 / (n * eta))
        probs, chosen, winner = _play_sequential(scheme, idx, U, losses, np.zeros((2, 2)))
        assert probs[1].tolist() == [0.0, 0.5, 0.5]
        assert chosen.tolist() == [0, 1] and probs[1, chosen[1]] > 0
        assert winner.tolist() == [0, 0]


REFERENCE_RULES = (
    RandomizedPositional("borda"),
    RandomizedPositional("plurality"),
    RandomizedCopeland(),
    DeterministicPositional("veto"),
    ConstantUniform(),
)


class TestScalarReference:
    @given(case=file_rounds(), rule=st.sampled_from(REFERENCE_RULES),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_file_episodes_match_reference(self, case, rule, seed):
        n, lines = case
        T = len(lines)
        source = file_source(lines)

        def round_at(t, weights):
            return [tuple(r) for r in lines[t]["rankings"]], lines[t]["losses"]

        for kind in SCHEME_KINDS:
            scheme = SchemeConfig(kind, n=n, horizon=T)
            trace = run_episode(scheme, rule, source, seed=seed)
            again = run_episode(scheme, rule, source, seed=seed)
            scalar_replay(scheme, rule, trace, round_at, np.random.default_rng(seed).random((T, 2)))
            for column in ("per_voter_loss", "probs", "chosen", "winner",
                           "scheme_loss", "winner_loss"):
                assert np.array_equal(getattr(trace, column), getattr(again, column))

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    def test_adaptive_episodes_match_reference(self, kind):
        cases = [
            (DeterministicPositional("plurality"), WinnerPunishingSource, 4),
            (RandomizedCopeland(), CondorcetSplitSource, 11),
            (RandomizedPositional("borda"), DecomposingPunisher, 4),
        ]
        for rule, source_cls, n in cases:
            source = source_cls(rule, 3)
            scheme = SchemeConfig(kind, n=n, horizon=40)
            trace = run_episode(scheme, rule, source, seed=5)

            def round_at(t, weights):
                groups, losses, _ = source.emit(weights)
                return voter_rankings(source, groups), losses.tolist()

            scalar_replay(scheme, rule, trace, round_at, np.random.default_rng(5).random((40, 2)))

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    def test_iid_episodes_match_reference(self, kind):
        """An iid source draws its rounds first, and the uniforms after them."""
        n, T, seed, rule = 6, 60, 13, RandomizedPositional("borda")
        scheme = SchemeConfig(kind, n=n, horizon=T)
        trace = run_episode(scheme, rule, IIDRandomSource(3), seed=seed)
        rng = np.random.default_rng(seed)
        _, codes, losses = IIDRandomSource(3).rounds(T, n, rng)

        def round_at(t, weights):
            return all_rankings(3)[codes[t]].tolist(), losses[t].tolist()

        scalar_replay(scheme, rule, trace, round_at, rng.random((T, 2)))

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    def test_wide_adaptive_episodes_match_per_voter_rounds(self, kind):
        """The adversaries' rounds rebuilt here as one ranking per voter, so a
        wrong voter grouping in the engine or the sources shows."""
        copeland = RandomizedCopeland()
        a, b = 0, 1
        top_ab, top_ba = [0, 1, 2], [1, 0, 2]

        def split_round(t, weights):
            total, acc, heavy = float(np.sum(weights)), 0.0, set()
            for i in sorted(range(len(weights)), key=lambda i: (-weights[i], i)):
                heavy.add(i)
                acc += weights[i]
                if acc > total / 2:
                    break
            ell = [0.5] * 3
            ell[a], ell[b] = 1.0, 0.0
            return [top_ab if i in heavy else top_ba for i in range(len(weights))], ell

        plurality = DeterministicPositional("plurality")
        witness = unanimity_witness(plurality, 3)

        def punishing_round(t, weights):
            rankings = [witness[0]] + [witness[1]] * (len(weights) - 1)
            ell = [0.0] * 3
            ell[int(np.argmax(plurality.evaluate(orders_of(rankings), weights)))] = 1.0
            return rankings, ell

        cases = [
            (copeland, CondorcetSplitSource(copeland, 3), 1001, 20, split_round),
            (plurality, WinnerPunishingSource(plurality, 3), 30, 40, punishing_round),
        ]
        for rule, source, n, T, round_at in cases:
            scheme = SchemeConfig(kind, n=n, horizon=T)
            trace = run_episode(scheme, rule, source, seed=11)
            scalar_replay(scheme, rule, trace, round_at, np.random.default_rng(11).random((T, 2)))
