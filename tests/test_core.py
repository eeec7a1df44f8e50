import bisect
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voteweight import (
    TOL,
    ConstantUniform,
    RandomizedPositional,
    group_statistic,
    pairwise_statistic,
    profile_statistic,
    rank_codes,
)
from voteweight.core import (
    MAX_M,
    all_rankings,
    check_alternatives,
    inverse_cdf,
    orders_from_codes,
)
from voteweight.errors import (
    ConfigError,
    DegenerateWeightsError,
    InvalidRankingError,
    ShapeError,
)
from voteweight.harness import _row_cdfs

from conftest import alone, file_source, orders_of, random_rankings, ranking


class TestMakeRanking:
    """A ranking is an order row; its rank code is its lexicographic index."""

    def test_identity_permutation(self):
        assert rank_codes((0, 1, 2)) == 0
        assert orders_from_codes([0], 3).tolist() == [[0, 1, 2]]

    def test_transposition_positions(self):
        # 1 above 0 above 2, read from the pairwise statistic
        above = pairwise_statistic(np.array([(1, 0, 2)])).reshape(3, 3)
        assert above.tolist() == [[0, 0, 1], [1, 0, 1], [0, 0, 0]]

    def test_duplicate_id_rejected(self):
        with pytest.raises(InvalidRankingError):
            profile_statistic(pairwise_statistic, [(0, 0, 2)], [1.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidRankingError):
            profile_statistic(pairwise_statistic, [(0, 1, 3)], [1.0])
        with pytest.raises(InvalidRankingError):
            orders_from_codes([6], 3)

    def test_wrong_length_rejected(self):
        # a round's rankings must cover the alternatives of its loss vector
        with pytest.raises(ConfigError, match=r"shape \(1, 2\), expected \(1, 3\)"):
            file_source([{"rankings": [[0, 1]], "losses": [0.0, 0.0, 0.0]}])


def mass_statistic(m):
    """A statistic whose weighted sum is the profile's weight fraction on each
    rank code: the one-hot of the code."""
    return lambda orders: np.eye(math.factorial(m))[rank_codes(orders)]


class TestAnonymize:
    """Equal orders merge into one group carrying their weight fraction."""

    def test_unanimous_profile(self, abc):
        mass = profile_statistic(mass_statistic(3), orders_of([abc, abc]), [1, 1])
        assert np.array_equal(mass, np.eye(6)[rank_codes(abc)])

    def test_weight_fractions(self, abc, bca):
        mass = profile_statistic(mass_statistic(3), orders_of([abc, bca, bca, bca]), [1, 1, 1, 1])
        assert mass[rank_codes(abc)] == pytest.approx(0.25, abs=TOL)
        assert mass[rank_codes(bca)] == pytest.approx(0.75, abs=TOL)

    def test_zero_total_weight(self, abc, bca):
        with pytest.raises(DegenerateWeightsError):
            profile_statistic(mass_statistic(3), orders_of([abc, bca]), [0, 0])

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 8), m=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_mass_sums_to_one(self, seed, n, m):
        rng = np.random.default_rng(seed)
        orders = random_rankings(n, m, rng)
        weights = rng.random(n) + 1e-6
        mass = profile_statistic(mass_statistic(m), orders, weights)
        assert abs(mass.sum() - 1.0) <= TOL

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_voter_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        orders = random_rankings(6, 3, rng)
        weights = rng.random(6) + 1e-6
        perm = rng.permutation(6)
        base = profile_statistic(mass_statistic(3), orders, weights)
        shuffled = profile_statistic(mass_statistic(3), orders[perm], weights[perm])
        assert np.array_equal(base > 0, shuffled > 0)
        assert np.allclose(base, shuffled, rtol=0, atol=TOL)

    @given(seed=st.integers(0, 10**6), scale=st.floats(1e-3, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_rescaling_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        orders = random_rankings(5, 3, rng)
        weights = rng.random(5) + 1e-6
        base = profile_statistic(mass_statistic(3), orders, weights)
        scaled = profile_statistic(mass_statistic(3), orders, weights * scale)
        assert np.allclose(base, scaled, rtol=0, atol=1e-9)


def reference_anonymize(rankings, weights):
    """The weight fractions as a plain loop over the voters."""
    w = np.asarray(weights, dtype=float)
    total = float(w.sum())
    mass = {}
    for ranking, wi in zip(rankings, w):
        if wi == 0:
            continue
        mass[ranking] = mass.get(ranking, 0.0) + wi
    for ranking in mass:
        mass[ranking] /= total
    return mass


def reference_statistic(statistic, rankings, weights):
    """The weighted statistic as a plain loop over the merged rankings of
    :func:`reference_anonymize`, in order of their first positive-weight voter."""
    acc = 0.0
    for ranking, frac in reference_anonymize(rankings, weights).items():
        acc = acc + frac * statistic(np.array([ranking]))[0]
    return acc


class TestGroupProfile:
    """The weighted statistic against the loop over voters, bit for bit."""

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 300),
        m=st.integers(2, 4),
        zero_first=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_voter_loop(self, seed, n, m, zero_first):
        rng = np.random.default_rng(seed)
        # few distinct rankings, so most are repeated; a statistic of random
        # floats, so the order the groups are added in shows in the sum
        k = int(rng.integers(1, min(7, math.factorial(m) + 1)))
        codes = rng.choice(math.factorial(m), size=k, replace=False)
        reps = [tuple(order) for order in orders_from_codes(codes, m).tolist()]
        table = rng.random((math.factorial(m), 4))
        statistic = lambda orders: table[rank_codes(orders)]  # noqa: E731
        groups = rng.integers(0, len(reps), size=n)
        weights = rng.random(n) * (rng.random(n) < 0.8)
        if zero_first:
            weights[0] = 0.0
        weights[-1] += 1e-3
        rankings = [reps[k] for k in groups]
        want = reference_statistic(statistic, rankings, weights)
        assert np.array_equal(profile_statistic(statistic, orders_of(rankings), weights), want)
        assert np.array_equal(group_statistic(statistic(orders_of(reps)), groups, weights), want)

    def test_support_follows_first_positive_voter(self, abc, bca, cab):
        mass = profile_statistic(mass_statistic(3), orders_of([abc, bca, abc]), [0.0, 1.0, 3.0])
        assert mass[rank_codes(bca)] == 0.25 and mass[rank_codes(abc)] == 0.75
        # 1e16 and -1e16 cancel only when added before 1: bca, then cab, then abc
        values = np.zeros((6, 1))
        values[rank_codes([abc, bca, cab]), 0] = 1.0, 1e16, -1e16
        statistic = lambda orders: values[rank_codes(orders)]  # noqa: E731
        rankings = [abc, bca, cab, abc]
        got = profile_statistic(statistic, orders_of(rankings), [0.0, 1.0, 1.0, 1.0])
        assert got.tolist() == [1 / 3]
        assert np.array_equal(got, reference_statistic(statistic, rankings, [0.0, 1.0, 1.0, 1.0]))

    def test_existing_errors_still_raise(self, abc, bca):
        stat = pairwise_statistic(orders_of([abc, bca]))
        with pytest.raises(DegenerateWeightsError):
            group_statistic(stat, [0, 1], [-1.0, 2.0])
        with pytest.raises(DegenerateWeightsError):
            group_statistic(stat, [0, 1], [0.0, 0.0])
        with pytest.raises(ShapeError):
            group_statistic(stat, [0, 1], [1.0])
        with pytest.raises(DegenerateWeightsError):
            profile_statistic(pairwise_statistic, orders_of([abc, bca]), [-1.0, 2.0])
        with pytest.raises(ShapeError):
            profile_statistic(pairwise_statistic, orders_of([abc, bca]), [1.0])
        # every row must permute the same alternatives 0..m-1
        with pytest.raises(InvalidRankingError):
            profile_statistic(pairwise_statistic, [[0, 1, 2], [1, 0, 3]], [1.0, 0.0])
        with pytest.raises(ValueError):
            profile_statistic(pairwise_statistic, [abc, ranking(1, 0)], [1.0, 0.0])

    def test_nan_weight_rejected(self, abc, bca):
        with pytest.raises(DegenerateWeightsError):
            profile_statistic(pairwise_statistic, orders_of([abc, bca]), [math.nan, 1.0])

    def test_nan_mass_rejected(self, abc, bca):
        # an infinite weight would make a NaN mass (inf / inf)
        with pytest.raises(DegenerateWeightsError):
            profile_statistic(pairwise_statistic, orders_of([abc, bca]), [math.inf, 1.0])


class TestExpectedLoss:
    """The expected loss of a rule's pick is its outcome dotted with the losses."""

    def test_dot_product_by_hand(self, abc):
        # randomized Borda with all the weight on abc gives (2/3, 1/3, 0)
        rule = RandomizedPositional("borda")
        loss = rule.evaluate(*alone(abc)) @ np.array([1.0, 0.0, 0.5])
        assert loss == pytest.approx(2 / 3, abs=TOL)

    def test_zero_losses(self, abc, bca):
        outcome = ConstantUniform().evaluate(orders_of([abc, bca]), [1, 2])
        assert outcome @ np.zeros(3) == 0.0

    def test_point_mass_distribution(self, abc):
        rule = RandomizedPositional("plurality")
        loss = rule.evaluate(*alone(abc)) @ np.array([0.7, 0.1, 0.2])
        assert loss == pytest.approx(0.7, abs=TOL)

    def test_shape_mismatch(self):
        # a loss vector longer than the round's rankings is rejected on reading
        with pytest.raises(ConfigError, match=r"shape \(1, 3\), expected \(1, 4\)"):
            file_source([{"rankings": [[0, 1, 2]], "losses": [0.0, 0.0, 0.0, 0.0]}])

    @given(seed=st.integers(0, 10**6), alpha=st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_linearity_in_losses(self, seed, alpha):
        rng = np.random.default_rng(seed)
        outcome = RandomizedPositional("borda").evaluate(
            random_rankings(4, 3, rng), rng.random(4) + 1e-6)
        l1, l2 = rng.random(3), rng.random(3)
        combined = outcome @ (alpha * l1 + (1 - alpha) * l2)
        split = alpha * (outcome @ l1) + (1 - alpha) * (outcome @ l2)
        assert combined == pytest.approx(split, abs=TOL)


class TestSample:
    def test_point_mass(self, rng):
        dist = np.array([0.0, 1.0, 0.0])
        assert np.all(inverse_cdf(np.tile(dist, (20, 1)), rng.random(20)) == 1)

    def test_point_mass_any_seed(self):
        dist = np.array([1.0, 0.0, 0.0])
        stale = np.random.default_rng(0)
        stale.random(100)
        fresh = np.random.default_rng(99)
        for u in (stale.random(), fresh.random()):
            assert inverse_cdf(dist, u) == 0

    def test_draw_matches_normalized_cdf_at_every_boundary(self, rng):
        # the array draw and the EXP3 loops' row CDFs must both be the
        # bisection of the whole normalized list, ulp for ulp
        for _ in range(300):
            weights = (rng.random(7) * (rng.random(7) < 0.7)).tolist()
            if not any(weights):
                continue
            cdf = list(itertools.accumulate(weights))
            normalized = [x / cdf[-1] for x in cdf]
            [row] = _row_cdfs(np.array([weights]))
            assert row == normalized
            for q in normalized:
                for u in (math.nextafter(q, 0.0), q, math.nextafter(q, 1.0)):
                    if u < 1.0:
                        expected = bisect.bisect_right(normalized, u)
                        assert bisect.bisect_right(row, u) == expected
                        assert inverse_cdf(np.array(weights), u) == expected

    def test_monte_carlo_frequency(self, rng):
        draws = 10**5
        dist = np.array([0.5, 0.5])
        hits = np.count_nonzero(inverse_cdf(np.tile(dist, (draws, 1)), rng.random(draws)) == 0)
        assert abs(hits / draws - 0.5) <= 3 * math.sqrt(0.25 / draws)


class TestRankCodes:
    @given(m=st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_code_is_index_in_all_rankings(self, m):
        orders = all_rankings(m)
        assert orders.tolist() == [list(p) for p in itertools.permutations(range(m))]
        assert rank_codes(orders).tolist() == list(range(len(orders)))

    @given(m=st.integers(2, MAX_M), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_decode_round_trip(self, m, data):
        code = data.draw(st.integers(0, math.factorial(m) - 1))
        order = orders_from_codes([code], m)[0]
        assert sorted(order.tolist()) == list(range(m))
        assert rank_codes(order) == code
        assert rank_codes(np.array([order] * 2)).dtype == np.int64

    @pytest.mark.parametrize("m", [2, 3, 6, MAX_M])
    def test_narrow_and_stacked_orders_give_the_same_codes(self, rng, m):
        def lehmer(order):  # digit j: later alternatives with a smaller id
            return functools.reduce(lambda code, j: code * (m - j) + sum(
                b < order[j] for b in order[j + 1:]), range(m), 0)

        orders = np.argsort(rng.random((4, 5, m)), axis=-1)
        want = np.array([[lehmer(o) for o in voters] for voters in orders.tolist()])
        for given_orders in (orders, orders.astype(np.int8)):
            codes = rank_codes(given_orders)
            assert codes.dtype == np.int64 and np.array_equal(codes, want)
            assert np.array_equal(rank_codes(given_orders[1]), want[1])

    def test_largest_code_fits_int64(self):
        last = tuple(range(MAX_M - 1, -1, -1))
        assert int(rank_codes(last)) == math.factorial(MAX_M) - 1

    def test_out_of_range_code_rejected(self):
        with pytest.raises(InvalidRankingError):
            orders_from_codes(6, 3)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_orders_from_codes_decodes_every_code(self, m):
        codes = np.arange(math.factorial(m))
        orders = orders_from_codes(codes, m)
        assert orders.shape == (len(codes), m) and orders.dtype == np.int64
        assert np.array_equal(rank_codes(orders), codes)
        assert orders.tolist() == [list(p) for p in itertools.permutations(range(m))]

    @given(m=st.integers(2, MAX_M), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_orders_from_codes_round_trips_random_orders(self, m, seed):
        rng = np.random.default_rng(seed)
        identity = np.arange(m)
        orders = np.vstack([identity, rng.permuted(np.tile(identity, (20, 1)), axis=1),
                            identity[::-1]])
        codes = rank_codes(orders)
        assert codes[0] == 0 and codes[-1] == math.factorial(m) - 1
        assert np.array_equal(orders_from_codes(codes, m), orders)

    @pytest.mark.parametrize("m", [2, 3, 6, MAX_M])
    def test_orders_from_codes_rejects_out_of_range(self, m):
        for bad in (-1, math.factorial(m)):
            with pytest.raises(InvalidRankingError):
                orders_from_codes([0, bad], m)

    def test_alternative_range(self):
        assert check_alternatives(2) == 2 and check_alternatives(MAX_M) == MAX_M
        for m in (1, MAX_M + 1):
            with pytest.raises(ShapeError):
                check_alternatives(m)
