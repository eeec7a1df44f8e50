"""The oblivious engine builds its per-voter arrays in the trace's C-ordered
(T, n) layout; only Hedge's prefix sum and softmax run voter-major, (n, T).
Its kernels must give, bit for bit, what the row-wise formulas on (T, n)
arrays give, and the trace it hands out must stay C-ordered (T, n)."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from voteweight import (
    CondorcetSplitSource,
    DeterministicCopeland,
    DeterministicPositional,
    Duple,
    IIDRandomSource,
    RandomizedCopeland,
    RandomizedPositional,
    SchemeConfig,
    WinnerPunishingSource,
    run_episode,
)
from voteweight.core import inverse_cdf
from voteweight.harness import _index_rounds
from voteweight.rules import voter_losses
from voteweight.schemes import SCHEME_KINDS, exp_weights

from conftest import file_source


def row_wise_exp_weights(cumulative, eta):
    """The softmax over the last axis of a C-ordered (T, n) array."""
    z = cumulative * -eta
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


class TestKernels:
    @pytest.mark.parametrize("n, T, rows, width",
                             [(1, 40, 3, 2), (10, 300, 6, 3), (37, 50, 120, 6)])
    def test_voter_losses_match_the_per_element_loop(self, rng, n, T, rows, width):
        U, losses = rng.random((rows, width)), rng.random((T, width))
        U[rng.integers(1, width + 1, rows)[:, None] <= np.arange(width)] = 0.0  # padding
        idx = rng.integers(0, rows, (T, n))
        expected = [[sum((U[r, k] * losses[t, k] for k in range(width)), 0.0)
                     for r in voters] for t, voters in enumerate(idx.tolist())]
        assert np.array_equal(voter_losses(U, idx, losses), expected)
        for t in range(0, T, 7):  # one round: (n,) rows against its (width,) losses
            assert np.array_equal(voter_losses(U, idx[t], losses[t]), expected[t])

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 10, 16, 17, 128, 129, 200])
    def test_exp_weights_match_the_row_wise_softmax(self, rng, n):
        # numpy sums 8 and more terms pairwise in blocks of 8, and splits
        # past 128; the normalizer must add each round's n terms that way
        T = 257
        cumulative = np.cumsum(rng.random((n, T)) * (rng.random((n, T)) < 0.8), axis=1)
        for eta in (0.05, 1.0, 60.0):
            got = exp_weights(cumulative, eta)
            assert got.flags.c_contiguous and got.shape == (T, n)
            assert np.array_equal(got, row_wise_exp_weights(cumulative.T.copy(), eta))
        for t in (0, T // 2, T - 1):  # one round's (n,) cumulative
            assert np.array_equal(exp_weights(cumulative[:, t], 0.5),
                                  row_wise_exp_weights(cumulative[:, t], 0.5))

    def test_many_draws_match_draw_at_every_boundary(self, rng):
        weights, uniforms = [], []
        for _ in range(300):
            row = (rng.random(7) * (rng.random(7) < 0.7)).tolist()
            if not any(row):
                continue
            cdf = list(itertools.accumulate(row))
            for q in (x / cdf[-1] for x in cdf):
                for u in (math.nextafter(q, 0.0), q, math.nextafter(q, 1.0)):
                    if u < 1.0:
                        weights.append(row)
                        uniforms.append(u)
        weights, uniforms = np.array(weights), np.array(uniforms)
        cdf = np.cumsum(weights, axis=-1)
        row_wise = np.add.reduce(cdf / cdf[:, -1:] <= uniforms[:, None], axis=-1)
        for draws in (len(weights), 40):  # more draws than 7**2 add along the draws
            got = inverse_cdf(weights[:draws], uniforms[:draws])
            assert np.array_equal(got, row_wise[:draws])
            # one row at a time takes the cumsum branch
            per_row = [int(inverse_cdf(w, u)) for w, u in zip(weights[:draws], uniforms[:draws])]
            assert got.tolist() == per_row


def _layout_cases():
    borda = RandomizedPositional("borda")
    lines = []
    rng = np.random.default_rng(5)
    for _ in range(60):
        m = int(rng.integers(2, 6))
        lines.append({"rankings": np.argsort(rng.random((9, m)), axis=1).tolist(),
                      "losses": rng.random(m).tolist()})
    plurality, copeland = DeterministicPositional("plurality"), RandomizedCopeland()
    for name, n, T, rule, make_source in [
            ("iid_random", 10, 300, borda, lambda: IIDRandomSource(3)),
            ("iid_random", 129, 40, DeterministicCopeland(), lambda: IIDRandomSource(4)),
            ("file", 9, 60, borda, lambda: file_source(lines)),
            ("file", 9, 60, Duple(0, 1), lambda: file_source(lines)),
            ("thm3", 5, 40, plurality, lambda: WinnerPunishingSource(plurality, 3)),
            ("thm5", 11, 30, copeland, lambda: CondorcetSplitSource(copeland, 3))]:
        yield pytest.param(n, T, rule, make_source, id=f"{name}-n{n}-{type(rule).__name__}")


class TestTraceLayout:
    """Sums over the rounds add rows in sequence on a C-ordered column, and
    pairwise on a transposed one."""

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    @pytest.mark.parametrize("n, T, rule, make_source", list(_layout_cases()))
    def test_columns_are_c_ordered_and_totals_add_rows_in_sequence(
            self, kind, n, T, rule, make_source):
        trace = run_episode(SchemeConfig(kind, n=n, horizon=T), rule, make_source(), seed=2)
        for name, column in vars(trace).items():
            assert column.flags.c_contiguous, name
        totals = np.zeros(n)
        for row in trace.per_voter_loss.tolist():
            totals = totals + row
        assert np.array_equal(trace.per_voter_loss.sum(axis=0), totals)

    @pytest.mark.parametrize("ms", [[3] * 40, [3, 4, 2, 4] * 10], ids=["one-count", "mixed"])
    def test_index_rounds_builds_the_trace_layout(self, rng, ms):
        # idx and L are built as C-ordered (T, n) arrays, not transposed views
        T, n, ms = len(ms), 7, np.array(ms)
        codes = rng.integers(0, [[math.factorial(m)] for m in ms], (T, n))
        losses = rng.random((T, ms.max())) * (np.arange(ms.max()) < ms[:, None])
        idx, _, _, L = _index_rounds(RandomizedPositional("borda"), ms, codes, losses, n)
        for name, column in (("idx", idx), ("L", L)):
            assert column.shape == (T, n) and column.flags.c_contiguous, name


class TestSingleCount:
    """Oblivious rounds with one alternative count skip the mask copies; their tables
    must be those the same rounds get with a round of another count after them."""

    @pytest.mark.parametrize("rule", [RandomizedPositional("borda"), RandomizedCopeland(),
                                      Duple(0, 2)], ids=lambda rule: type(rule).__name__)
    @pytest.mark.parametrize("m, n, T", [(3, 10, 200), (5, 4, 6)])  # counted and sorted codes
    def test_one_count_matches_the_shared_rows_of_two(self, rng, rule, m, n, T):
        # as a file whose widest round comes later; a set of small ints
        # iterates in order, so that round's table is stacked last
        width = m + 1
        codes = rng.integers(0, math.factorial(m), (T, n))
        losses = np.zeros((T, width))
        losses[:, :m] = rng.random((T, m))
        one = _index_rounds(rule, np.full(T, m), codes, losses, n)
        extra = np.array([rng.integers(0, math.factorial(width), n)])
        two = _index_rounds(rule, np.append(np.full(T, m), width), np.vstack([codes, extra]),
                            np.vstack([losses, rng.random((1, width))]), n)
        idx, U, stats, L = one
        assert np.array_equal(two[0][:T], idx) and np.array_equal(two[3][:T], L)
        assert np.array_equal(two[1][:len(U)], U)
        assert len(two[2]) > len(stats)
        assert all(np.array_equal(a, b) for a, b in zip(two[2], stats))


class TestEpisodeMemory:
    """An oblivious episode holds a few (T, n) arrays at a time: no (T, n, m)
    gather and no (T, n) temporary that outlives its use."""

    T, n, m = 400, 500, 6

    def peak(self, call, *args, size=None, **kwargs):
        """The call's tracemalloc peak in arrays of ``size`` (by default T * n)
        8-byte values; a first call keeps lazy imports out of the count."""
        call(*args, **kwargs)
        tracemalloc.start()
        try:
            call(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / ((size or self.T * self.n) * 8)
        finally:
            tracemalloc.stop()

    def episode_peak(self, kind, source, T=T, n=n):
        return self.peak(run_episode, SchemeConfig(kind, n=n, horizon=T),
                         RandomizedPositional("borda"), source, seed=1, size=T * n)

    def test_deterministic_weights_on_recorded_rounds(self):
        rng = np.random.default_rng(8)
        orders = np.argsort(rng.random((self.T, self.n, self.m)), axis=2).tolist()
        source = file_source([{"rankings": rankings, "losses": rng.random(self.m).tolist()}
                              for rankings in orders])
        assert self.episode_peak("deterministic_unilateral", source) <= 6

    def test_full_information_on_iid_rounds(self):
        assert self.episode_peak("full_info", IIDRandomSource(self.m)) <= 4.5

    def test_partial_information_on_iid_rounds(self):
        # the benchmark's EXP3 shape, where a copy of L (5.17 arrays) or the
        # uniforms read as T two-float row lists (5.57) would show: it peaks at 4.78
        assert self.episode_peak("partial_info", IIDRandomSource(3), T=5000, n=10) <= 4.95

    def test_voter_draw_normalizes_its_running_sums_in_place(self, rng):
        # one float (T, n) array and a boolean one: no normalized copy
        weights, u = rng.random((self.T, self.n)), rng.random(self.T)
        assert self.peak(inverse_cdf, weights, u) <= 1.5

    def test_constant_draws_no_voter(self):
        # voter 0 by construction: no cumulative sums over the point mass
        assert self.episode_peak("constant", IIDRandomSource(self.m)) <= 4.5

    def test_voter_losses_hold_one_term_at_a_time(self, rng):
        U, losses = rng.random((700, self.m)), rng.random((self.T, self.m))
        idx = rng.integers(0, len(U), (self.T, self.n))
        assert self.peak(voter_losses, U, idx, losses) <= 2.5  # the sum and one term
