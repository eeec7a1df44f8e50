"""Episode orchestration: run T rounds of scheme vs. round source, record
exact expected losses, and compute regret against the best voter in hindsight.

Expected losses are computed in closed form from the rule's output
distribution. Sampling picks the voter a sampled scheme plays and the winner,
whose realized loss is the only feedback in partial-information mode; both
draws are recorded for replay checks.

Votes are rank codes and an oblivious episode evaluates the rule once per
distinct code (:func:`~voteweight.rules.outcome_table`); an adaptive source
holds its groups' outcomes. Full-information kinds on oblivious sources play
the whole episode as array operations, EXP3 on oblivious sources runs one
round-by-round loop over Python floats, and adaptive sources run one
round-by-round loop over voter groups.
"""

from __future__ import annotations

import json
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable

import numpy as np

from .core import check_alternatives, draw, inverse_cdf, rank_codes
from .errors import ConfigError, InvalidRankingError, ShapeError
from .rules import VotingRule, group_statistic, outcome_table, voter_losses
from .schemes import SchemeConfig, exp_weights


@dataclass(frozen=True)
class Trace:
    """One episode as columns; row t holds round t + 1.

    ``per_voter_loss`` (T, n) is each voter's expected loss with all the weight
    and ``probs`` (T, n) the distribution over voters the scheme played (a
    point mass on voter 0 for ``constant``). ``chosen`` (T,) is the voter
    drawn from it, or -1 when the distribution itself is the weight vector;
    ``winner`` (T,) is drawn from that voter's (or the weighted) outcome.
    ``scheme_loss`` (T,) is the expected loss given ``chosen``, and
    ``winner_loss`` (T,) the realized loss, all that partial feedback reveals.
    """

    per_voter_loss: np.ndarray
    probs: np.ndarray
    chosen: np.ndarray
    winner: np.ndarray
    scheme_loss: np.ndarray
    winner_loss: np.ndarray


@dataclass(frozen=True)
class Rounds:
    """Rounds as columns: alternatives ``m`` (T,), voters' rank ``codes``
    (T, n) and ``losses`` (T, width), zero past each round's m."""

    m: np.ndarray
    codes: np.ndarray
    losses: np.ndarray


# ---------------------------------------------------------------------------
# Oblivious round sources: ``rounds(T, rng)`` returns all T rounds at once.
# ``m`` is the most alternatives a source emits. The adaptive sources, which
# answer each round's weights from ``emit(weights)``, live in `adversaries`.


class IIDRandomSource:
    """Benign environment: uniform rankings, uniform losses."""

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = check_alternatives(m)

    def rounds(self, T: int, rng: np.random.Generator) -> Rounds:
        """All rank codes first, then all losses."""
        codes = rng.integers(0, math.factorial(self.m), size=(T, self.n))
        return Rounds(np.full(T, self.m), codes, rng.random((T, self.m)))


class FileSource:
    """Pre-recorded rounds from a JSON Lines file.

    Each line is {"rankings": [[ids], ...], "losses": [reals]}; the number of
    alternatives is inferred per line and may vary across rounds, the number
    of voters may not. An error names the file's first bad line.
    """

    def __init__(self, path: str):
        if not isinstance(path, str) or not path:  # open() takes an int as a descriptor
            raise ConfigError(f"a sequence file path must be a non-empty string, got {path!r}")
        ms, ids, losses, linenos, faults, n = [], [], [], [], [], 0
        try:
            fh = open(path, "rb")  # json.loads decodes each line inside its checks
        except OSError as exc:
            raise ConfigError(f"cannot read sequence file {path!r}: {exc.strerror}") from exc
        with fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    booleans = b"t" in line or b"f" in line  # no t or f, no true or false
                    line_losses = obj["losses"]  # bool is its own type, not int
                    if type(line_losses) is not list or not {int, float}.issuperset(
                            map(type, line_losses)):
                        raise ShapeError("losses must be a list of numbers")
                    if not all(0 <= x <= 1 for x in line_losses):  # false for NaN
                        raise ShapeError(f"losses must lie in [0, 1], got {line_losses}")
                    m, rankings = check_alternatives(len(line_losses)), obj["rankings"]
                    n, widths = n or len(rankings), sorted(set(map(len, rankings)))
                    if widths != [m] or len(rankings) != n:  # ragged rows list their widths
                        got = (len(rankings), widths[0] if len(widths) == 1 else widths)
                        raise ShapeError(f"rankings of shape {got}, expected {(n, m)}")
                    try:  # bytes refuses floats, strings, lists and ids outside 0..255
                        line_ids = bytes(chain.from_iterable(rankings))
                    except (TypeError, ValueError):
                        line_ids = b""
                    if not line_ids or booleans and bool in map(type, chain(*rankings)):
                        raise InvalidRankingError(f"rankings must permute 0..{m - 1} as integers")
                except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                    faults.append((lineno, exc))  # ends the read; a bad order before it wins
                    break
                ms.append(m)
                ids.append(line_ids)
                losses.append(line_losses)
                linenos.append(lineno)
        self.m = max(ms, default=0)
        codes, padded = np.empty((len(ms), n), dtype=np.int64), np.zeros((len(ms), self.m))
        for m in set(ms):  # one permutation check and one encoding per alternative count
            rows = [t for t, m_t in enumerate(ms) if m_t == m]
            orders = np.frombuffer(b"".join([ids[t] for t in rows]), np.uint8).reshape(-1, n, m)
            bad = np.flatnonzero((np.sort(orders, axis=2) != np.arange(m)).any(axis=(1, 2)))
            faults += [(linenos[rows[t]], InvalidRankingError(
                f"rankings must permute 0..{m - 1} as integers")) for t in bad[:1]]
            codes[rows] = rank_codes(orders)
            padded[rows, :m] = [losses[t] for t in rows]
        if faults:
            lineno, exc = min(faults)  # line numbers differ, so errors are never compared
            raise ConfigError(f"{path}:{lineno}: bad round: {exc}") from exc
        if not ms:
            raise ConfigError(f"{path}: no rounds")
        self.recorded = Rounds(np.array(ms), codes, padded)

    def rounds(self, T: int, rng: np.random.Generator) -> Rounds:
        """The file's first T rounds; draws nothing."""
        have = self.recorded
        if T > len(have.m):
            raise ConfigError(f"sequence file has {len(have.m)} rounds, {T} requested")
        return Rounds(have.m[:T], have.codes[:T], have.losses[:T])


# ---------------------------------------------------------------------------
# Episode engine


def run_episode(scheme: SchemeConfig, rule: VotingRule, source, seed: int = 0) -> Trace:
    """Play the scheme's T = ``scheme.horizon`` rounds: the scheme plays a voter
    distribution, the source emits the round, a voter and then a winner are
    drawn, and feedback follows the scheme kind.

    Randomness: an oblivious source draws its rounds first, then one (T, 2)
    block of uniforms is drawn; column 0 draws the voter, column 1 the winner.
    """
    T = scheme.horizon
    if scheme.kind == "deterministic_unilateral" and not rule.decomposes:
        warnings.warn(
            "deterministic weights with a rule that does not decompose "
            "across voters: the round-for-round equivalence guarantee is void",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    rounds = source.rounds(T, rng) if hasattr(source, "rounds") else None
    u = rng.random((T, 2))
    if rounds is None:
        return Trace(*_play_adaptive(scheme, source, u))
    if scheme.kind == "partial_info":
        return Trace(*_play_sequential(scheme, rule, rounds, u))
    return Trace(*_play_oblivious(scheme, rule, rounds, u))


def _index_rounds(rule: VotingRule, rounds: Rounds, n: int):
    """The rounds' outcome table, one :func:`outcome_table` per alternative
    count stacked after the counts before it: each vote's row ``idx`` (T, n),
    the rows' outcomes ``U`` zero-padded to the rounds' width, their ``stats``,
    and the per-voter losses ``L`` (T, n). ``idx`` and ``L`` are transposed
    views of voter-major (n, T) arrays, whose rows run along the rounds."""
    if rounds.codes.shape[1] != n:
        raise ConfigError(f"rounds have {rounds.codes.shape[1]} rankings for n={n}")
    counts = set(rounds.m.tolist())
    idx = np.empty((n, len(rounds.m)), dtype=np.int64)
    blocks, stats = [], []
    for m in counts:
        at = rounds.m == m if len(counts) > 1 else slice(None)  # one count: no mask copies
        rows, outcomes, stat = outcome_table(rule, m, rounds.codes[at])
        idx[:, at] = rows.T + len(stats)
        blocks.append((len(stats), outcomes))
        stats.extend(stat)
    del rows  # (T, n) at one count: freed before L's temporaries
    U = np.zeros((len(stats), rounds.losses.shape[1]))
    for lo, outcomes in blocks:
        U[lo:lo + len(outcomes), :outcomes.shape[1]] = outcomes
    return idx.T, U, stats, voter_losses(U, idx, rounds.losses).T


def _play_oblivious(scheme: SchemeConfig, rule: VotingRule, rounds: Rounds, u):
    """Whole-episode full information: with the rounds known up front, each
    voter's cumulative loss before round t is an exclusive prefix sum of L.T's row."""
    T, n = rounds.codes.shape
    rows = np.arange(T)
    idx, U, stats, L = _index_rounds(rule, rounds, scheme.n)
    if scheme.kind == "constant":
        probs = np.eye(1, n).repeat(T, axis=0)
    else:
        before = np.zeros((n, T))
        np.cumsum(L.T[:, :-1], axis=1, out=before[:, 1:])
        probs = exp_weights(before, scheme.learning_rate)
    if scheme.kind != "deterministic_unilateral":
        chosen = inverse_cdf(probs, u[:, 0])
        outcome = U[idx[rows, chosen]]
        scheme_loss = L[rows, chosen]
    else:
        chosen = np.full(T, -1)
        if rule.decomposes:
            outcome = np.einsum("tn,tnk->tk", probs, np.take(U, idx, axis=0))
        else:
            outcome = _weighted_outcomes(rule, rounds, idx, stats, probs)
        scheme_loss = np.einsum("tk,tk->t", outcome, rounds.losses)
    winner = inverse_cdf(outcome, u[:, 1])
    return L.copy(), probs, chosen, winner, scheme_loss, rounds.losses[rows, winner]


def _weighted_outcomes(rule: VotingRule, rounds: Rounds, idx, stats, probs) -> np.ndarray:
    """Each round's outcome with voter i, on table row ``idx[t, i]`` of
    statistic ``stats[idx[t, i]]``, weighted by ``probs[t, i]``: the rows are
    the round's groups."""
    outcome = np.zeros(rounds.losses.shape)
    for t, m in enumerate(rounds.m.tolist()):
        rows, group = np.unique(idx[t], return_inverse=True)
        stat = np.array([stats[r] for r in rows.tolist()])
        outcome[t, :m] = rule.decide(group_statistic(stat, group, probs[t]), m)
    return outcome


def _play_sequential(scheme: SchemeConfig, rule: VotingRule, rounds: Rounds, u):
    """EXP3 on oblivious rounds, one round at a time since the update depends
    on the sampled voter, on Python floats: at n in the tens, array calls cost
    more than their work. Each round moves one voter's z (-eta * cumulative),
    so z, max(z) and w = exp(z - max(z)) carry over; winners are drawn from
    table rows' CDFs normalized once, as :func:`draw` does."""
    T, n, eta = len(u), scheme.n, scheme.learning_rate
    (idx, U, _, L), losses = _index_rounds(rule, rounds, n), rounds.losses
    cdfs = [[x / c[-1] for x in c] for c in map(list, map(accumulate, U.tolist()))]
    probs = np.zeros((T, n))
    chosen, winner = [], []
    cumulative, z, top, w = [0.0] * n, [-0.0] * n, -0.0, [1.0] * n  # -0.0 is 0.0 * -eta
    for t, (u_voter, u_winner) in enumerate(u.tolist()):
        total = sum(w)
        probs[t] = p = [x / total for x in w]
        c = draw(p, u_voter)
        chosen.append(c)
        winner.append(bisect_right(cdfs[idx.item(t, c)], u_winner))
        cumulative[c] += losses.item(t, winner[-1]) / p[c]
        held, z[c] = z[c] == top, cumulative[c] * -eta
        if held and top != (top := max(z)):  # the chosen voter held the max, and it moved
            w = [math.exp(x - top) for x in z]
        else:
            w[c] = math.exp(z[c] - top)
    rows = np.arange(T)
    chosen, winner = np.array(chosen), np.array(winner)
    return L.copy(), probs, chosen, winner, L[rows, chosen], losses[rows, winner]


def _play_adaptive(scheme: SchemeConfig, source, u):
    """Round-by-round play against a source that answers the played weights.
    A round is a few voter groups: each voter's loss is its group's, from the
    group's outcome ``source.unanimous[g]``, and the winner is drawn from the
    outcome the source found under those weights, which for a sampled voter's
    basis vector is that voter's group's."""
    T, n, kind, eta = len(u), scheme.n, scheme.kind, scheme.learning_rate
    L, probs, losses = np.zeros((T, n)), np.zeros((T, n)), np.zeros((T, source.m))
    group_ids = np.arange(len(source.unanimous))
    chosen, winner, scheme_loss = [], [], []
    cumulative = np.zeros(n)
    for t, (u_voter, u_winner) in enumerate(u.tolist()):
        p = probs[t]
        if kind == "constant":
            p[0], c = 1.0, 0  # what a draw from the point mass gives
        else:
            p[:] = exp_weights(cumulative, eta)
            c = -1 if kind == "deterministic_unilateral" else int(inverse_cdf(p, u_voter))
        challenge = source.emit(p if c < 0 else np.eye(1, n, c)[0])
        if len(challenge.groups) != n:
            raise ConfigError(f"round {t + 1} has {len(challenge.groups)} voters, not {n}")
        losses[t] = challenge.losses
        L[t] = voter_losses(source.unanimous, group_ids, losses[t])[challenge.groups]
        outcome = challenge.outcome.tolist()
        if c < 0:  # deterministic weights reach the rule as one weighted profile
            scheme_loss.append(float(np.dot(outcome, losses[t])))
        else:
            scheme_loss.append(L[t, c])
        chosen.append(c)
        winner.append(draw(outcome, u_winner))
        if kind == "partial_info":
            cumulative[c] += losses[t, winner[-1]] / p[c]
        elif kind != "constant":
            cumulative += L[t]
    winner = np.array(winner)
    winner_loss = losses[np.arange(T), winner]
    return L, probs, np.array(chosen), winner, np.array(scheme_loss), winner_loss


# ---------------------------------------------------------------------------
# Benchmarks and aggregation


def voter_totals(trace: Trace) -> np.ndarray:
    return trace.per_voter_loss.sum(axis=0)


def best_voter(trace: Trace) -> tuple[int, float]:
    """Exact minimizer of cumulative per-voter loss; ties go to the smallest index."""
    totals = voter_totals(trace)
    idx = int(np.argmin(totals))
    return idx, float(totals[idx])


def regret(trace: Trace) -> float:
    """Cumulative scheme expected loss minus the best voter's cumulative loss."""
    # Summed as per-round gaps, so a scheme that always matches the best voter
    # has exactly zero regret whatever the summation order.
    best, _ = best_voter(trace)
    return float(np.sum(trace.scheme_loss - trace.per_voter_loss[:, best]))


def monte_carlo_regret(
    episode_fn: Callable[[int], Trace], trials: int, base_seed: int = 0
) -> tuple[float, float]:
    """Mean and standard error of regret over trials seeded base, base+1, ..."""
    if trials < 1:
        raise ConfigError("need at least one trial")
    values = np.array([regret(episode_fn(base_seed + k)) for k in range(trials)])
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr

