"""Episode orchestration: run T rounds of scheme vs. round source, record
exact expected losses, and compute regret against the best voter in hindsight.

Expected losses are computed in closed form from the rule's output
distribution. Sampling picks the voter a sampled scheme plays and the winner,
whose realized loss is the only feedback in partial-information mode; both
draws are recorded for replay checks.

Sources answer in plain arrays, one instance serving every trial and every
n: an oblivious source's ``rounds(T, n, rng)`` returns all T rounds as
``(m, codes, losses)``, an adaptive source's ``emit(weights)`` one round as
``(groups, losses, outcome)``. Votes are rank codes and an oblivious episode
evaluates the rule once per distinct code (:func:`~voteweight.rules.outcome_table`);
an adaptive source holds its groups' outcomes. Full-information kinds on
oblivious sources play the whole episode as array operations, EXP3 on
oblivious sources one loop over Python floats, and adaptive sources one
round-by-round loop over voter groups. Each path returns only what it played,
EXP3's the draws its update used; :func:`_trace` makes the other draws and
forms every kind's losses. A draw is one :func:`inverse_cdf` or, in the EXP3
loops, a bisection of table rows' CDFs normalized once, :func:`_row_cdfs`.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable

import numpy as np

from .core import check_alternatives, inverse_cdf, rank_codes
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
    ``winner`` (T,) is drawn from that voter's outcome, or the weighted one.
    ``scheme_loss`` (T,) is the expected loss of what was played, ``probs`` or the
    weights, and ``winner_loss`` (T,) the realized loss, all that partial feedback reveals.
    EXP3's draws are the ones its update used; :func:`_trace` forms the rest.
    """

    per_voter_loss: np.ndarray
    probs: np.ndarray
    chosen: np.ndarray
    winner: np.ndarray
    scheme_loss: np.ndarray
    winner_loss: np.ndarray


# ---------------------------------------------------------------------------
# Oblivious round sources: ``rounds(T, n, rng)`` returns all T rounds at once
# as ``(m, codes, losses)``: alternatives (T,), rank codes (T, n) and losses
# (T, width), zero past each round's m. The attribute ``m`` is the most a source
# emits; n comes with each request, so one instance serves every n. The
# adaptive sources, which answer ``emit(weights)``, live in `adversaries`.


class IIDRandomSource:
    """Benign environment: uniform rankings, uniform losses."""

    def __init__(self, m: int):
        self.m = check_alternatives(m)

    def rounds(self, T: int, n: int, rng: np.random.Generator):
        """All rank codes first, then all losses."""
        codes = rng.integers(0, math.factorial(self.m), size=(T, n))
        return np.full(T, self.m), codes, rng.random((T, self.m))


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
                        raise ShapeError(f"rankings of shape {got}, expected {(n, m)}" if widths
                                         else "rankings must list at least one voter")
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
        self.recorded = np.array(ms), codes, padded
        for recorded in self.recorded:  # every trial's rounds are views of these
            recorded.flags.writeable = False

    def rounds(self, T: int, n: int, rng: np.random.Generator):
        """The file's first T rounds, whatever ``n``; draws nothing."""
        ms, codes, losses = self.recorded
        if T > len(ms):
            raise ConfigError(f"sequence file has {len(ms)} rounds, {T} requested")
        return ms[:T], codes[:T], losses[:T]


# ---------------------------------------------------------------------------
# Episode engine


def run_episode(scheme: SchemeConfig, rule: VotingRule, source, seed: int = 0) -> Trace:
    """Play the scheme's T = ``scheme.horizon`` rounds: the scheme plays a voter
    distribution, the source emits the round, a voter and then a winner are
    drawn, and feedback follows the scheme kind. Each play path returns what
    it played, EXP3's its draws too, and :func:`_trace` forms the trace.

    An oblivious source is asked for all T rounds at the scheme's n,
    ``rounds(T, n, rng)``, an adaptive one for each round, ``emit(weights)``;
    the latter's outcomes are those of ``source.rule``, the rule it was built
    with, and any other ``rule`` object raises before any round.

    A round with a group outside ``source.unanimous`` or a loss outside [0, 1]
    raises :class:`ConfigError` naming the first such round.

    Randomness: an oblivious source draws its rounds first, then one (T, 2)
    block of uniforms is drawn; column 0 draws the voter, column 1 the winner.

    Memory: an oblivious episode holds about four (T, n) arrays at once, no (T, n, m)
    one and no copy of ``L``; the rank codes and cumulative losses go once read.
    """
    T, n, kind = scheme.horizon, scheme.n, scheme.kind
    rng = np.random.default_rng(seed)
    # a decomposing rule's weighted outcome is a voter's, drawn as full_info draws it
    plays_outcome = kind == "deterministic_unilateral" and not rule.decomposes
    if not hasattr(source, "rounds"):
        if source.rule is not rule:
            raise ConfigError("an adaptive source plays the rule it was built with, "
                              "not the one passed to run_episode")
        u = rng.random((T, 2))
        return _trace(kind, u, *_play_adaptive(scheme, source, u, plays_outcome))
    ms, codes, losses = source.rounds(T, n, rng)
    u = rng.random((T, 2))
    idx, U, tables, L = _index_rounds(rule, ms, codes, losses, n)
    del codes
    weighted = drawn = None
    if kind == "partial_info":
        probs, *drawn = _play_sequential(scheme, idx, U, losses, u)
    elif kind == "constant":
        probs = np.eye(1, n).repeat(T, axis=0)
    else:  # voter-major for the softmax's max over voters: an exclusive prefix sum of L.T's rows
        before = np.zeros((n, T))
        np.cumsum(L.T[:, :-1], axis=1, out=before[:, 1:])
        probs = exp_weights(before, scheme.learning_rate)
        del before
    if plays_outcome:
        weighted = _weighted_outcomes(rule, ms, losses, idx, tables, probs)
    return _trace(kind, u, probs, idx, U, L, losses, weighted, drawn)


def _trace(kind: str, u, probs, idx, U, L, losses, weighted, drawn) -> Trace:
    """The one place the trace's losses are formed; ``L`` (T, n) is its column as
    built. EXP3 passes the voters and winners its update ``drawn``, deterministic
    weights on a rule that does not decompose the ``weighted`` outcomes. The rest
    draw a voter from ``probs`` with ``u[:, 0]`` (``constant`` plays voter 0) and play
    ``U[idx[t, voter]]``, the rule's draw under deterministic weights, whose ``chosen``
    is -1. All draw the winner with ``u[:, 1]``, and lose in expectation over what they played."""
    rows = np.arange(len(u))
    if kind == "partial_info":
        chosen, winner = drawn
    elif weighted is not None:
        winner = inverse_cdf(weighted, u[:, 1])
    else:
        chosen = np.zeros(len(u), np.int64) if kind == "constant" else inverse_cdf(probs, u[:, 0])
        winner = inverse_cdf(U[idx[rows, chosen]], u[:, 1])
    if kind == "deterministic_unilateral":
        chosen = np.full(len(u), -1)
    if weighted is None:
        scheme_loss = np.einsum("tn,tn->t", probs, L)
    else:
        scheme_loss = np.einsum("tk,tk->t", weighted, losses)
    return Trace(L, probs, chosen, winner, scheme_loss, losses[rows, winner])


def _index_rounds(rule: VotingRule, ms, codes, losses, n: int):
    """The rounds' outcome table, one :func:`outcome_table` per alternative
    count stacked after the counts before it: each vote's row ``idx`` (T, n),
    the rows' outcomes ``U`` zero-padded to the rounds' width, ``tables[m] =
    (lo, outcomes, stat)``, count m's table and the row of ``U`` it starts at,
    and the per-voter losses ``L`` (T, n), both C-ordered in the trace's layout.
    Besides the caller's codes it holds at most three (T, n) arrays at once;
    the first count's rows go into ``idx`` with no temporary."""
    if codes.shape[1] != n:  # only a file or a third-party source can disagree
        raise ConfigError(f"rounds have {codes.shape[1]} rankings for n={n}")
    _check_losses(losses)
    counts = set(ms.tolist())
    idx, tables, lo = np.empty((len(ms), n), dtype=np.int64), {}, 0
    for m in counts:
        at = ms == m if len(counts) > 1 else slice(None)  # one count: no mask copies
        rows, outcomes, stat = outcome_table(rule, m, codes[at])
        idx[at] = rows + lo if lo else rows
        tables[m], lo = (lo, outcomes, stat), lo + len(outcomes)
    del rows  # (T, n) at one count: freed before L's temporaries
    U = np.zeros((lo, losses.shape[1]))
    for lo, outcomes, _ in tables.values():
        U[lo:lo + len(outcomes), :outcomes.shape[1]] = outcomes
    return idx, U, tables, voter_losses(U, idx, losses)


def _check_losses(losses) -> None:
    """Refuse rounds with a loss outside [0, 1], naming the first."""
    if not (losses.min() >= 0 and losses.max() <= 1):  # false for a NaN too
        t = int(np.argmin(((losses >= 0) & (losses <= 1)).all(axis=1)))
        raise ConfigError(f"round {t + 1} has a loss outside [0, 1]: {losses[t].tolist()}")


def _weighted_outcomes(rule: VotingRule, ms, losses, idx, tables, probs) -> np.ndarray:
    """Each round's outcome with voter i weighted by ``probs[t, i]``: the
    round's table rows ``idx[t] - lo`` in its count's table are the groups of
    :func:`group_statistic` over that table's ``stat``."""
    outcome = np.zeros(losses.shape)
    for t, m in enumerate(ms.tolist()):
        lo, _, stat = tables[m]
        outcome[t, :m] = rule.decide(group_statistic(stat, idx[t] - lo, probs[t]), m)
    return outcome


def _row_cdfs(U) -> list[list[float]]:
    """Rows' running sums over their totals: bisect_right(cdfs[r], u) is inverse_cdf(U[r], u)."""
    return [[x / c[-1] for x in c] for c in map(list, map(accumulate, U.tolist()))]


def _play_sequential(scheme: SchemeConfig, idx, U, losses, u):
    """EXP3's ``probs`` on oblivious rounds and the voters and winners its
    update drew, one round at a time on Python floats: at n in the tens, array
    calls cost more than their work. Each round moves one voter's z (-eta *
    cumulative), so z, max(z) and w = exp(z - max(z)) carry over. The voter is
    u * total's place among w's running sums, redrawn by :func:`inverse_cdf`
    over w / total if w[c] / total rounds to 0. u is read as two column lists,
    each w copied by ``array.fromlist`` and normalized after the loop by that
    division; winners bisect the table rows' CDFs from :func:`_row_cdfs`."""
    T, n, eta, cdfs = len(u), scheme.n, scheme.learning_rate, _row_cdfs(U)
    weights, totals, chosen, winner = array("d"), array("d"), [], []
    cumulative, z, top, w = [0.0] * n, [-0.0] * n, -0.0, [1.0] * n  # -0.0 is 0.0 * -eta
    for t, u_voter, u_winner in zip(range(T), *u.T.tolist()):
        cdf = list(accumulate(w))
        weights.fromlist(w)
        totals.append(total := cdf[-1])
        c = bisect_right(cdf, u_voter * total)
        if not (p := w[c] / total):  # a subnormal weight, 0 once normalized
            p = w[c := int(inverse_cdf([x / total for x in w], u_voter))] / total
        chosen.append(c)
        winner.append(k := bisect_right(cdfs[idx.item(t, c)], u_winner))
        cumulative[c] += losses.item(t, k) / p
        held, z[c] = z[c] == top, cumulative[c] * -eta
        if held and top != (top := max(z)):  # the chosen voter held the max, and it moved
            w = [math.exp(x - top) for x in z]
        else:
            w[c] = math.exp(z[c] - top)
    probs = np.frombuffer(weights).reshape(T, n)
    np.divide(probs, np.frombuffer(totals)[:, None], out=probs)
    return probs, np.array(chosen), np.array(winner)


def _play_adaptive(scheme: SchemeConfig, source, u, plays_outcome: bool):
    """Round-by-round play against a source that answers the played
    distribution, never the voter drawn from it. A round is a few voter
    groups: each voter's loss is its group's, from ``source.unanimous[g]``.
    Returns what :func:`_trace` takes: if ``plays_outcome``, each round's
    ``outcome``, the rule's under the distribution; EXP3, whose update needs
    its draws, makes them here (winners from :func:`_row_cdfs`, built once)
    and returns them as ``drawn``; every other kind keeps the rounds'
    ``groups``, which index that table."""
    T, n, kind, eta = len(u), scheme.n, scheme.kind, scheme.learning_rate
    L, probs, losses = np.zeros((T, n)), np.zeros((T, n)), np.zeros((T, source.m))
    outcome = np.zeros((T, source.m)) if plays_outcome else None
    groups = None if plays_outcome or kind == "partial_info" else np.zeros((T, n), dtype=np.int64)
    group_ids, cdfs = np.arange(len(source.unanimous)), _row_cdfs(source.unanimous)
    cumulative, chosen, winner = np.zeros(n), [], []
    for t, (u_voter, u_winner) in enumerate(u.tolist()):
        p = probs[t]
        if kind == "constant":
            p[0] = 1.0
        else:
            p[:] = exp_weights(cumulative, eta)
        g, losses[t], o = source.emit(p)  # every kind's question: the distribution, not a voter
        if len(g) != n:
            raise ConfigError(f"round {t + 1} has {len(g)} voters, not {n}")
        if g.min() < 0 or g.max() >= len(group_ids):  # a negative group would wrap
            raise ConfigError(f"round {t + 1} has groups outside 0..{len(group_ids) - 1}")
        L[t] = voter_losses(source.unanimous, group_ids, losses[t])[g]
        if groups is not None:
            groups[t] = g
        elif outcome is not None:
            outcome[t] = o
        if kind == "partial_info":
            chosen.append(c := int(inverse_cdf(p, u_voter)))
            winner.append(k := bisect_right(cdfs[g[c]], u_winner))
            cumulative[c] += losses[t, k] / p[c]
        elif kind != "constant":
            cumulative += L[t]
    _check_losses(losses)
    return probs, groups, source.unanimous, L, losses, outcome, (np.array(chosen), np.array(winner))


# ---------------------------------------------------------------------------
# Benchmarks and aggregation


def best_voter(trace: Trace) -> tuple[int, float]:
    """Exact minimizer of cumulative per-voter loss; ties go to the smallest index."""
    totals = trace.per_voter_loss.sum(axis=0)
    idx = int(np.argmin(totals))
    return idx, float(totals[idx])


def regret(trace: Trace) -> float:
    """Cumulative expected loss over the scheme's own draws minus the best voter's loss."""
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

