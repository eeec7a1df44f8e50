"""Repeated weighted voting under no-regret learning.

A library and CLI simulator: anonymous voting rules, online voter-weighting
schemes, worst-case adversary constructions, and a regret-measuring harness.
"""

from .adversaries import (
    GapPair,
    PartitionResult,
    RoundChallenge,
    condorcet_split_round,
    iid_random_round,
    majority_prefix_partition,
    orient_gap_pair,
    top_two_ranking,
    winner_punishing_round,
)
from .core import (
    TOL,
    AnonymousProfile,
    Ranking,
    anonymize,
    expected_loss,
    make_ranking,
    rank_codes,
    ranking_from_code,
    sample_index,
    unanimous,
)
from .harness import (
    CondorcetSplitSource,
    FileSource,
    IIDRandomSource,
    Rounds,
    Trace,
    WinnerPunishingSource,
    best_voter,
    monte_carlo_regret,
    oracle_expected_round_loss,
    regret,
    run_episode,
)
from .rules import (
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
    pairwise_weight,
    position_selector,
    positional_scores,
    rule_from_spec,
    unanimity_witness,
)
from .schemes import (
    SchemeConfig,
    SchemeState,
    act,
    full_info_update,
    initial_state,
    partial_info_update,
    voter_distribution,
)

__version__ = "0.1.0"
