"""Repeated weighted voting under no-regret learning.

A library and CLI simulator: anonymous voting rules, online voter-weighting
schemes, worst-case adversary constructions, and a regret-measuring harness.
"""

from .adversaries import (
    CondorcetSplitSource,
    WinnerPunishingSource,
    majority_prefix_partition,
    orient_gap_pair,
    top_two_orders,
)
from .core import TOL, orders_from_codes, rank_codes
from .harness import (
    FileSource,
    IIDRandomSource,
    Trace,
    best_voter,
    monte_carlo_regret,
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
    group_statistic,
    pairwise_statistic,
    position_selector,
    profile_statistic,
    unanimity_witness,
)
from .schemes import (
    SchemeConfig,
    exp_weights,
)

__version__ = "0.1.0"
