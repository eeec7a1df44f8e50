"""Exception types raised across the package."""


class VoteWeightError(Exception):
    """Base class for all package-specific errors."""


class InvalidRankingError(VoteWeightError, ValueError):
    """A ranking is not a permutation of {0, ..., m-1}."""


class DegenerateWeightsError(VoteWeightError, ValueError):
    """A weight vector has no positive mass."""


class ShapeError(VoteWeightError, ValueError):
    """Dimension mismatch between profiles, losses, or score vectors."""


class InvalidPairError(VoteWeightError, ValueError):
    """A pairwise operation was given identical alternatives."""


class EnumerationRefusedError(VoteWeightError, ValueError):
    """Full enumeration of rankings was requested for too many alternatives."""


class NoWitnessError(VoteWeightError, ValueError):
    """A rule constant when one ranking carries all the weight has no witness pair."""


class HypothesisViolatedError(VoteWeightError, ValueError):
    """An adversary construction was invoked outside its stated hypothesis."""


class ConfigError(VoteWeightError, ValueError):
    """Malformed experiment configuration or incompatible component pairing."""
