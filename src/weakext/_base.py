"""The package's stdlib-only names: its error classes, its enums and one default.

The command-line parser and ``main``'s dispatch need these before any
command runs; keeping them free of numpy lets ``--help``, usage errors
and ``--config`` faults answer without importing it.  ``core`` re-exports
the classes and ``diagnostics`` and ``experiments`` the pair budget.
"""

from enum import Enum

__all__ = ["DataError", "DegeneracyError", "Metric", "Weighting", "DEFAULT_PAIR_BUDGET"]

DEFAULT_PAIR_BUDGET = 500_000


class DataError(ValueError):
    """Malformed or out-of-contract input data (files, matrices)."""


class DegeneracyError(ValueError):
    """A numeric degeneracy: estimator or bound undefined for these inputs."""


class Metric(str, Enum):
    COSINE = "cosine"
    EUCLIDEAN = "euclidean"


class Weighting(str, Enum):
    ONE_NEAREST_NEIGHBOR = "1nn"
    THRESHOLDED_WEIGHTED_SUM = "wsum"
