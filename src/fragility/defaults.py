"""Defaults the ``fragility`` command shares with the library.

This module imports nothing, so the command's parser reads its strategy
choices, work limit and curve fraction here without loading the solvers or
the harness.
"""

# every strategy a removal curve compares; all but greedy are static rankings
STRATEGIES = ("betweenness", "closeness", "degree", "greedy")

DEFAULT_WORK_LIMIT = 10_000_000

# the paper's budget: a curve removes at most 12% of the nodes
DEFAULT_MAX_FRACTION = 0.12
