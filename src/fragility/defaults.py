"""Defaults the ``fragility`` command shares with the library.

This module imports nothing, so the command's parser reads its strategy
choices and work limit here without loading the solvers or the harness.
"""

# every strategy a removal curve compares; all but greedy are static rankings
STRATEGIES = ("betweenness", "closeness", "degree", "greedy")

DEFAULT_WORK_LIMIT = 10_000_000
