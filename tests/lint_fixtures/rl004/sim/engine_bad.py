"""RL004 true positives: numpy reductions in the engine's lockstep solve.

The path matches the rule's ``sim/engine`` scope.
"""

import numpy as np


def pool_demand(demand):
    return np.sum(demand, axis=1)


def busy_gpcs(n_gpcs):
    return n_gpcs.sum(axis=1)
