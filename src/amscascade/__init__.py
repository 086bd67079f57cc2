"""Discovery-significance maximization by cost-sensitive classification.

The library alternates weighted binary classification with closed-form dual
weight updates to climb significance measures of the AMS family, and ships
the surrounding tooling: significance/conjugate math, HiggsML-format data
handling, boosted-tree and logistic base learners, the cascade loop with
trace auditing, ensembling, threshold selection, and brute-force
verification suites.

The package exports the union of its modules' ``__all__``, so each public
name is listed once, in its own module. The significance star import runs
last: it rebinds ``amscascade.significance`` from the submodule to the
function.
"""

from . import cascade, checks, data, errors, learner
from . import significance as _significance
from .cascade import *  # noqa: F403
from .checks import *  # noqa: F403
from .data import *  # noqa: F403
from .errors import *  # noqa: F403
from .learner import *  # noqa: F403
from .significance import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (cascade, checks, data, errors, learner, _significance)
        for name in module.__all__
    }
)
