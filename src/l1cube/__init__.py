"""Manhattan distances between uniform random points in the unit hypercube.

The package samples pairs of independent uniform points in [0, 1]^n, measures
their L1 distance, and compares the empirical distribution against exact and
asymptotic theory: the mean grows as n/3, the variance as n/18, and the
standardized distance approaches a normal law as the dimension increases.

Each module lists its own public names in its `__all__`; the package
re-exports exactly those.
"""

from . import analytic, estimation, experiment, metric, output, sampling
from ._version import __version__
from .analytic import *
from .estimation import *
from .experiment import *
from .metric import *
from .output import *
from .sampling import *

__all__ = [
    "__version__",
    *metric.__all__,
    *sampling.__all__,
    *analytic.__all__,
    *estimation.__all__,
    *experiment.__all__,
    *output.__all__,
]
