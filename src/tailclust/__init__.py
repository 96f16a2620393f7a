"""tailclust: cluster the variables of a stationary multivariate series into
groups whose block maxima are asymptotically independent across groups.

Pipeline: block_maxima -> pseudo_obs -> chi_matrix -> eco_cluster, with
tau_theory or select_threshold providing the clustering threshold, and
simulate/experiments reproducing the reference simulation studies.
"""

from . import cluster, competitors, core, estimators, experiments, maxima, simulate
from .cluster import *
from .competitors import *
from .core import *
from .estimators import *
from .experiments import *
from .maxima import *
from .simulate import *

__version__ = "0.1.0"

# each public name is listed once, in its own module's __all__
_MODULES = (cluster, competitors, core, estimators, experiments, maxima, simulate)
__all__ = ["__version__", *sorted({name for m in _MODULES for name in m.__all__})]
