"""Inference toolkit for the one-parameter Poisson-Dirichlet (Ewens) model.

Estimation and hypothesis testing of the dispersal parameter, generation of
partition-exchangeable sequences from the underlying urn scheme, and
marginal/simultaneous Bayesian predictive classification, with a
command-line front end (``pd-infer``) and a reproducible experiment harness.

Each module's ``__all__`` is the one list of its public names; the package
exports the union of those lists, in import order, plus ``__version__``.
"""

__version__ = "0.1.0"  # set first: experiment and cli import it

from .core import *
from .estimation import *
from .hypothesis import *
from .sampling import *
from .dataio import *
from .classify import *
from .experiment import *
from . import classify, core, dataio, estimation, experiment, hypothesis, sampling  # loaded above

__all__ = [
    *core.__all__, *estimation.__all__, *hypothesis.__all__, *sampling.__all__,
    *dataio.__all__, *classify.__all__, *experiment.__all__, "__version__",
]
