"""Executable level-set decay machinery.

The package turns a generalized Stampacchia-type level-set decay lemma
into runnable code: classify a decay hypothesis, compute its explicit
envelope constants, verify tabulated functions against hypothesis and
envelope, exhibit counterexamples at the case boundaries, estimate weak
(Marcinkiewicz) norms of discrete profiles, and reproduce a regularity
trichotomy by minimizing a noncoercive p-growth functional on radial
grids.

Modules
-------
``lemma``
    The decay hypothesis, case classification, envelope constants, and
    tabulated verification.
``exponents``
    The exponent calculus mapping problem parameters to hypothesis
    exponents and regularity regimes.
``counterexamples``
    Closed-form families that defeat stronger claimed envelopes.
``marcinkiewicz``
    Distribution functions, weak-norm estimates, and tail fits.
``variational``
    The radial minimizer, level profiles, and the regularity
    experiment.
``cli``
    The config-driven command line interface.
"""

from . import counterexamples, exponents, lemma, marcinkiewicz, variational
from .counterexamples import *
from .exponents import *
from .lemma import *
from .marcinkiewicz import *
from .variational import *

__version__ = "0.1.0"

#: The public names of the five library modules (``cli`` is the program).
__all__ = sorted(
    name
    for module in (counterexamples, exponents, lemma, marcinkiewicz, variational)
    for name in module.__all__
)
