"""Exact + numeric toolkit for weighted-homogeneous complete-intersection germs.

The package decides whether a polynomial germ, given as a weighted-homogeneous
principal part plus a higher-order (or same-order) perturbation, carries a
fast-cycle obstruction to inner-metric conicalness, and numerically constructs
the deformed weighted foliation by arcs.

Layers, bottom up:

* :mod:`germlab.qi`, :mod:`germlab.poly`, :mod:`germlab.parse` — exact Q(i)
  scalars, sparse multivariate polynomials, text grammar.
* :mod:`germlab.orders`, :mod:`germlab.groebner` — monomial orders, Buchberger,
  dimensions, saturation, local standard bases, Milnor numbers.
* :mod:`germlab.newton` — Newton polyhedra, faces, non-degeneracy.
* :mod:`germlab.germ` — the germ system and its weight blocks, obstruction
  locus, hypothesis ledger, verdicts.
* :mod:`germlab.foliation` — link sampling, arc deformation, tangency fits.
* :mod:`germlab.germfile`, :mod:`germlab.report`, :mod:`germlab.cli` — file
  formats and the command line front end.

numpy loads only with the numeric layer: :mod:`germlab.foliation`,
``NumericEvaluator.rows`` and the probabilistic torus search in
:mod:`germlab.newton`.  Importing the package, any exact layer or
:mod:`germlab.cli` leaves it unloaded, and the CLI imports the numeric layer
only to run ``foliate``; :mod:`germlab.cli` sets ``OPENBLAS_NUM_THREADS`` to
1, unless it is set, before anything loads numpy.
"""

__version__ = "0.1.0"

from germlab.qi import QI
from germlab.poly import Poly

__all__ = ["QI", "Poly", "__version__"]
