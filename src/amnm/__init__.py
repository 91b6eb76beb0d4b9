"""Finite weighted semilattice convolution algebras: approximately
multiplicative maps, certified corrections to exactly multiplicative ones,
and certified counterexample families where no nearby correction exists.

Quick tour::

    from amnm import free_semilattice, correct_scalar, scalar_map, defect

    S = free_semilattice(3)
    psi = scalar_map([...])          # one value per element, defect < 1/5
    cert = correct_scalar(S, psi)    # nearby filter indicator + certificate

The library works with explicit multiplication tables (commutative,
idempotent, associative), weights that are strictly positive and
submultiplicative (checked exactly), and maps into the scalars, the
upper-triangular 2x2 algebra, or full 2x2 matrices.  :func:`validate` and
:func:`semilattice_from_json` check a table's axioms; ``Semilattice(...)``
checks nothing, and proves its character table the first time it is read.
"""

from .correction import *
from .counterexamples import *
from .defects import *
from .errors import *
from .filters import *
from .mat2 import *
from .oracle import *
from .reporting import *
from .sampling import *
from .semilattice import *
from .weights import *

__version__ = "0.1.0"
