"""Simply connected homogeneous Riemannian spaces as varying Lie brackets.

A point of the parameter space is an antisymmetric bilinear bracket on
R^q + R^n satisfying four structural conditions; the geometry it
encodes is read off algebraically (curvature at the base point), as a
Taylor jet of the metric in canonical coordinates, or dynamically
through the bracket flow.  Submodules:

* ``brackets``     bracket containers, membership checks, families
* ``coordinates``  metric jets, coordinate curvature, injectivity bounds
* ``curvature``    algebraic curvature, fingerprints, orbit distance
* ``flow``         the bracket flow and soliton diagnostics
* ``classify``     isometry and topology diagnostics

The package exports each of these submodules' ``__all__``; ``polyjet``,
the polynomial arithmetic under ``coordinates``, is not exported.
"""

from . import brackets, classify, coordinates, curvature, flow
from .brackets import *
from .coordinates import *
from .curvature import *
from .flow import *
from .classify import *

__version__ = "0.1.0"

__all__ = sorted([*brackets.__all__, *coordinates.__all__, *curvature.__all__,
                  *flow.__all__, *classify.__all__])
