"""Root systems, spinor groups, Coxeter planes and McKay/ADE diagrams.

The pipeline this package implements and cross-checks at desk scale:

    2D/3D root systems -> pin/spin (binary polyhedral) groups
                       -> induced 2D/4D root systems
                       -> Coxeter-plane factorizations and exponents
                       -> McKay graphs -> affine ADE diagrams,

with exact arithmetic in Q(sqrt2, sqrt5) wherever the catalog allows and a
tolerance-governed float backend for the spectral parts.
"""

__version__ = "0.1.0"

from .scalars import QuadTower, SIGMA, TAU  # noqa: F401
from .clifford import Multivector  # noqa: F401
from .rootsys import RootSystem, SimpleRootSet, catalog, root_system  # noqa: F401
from .induction import (  # noqa: F401
    VersorGroup,
    even_subgroup,
    generate_pin_group,
    identify_root_system,
    spinors_to_4d,
)
