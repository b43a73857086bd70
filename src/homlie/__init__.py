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
"""

from .brackets import (
    Bracket,
    MembershipReport,
    aloff_wallach_bracket,
    bracket_from_dict,
    bracket_norm,
    bracket_to_dict,
    check_equivariant_conditions,
    check_membership,
    circle_isotropy3,
    circle_isotropy5,
    default_tolerance,
    family_member,
    flat_degeneration,
    gl_action,
    jacobiator,
    milnor_bracket,
    random_member,
    read_bracket,
    resplit,
    write_bracket,
)
from .coordinates import (
    InjectivityBound,
    MetricJet,
    coordinate_curvature_oracle,
    curvature_derivatives,
    injectivity_bound,
    is_completely_solvable,
    metric_jet,
)
from .curvature import (
    CurvatureData,
    Fingerprint,
    curvature_data,
    fingerprint,
    invariant_distance,
    ricci_operator,
    riemann_origin,
    rotate_tensor,
    scalar_invariants,
)
from .flow import (
    FlowSample,
    FlowTrajectory,
    bracket_flow_rhs,
    integrate,
    soliton_residual,
)
from .classify import (
    AWReport,
    aw_equivalence,
    aw_find_witnesses,
    commutant,
    isometry_test,
    sequence_diagnostics,
)

__version__ = "0.1.0"

__all__ = [
    "AWReport",
    "Bracket",
    "CurvatureData",
    "Fingerprint",
    "FlowSample",
    "FlowTrajectory",
    "InjectivityBound",
    "MembershipReport",
    "MetricJet",
    "aloff_wallach_bracket",
    "aw_equivalence",
    "aw_find_witnesses",
    "bracket_flow_rhs",
    "bracket_from_dict",
    "bracket_norm",
    "bracket_to_dict",
    "check_equivariant_conditions",
    "check_membership",
    "circle_isotropy3",
    "circle_isotropy5",
    "commutant",
    "coordinate_curvature_oracle",
    "curvature_data",
    "curvature_derivatives",
    "default_tolerance",
    "family_member",
    "fingerprint",
    "flat_degeneration",
    "gl_action",
    "injectivity_bound",
    "integrate",
    "invariant_distance",
    "is_completely_solvable",
    "isometry_test",
    "jacobiator",
    "metric_jet",
    "milnor_bracket",
    "random_member",
    "read_bracket",
    "resplit",
    "ricci_operator",
    "riemann_origin",
    "rotate_tensor",
    "scalar_invariants",
    "sequence_diagnostics",
    "soliton_residual",
    "write_bracket",
]
