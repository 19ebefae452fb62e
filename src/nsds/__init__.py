"""Discontinuous dynamical systems toolkit.

Filippov, Caratheodory and sample-and-hold solutions; generalized gradients
and proximal subdifferentials of a closed nonsmooth function class; set-valued
Lie derivatives and sample-grid checks of the stability theorems.  The names
imported here are the public API, listed by paper object in README "Python API".
"""

from .errors import (
    DegenerateSurfaceError,
    DimensionMismatchError,
    EmptySetError,
    ModelError,
    NotSlidingError,
    NsdsError,
    SingularityError,
    SolverError,
    UnsupportedError,
)
from .fields import (
    ControlField,
    PiecewiseField,
    SurfaceClassification,
    SwitchingSurface,
    affine_cell,
    classify_point,
    control_inclusion,
    field_from_config,
    filippov_set,
    one_sided_lipschitz_test,
    sliding_field,
    transversality_test,
)
from .geometry import (
    ConvexPolygon,
    Polytope,
    least_norm,
    maximin_value,
)
from .integrate import (
    ConsensusResult,
    IntegratorConfig,
    PartitionSchedule,
    Trajectory,
    consensus_flow,
    gradient_flow,
    integrate_caratheodory,
    integrate_filippov,
    integrate_pointwise,
    limit_set_estimate,
    sample_and_hold,
)
from .lie import (
    GridSpec,
    LieInterval,
    StabilityReport,
    exclude_band,
    invariance_candidate_set,
    lower_upper_lie,
    lyapunov_certify,
    monotonicity_verdict,
    set_lie_derivative,
)
from .nonsmooth import (
    ALL_SPACE,
    UNSUPPORTED,
    GradientResult,
    Graph,
    NsFunction,
    descent_direction,
    descent_inequality_check,
    disagreement,
    hsp,
    make_function,
    smq,
    smq_gradient,
)
from .scenarios import SCENARIOS, Scenario, get_scenario

__version__ = "0.1.0"
