"""Exact policy derandomization for atomless total-reward MDPs on [0,1]."""

from .errors import (
    AtomlessMDPError,
    CertifiedFailure,
    DegenerateMeasureError,
    ModelFormatError,
    NotCertifiedError,
    PartitionMismatchError,
    ToleranceError,
)
from .measure import PieceMeasure, StatePartition, total_variation
from .model import (
    AbsorptionCertificate,
    AtomlessMDP,
    DeterministicPolicy,
    StationaryPolicy,
    absorption_certificate,
    builtin,
    discounted_to_absorbing,
    load_model,
    load_model_file,
    model_to_doc,
    random_model,
    save_model_file,
    weighted_transform,
)
from .occupancy import (
    OccupancyMeasure,
    marginal_step,
    occupancy,
    occupancy_total_variation,
    performance,
    policy_from_occupancy,
)
from .scalar_dp import SubmodelSpec, ValueFunction, conserving_submodel, support, value_iteration
from .derandomize import (
    MixCertificate,
    TwoPolicyContext,
    alpha_hat,
    caratheodory,
    derandomize,
    distance_to_performance_set,
    make_context,
    mix_pair,
    path_policy,
    tv_modulus,
)
from .lyapunov import (
    IntervalSet,
    VectorMeasure,
    as_onestep_mdp,
    brute_force_range,
    find_set,
    range_hull,
)

__version__ = "0.1.0"
