"""Growth and equilibrium-state toolkit for weighted trace monoids."""

from .monoid import (
    INFINITY,
    GraphError,
    IndependenceGraph,
    MismatchedGraphError,
    NotADivisorError,
    Trace,
    build_graph,
    divides,
    join,
    left_quotient,
    min_letters,
    multiply,
    normalize,
    wick,
)
from .growth import (
    GrowthTable,
    InversionReport,
    WeightedPolynomial,
    clique_polynomial,
    enumerate_up_to,
    growth_table,
    invert_series,
    is_lattice_ordered,
    verify_inversion,
)
from .thermo import (
    ComputationError,
    InsufficientDataError,
    KmsIdentityReport,
    RootEstimate,
    RootsReport,
    StateValue,
    ThermoContext,
    beta_critical,
    beta_critical_limsup_estimate,
    clique_roots_in_unit_interval,
    fock_state_value,
    gibbs_value,
    kms_identity_check,
    partition_function,
    tail_mass,
)
from .fock import (
    KmsNumericReport,
    OperatorIdentityError,
    SparseOperator,
    TruncatedRep,
    build_rep,
    density,
    dynamics_factor,
    evolution_unitary,
    gibbs_numeric,
    kms_numeric_check,
    left_op,
    nica_check,
    range_projection,
    vacuum_projection,
)
from .presets import preset_graph, preset_spec

__version__ = "0.1.0"
