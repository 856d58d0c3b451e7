"""Transport efficiency of continuous-time quantum walks with one
absorbing trap, on structured graph families, with cross-checked
closed-form, subspace, spectral, and dynamical routes."""

from .connectivity import (
    ConnectivityReport,
    algebraic_connectivity,
    connectivity_report,
    edge_connectivity,
    normalized_algebraic_connectivity,
    vertex_connectivity,
)
from .graphs import (
    Complete,
    CompleteBipartite,
    FamilySpec,
    Graph,
    JoinedComplete,
    PaleyPrime,
    Petersen,
    Rook,
    Simplex,
    build,
    family_name,
    graph_to_json,
    laplacian,
)
from .numerics import (
    TrappedEvolution,
    UnstableStepError,
    decay_horizon,
    evolve_trapped,
    orthonormalize_against,
    rk4_step,
    sym_eig,
)
from .reduction import (
    SubspaceBasis,
    closed_form_basis,
    closed_form_reduced_hamiltonian,
    krylov_basis,
    reduced_hamiltonian,
)
from .transport import (
    ROUTE_TOLERANCES,
    EfficiencyReport,
    Explicit,
    InitialState,
    Localized,
    Superposition,
    UnsupportedCaseError,
    class_representative,
    class_uniform_state,
    efficiency_closed_form,
    efficiency_dynamic,
    efficiency_lambda,
    efficiency_report,
    efficiency_subspace,
    initial_state_vector,
    lambda_subspace,
    superposition_rule,
)

__version__ = "0.1.0"
