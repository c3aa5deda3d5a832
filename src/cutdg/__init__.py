"""Cut-cell discontinuous Galerkin operators for the telegraph equation
and its heat limit, with small-cell stabilization, provable summation-by-
parts structure, and asymptotic-preserving IMEX time integration."""

from .mesh import (
    CutCellMesh,
    MeshError,
    build_cut_cell_mesh,
    evenly_spaced_cuts,
)
from .dg_space import (
    DGSpace,
    build_space,
    project,
    l2_error,
    l2_norm_of_vector,
)
from .operators import (
    BlockBand,
    OperatorSet,
    operator_pair,
    assemble_stabilized,
    mass_diagonal,
    split_dissipation,
    symmetrize_upwind_pair,
    default_eta,
    lambda_c,
    UPWIND,
    DOWNWIND,
    CENTRAL,
    PAIRINGS,
)
from .sbp_verify import (
    DissipationCertificate,
    SBPReport,
    check_periodic_sbp,
    check_upwind_sbp,
    check_energy_decay,
    sbp_report,
)
from .time_integration import (
    IMEXTableau,
    builtin_tableau,
    imex_step,
    stable_ars_step,
    explicit_limit_step,
    implicit_midpoint_heat_step,
)
from .models import (
    TelegraphSystem,
    telegraph_system,
    heat_system,
    exact_telegraph,
    decay_rate,
    well_prepared_init,
    energy,
)
from .results import ResultTable
from .experiments import (
    run_convergence,
    run_asymptotic,
    run_condition,
    run_heat_implicit,
    run_sbp_report,
    weighted_condition_number,
)

__version__ = "0.1.0"
