"""qbsde: a numerical laboratory for quadratic BSDEs with path-dependent data.

Euler-Maruyama forward simulation (simulate_tangent returns a bundle's
first-variation process as an array on request; no experiment run computes
it), regression-based backward solvers for quadratic drivers with smooth
z-truncation, closed-form oracles, and diagnostics for the
growth/integrability estimates that govern uniqueness classes.
"""

__version__ = "0.2.0"

from .errors import (
    CapabilityMissing,
    DiagnosticsOverflow,
    DriverEvaluationError,
    InvalidArgument,
    OracleOverflow,
    QbsdeError,
    ReportIncomplete,
    ResourceLimit,
    SchemaViolation,
    SimulationDiverged,
    SolverDiverged,
    UnknownRegistryName,
)
from .engine import (
    BrownianBundle,
    ModelSpec,
    PathBundle,
    TimeGrid,
    bernoulli_bundle,
    make_grid,
    sample_brownian,
    simulate_forward,
    simulate_tangent,
)
from .generators import (
    GeneratorSpec,
    PathPrefix,
    TruncationSpec,
    canonical_nonconvex_driver,
    eval_driver,
    grad_z,
    prefix_at,
    quadratic_driver,
    terminal_prefix,
    truncate_z,
    validate_growth,
)
from .solvers import (
    BsdeSolution,
    RegressionBasis,
    TreeIndicatorBasis,
    make_tree_bundle,
    polynomial_basis,
    solve_cole_hopf,
    solve_decomposed_additive,
    solve_decomposed_malliavin,
    solve_lsmc,
    solve_tree_exact,
)
from .diagnostics import (
    bmo_estimate,
    class_membership,
    exp_moment_of_samples,
    pstar_from_bmo,
    reverse_holder_phi,
    stochastic_exponential,
    uniqueness_probe,
    z_growth_report,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    build_bundle,
    emit_report,
    load_config,
    run_experiment,
    validate_config,
)
