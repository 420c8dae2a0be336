"""Weighted l1 and least-squares approximation from scattered 1-D samples."""

from .basis import (
    BasisSpec,
    chebyshev,
    eval_basis,
    eval_deriv,
    eval_table,
    fourier,
    frequencies,
    growth_exponent,
    jacobi,
    kappa,
    leading_indices,
    legendre,
    linf_norm,
    linf_norms,
    project_coefficients,
)
from .grid import (
    DegenerateGridError,
    PointSet,
    build_pointset,
    discrete_inner_product,
    generate,
    load_points,
    save_points,
)
from .sampling import (
    SamplingMatrix,
    WeightVector,
    build_matrix,
    choose_K,
    default_weights,
    make_weights,
    smallest_nonzero_singular_value,
)
from .solver import (
    SamplingProblem,
    SolveResult,
    l1_objective,
    lp_oracle,
    make_problem,
    oracle_least_squares,
    solve_least_squares,
    solve_weighted_l1,
    sup_error,
    synthesize,
)
from .diagnostics import (
    CertificateResult,
    DiagnosticsReport,
    check_dual_certificate,
    compute_E,
    compute_F,
    scaling_study,
    truncation_bound,
    write_report_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
