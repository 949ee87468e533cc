"""cubiclab: integer zeros of cubic forms under real linear inequality
constraints, with the exact and numerical apparatus to study them."""

__version__ = "0.1.0"

from .errors import (
    CubicLabError,
    DimensionMismatch,
    EmptyZeroSet,
    InconsistentBounds,
    NotConverged,
    ResourceLimit,
    SandwichViolation,
    SplitUnavailable,
    ToleranceNotMet,
)
from .forms_core import (
    CubicForm,
    HDecomposition,
    LinearForm,
    LinearSystem,
    QuadraticForm,
    eval_cubic,
    eval_linear,
    find_rational_linear_space,
    grad_cubic,
    h_bounds,
    load_cubic_form,
    load_h_decomposition,
    load_linear_system,
    taxicab_decomposition,
    taxicab_form,
    verify_h_decomposition,
)
from .lattice_enum import (
    CountQuery,
    CountResult,
    count,
    enumerate_zeros,
    indicator_U,
    weight_w,
)
from .exp_sums import (
    ExpSumValue,
    complete_sum,
    complete_sum_crt,
    irrationality_F,
    osc_integral_I,
    osc_integral_Iu,
    poisson_residual,
    sbound_check,
    sum_g,
)
from .kernels import KernelParams, choose_T, kernel_K, kernel_hat, sandwich_check
from .singular_series import (
    LocalDensity,
    PadicCertificate,
    find_nonsingular_padic_zero,
    local_density,
    local_factor_via_sums,
    positivity_report,
    singular_series_truncated,
)
from .singular_integral import (
    DensityEstimate,
    chi_w_estimate,
    chi_w_oscillatory,
    intbox_check,
    psi_L,
    schmidt_IL,
)
from .equidist import DiscrepancyStat, WeylStat, discrepancy, equidist_experiment, weyl_sum
from .linear_construction import (
    IntegerKernelBasis,
    ReducedSystem,
    integer_kernel,
    reduce_linear_system,
    solve_system,
)
