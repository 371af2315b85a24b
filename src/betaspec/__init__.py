"""Spectra of rank-one corrections of the shift Toeplitz matrix.

The package constructs the matrix family ``shift + (v - e_1) e^T`` with
``v_j = beta**-j``, computes its spectra at arbitrary precision through the
closed-form characteristic polynomial, and measures clustering on the unit
circle, the two persistent outliers for beta in (1, 2), singular-value
structure, averaged distribution sums, and the exact beta = 1 block
analysis.
"""
from .errors import (
    BetaSpecError,
    ConvergenceFailureError,
    InvalidOrderError,
    InvalidParameterError,
    PoleError,
    PrecisionError,
    RefinementFailureError,
    SingularityError,
    SizeLimitError,
    UnknownTestFunctionError,
    ZeroRootError,
)
from .numerics import (
    DEFAULT_PRECISION_BITS,
    MIN_PRECISION_BITS,
    ExactRational,
    QComplex,
    decimal_str,
    fraction_from_mpf,
    parse_rational,
    parse_scalar,
    with_precision,
)
from .matrices import (
    BetaMatrix,
    BetaParam,
    build_aux_matrix,
    build_beta_matrix,
    build_shifted,
    build_x_block,
    matrix_to_csv,
)
from .charpoly import (
    LimitFunction,
    PrecPoly,
    SparseForm,
    charpoly_closed_form,
    charpoly_strings,
    det_oracle,
    eval_limit,
    limit_derivative,
    poly_to_json,
    reverse_poly,
    sparse_form,
    split_qr,
    symbolic_t,
)
from .rootfind import (
    RootSet,
    optimal_match_distance,
    refine_real_root_reported,
    solve_all,
)
from .spectra import (
    BUILTIN_TEST_FUNCTIONS,
    ClusterReport,
    ConditionReport,
    OutlierRecord,
    TestFunction,
    WeylReport,
    cluster_count,
    condition_bound_check,
    eigenvalues,
    find_outliers,
    quasi_normality_gap,
    singular_values,
    weyl_sum,
)
from .limitcase import (
    AsymptoticFit,
    PowerTrace,
    first_component_reference,
    kernel_vector,
    lambda_max_beta1,
    power_method_trace,
)

__version__ = "0.1.0"
