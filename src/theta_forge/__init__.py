"""Compound-matrix multilinear algebra, Siegel theta evaluation, and an
identity-verification harness for vector-valued modular forms."""

from .errors import (
    ConvergenceError,
    DegenerateBasePointError,
    DomainError,
    ExpressionParseError,
    NumericalDegeneracyError,
)
from .indexkit import IndexSet, enumerate_subsets, sign_sum
from .multilinear import (
    CompoundMatrix,
    box_product,
    compound,
    cofactor_tensor,
    from_matrix,
    hodge_dual,
    star_product,
    submatrix_det,
    wedge_outer,
)
from .symplectic import (
    Characteristic,
    SiegelPoint,
    SymplecticElement,
    act_on_tau,
    generate_subgroup_element,
    membership,
    parity,
    phi_factor,
    sample_siegel_point,
)
from .theta import (
    ThetaValue,
    TruncationPolicy,
    kappa_squared,
    second_order_theta,
    theta_eval,
    theta_gradient,
    theta_stencil,
    theta_tau_derivative,
)
from .forms import (
    A_form,
    A_star,
    MultiplierSpec,
    SecondOrderFactor,
    ThetaConstantFactor,
    ThetaProduct,
    W_of_N,
    audit_transformation,
    eval_product,
    pairing_brace,
    pairing_bracket,
    parse_theta_expression,
    partial_bracket,
    rho_k_action,
)
from .identities import (
    IdentityReport,
    check_exact_layer,
    check_gsm_backward,
    check_gsm_forward,
    check_jacobi,
    check_main_theorem,
    check_omega_consistency,
    reports_to_json,
    run_suite,
)

__version__ = "0.1.0"
