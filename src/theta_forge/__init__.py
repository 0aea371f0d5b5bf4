"""Compound-matrix multilinear algebra, Siegel theta evaluation, and an
identity-verification harness for vector-valued modular forms."""

from .errors import (
    ConvergenceError,
    DegenerateBasePointError,
    DomainError,
    ExpressionParseError,
    NumericalDegeneracyError,
)
from .multilinear import (
    CompoundMatrix,
    box_product,
    compound,
    cofactor_tensor,
    from_matrix,
    hodge_dual,
    star_product,
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
    second_order_theta,
    theta_eval,
    theta_gradient,
    theta_stencil,
)
from .forms import (
    A_form,
    A_star,
    SecondOrderFactor,
    ThetaConstantFactor,
    ThetaProduct,
    W_of_N,
    audit_transformation,
    eval_product,
    kappa_squared,
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
