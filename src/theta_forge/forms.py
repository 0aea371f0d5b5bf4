"""Scalar theta products and the vector-valued constructions built on them.

A ThetaProduct is a formal product of weight-1/2 factors: theta constants
with even characteristics and second-order theta constants.  On top of it
sit the derivative brackets, the Wronskian-type A-forms, the two pairings,
the gradient-wedge forms, and the compound-matrix group action used to
audit transformation laws.  Every form value is a plain CompoundMatrix:
``W_of_N`` builds the generators of V_grad (wedges of odd theta
gradients) and ``A_star`` those of V_Theta (star products of second-order
A-forms).  A value of k factors lives at level g - k, so the audit reads
its law off the value: rho_k with the multiplier kappa^{2k}, measured by
``kappa_squared``, times the squared phase of each odd characteristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConvergenceError, DegenerateBasePointError, DomainError, ExpressionParseError
from .indexkit import subset_tuples
from .multilinear import (
    CompoundMatrix,
    box_many,
    cofactor_tensor,
    from_matrix,
    hodge_dual,
    scalar_compound,
    star_product,
    wedge_outer,
    zero_compound,
)
from .symplectic import (
    Characteristic,
    SiegelPoint,
    SymplecticElement,
    act_on_tau,
    automorphy_factor,
    even_characteristics,
    integer_entries,
    membership,
    parity,
    phi_factor,
)
from .theta import (
    ThetaValue,
    TruncationPolicy,
    second_order_theta,
    theta_eval,
    theta_gradient,
)


@dataclass(frozen=True)
class ThetaConstantFactor:
    """A theta constant with an even characteristic."""

    char: Characteristic

    def __post_init__(self):
        if parity(self.char) != 0:
            raise DomainError("theta-constant factors need an even characteristic")

    @property
    def g(self) -> int:
        return self.char.g


@dataclass(frozen=True)
class SecondOrderFactor:
    """A second-order theta constant."""

    eps: tuple[int, ...]

    def __post_init__(self):
        eps = integer_entries(self.eps, "second-order label")
        if any(x not in (0, 1) for x in eps):
            raise DomainError("second-order label entries must be 0 or 1")
        object.__setattr__(self, "eps", eps)

    @property
    def g(self) -> int:
        return len(self.eps)


Factor = Union[ThetaConstantFactor, SecondOrderFactor]


def _bits(seq) -> str:
    return ",".join(str(int(x)) for x in seq)


def _factor_label(factor: Factor) -> str:
    """The factor in the expression syntax: T[m'|m''] or S[eps]."""
    if isinstance(factor, ThetaConstantFactor):
        return f"T[{_bits(factor.char.m_prime)}|{_bits(factor.char.m_double_prime)}]"
    return f"S[{_bits(factor.eps)}]"


@dataclass(frozen=True)
class ThetaProduct:
    """A formal product of weight-1/2 factors at a fixed genus."""

    g: int
    factors: tuple[Factor, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        for f in factors:
            if f.g != self.g:
                raise DomainError("factor genus differs from product genus")
        object.__setattr__(self, "factors", factors)

    def __len__(self):
        return len(self.factors)

    def power(self, n: int) -> "ThetaProduct":
        return ThetaProduct(self.g, self.factors * n)

    def label(self) -> str:
        return "*".join(map(_factor_label, self.factors)) if self.factors else "1"


def theta_constant_product(g: int, *chars: Characteristic) -> ThetaProduct:
    return ThetaProduct(g, tuple(ThetaConstantFactor(c) for c in chars))


def second_order_product(g: int, *labels) -> ThetaProduct:
    return ThetaProduct(g, tuple(SecondOrderFactor(tuple(e)) for e in labels))


def _factor_theta(factor: Factor, tau, policy, want_dtau: bool = False) -> ThetaValue:
    """The factor's ThetaValue, with its tau-derivative matrix if ``want_dtau``."""
    if isinstance(factor, ThetaConstantFactor):
        return theta_eval(factor.char, tau, None, policy, want_tau_derivative=want_dtau)
    return second_order_theta(factor.eps, tau, None, policy, want_tau_derivative=want_dtau)


def eval_product(f: ThetaProduct, tau, policy: TruncationPolicy | None = None) -> complex:
    """Value of the product at the base point (empty product is 1)."""
    out = complex(1.0)
    for factor in f.factors:
        out *= _factor_theta(factor, tau, policy).value
    return out


def partial_bracket(
    f: ThetaProduct, k: int, tau, policy: TruncationPolicy | None = None
) -> CompoundMatrix:
    """Order-k minor bracket of the weighted derivative matrix applied to f.

    Expanded by the product rule down to per-factor first derivatives: with
    l factors the result is k! times the sum over k-subsets of factor slots
    of (product of remaining values) times the box product of the selected
    derivative matrices.  More derivative slots than factors gives the
    structural zero matrix; each factor is rank one, so its own higher
    minors vanish identically.
    """
    g = f.g
    if k < 0 or k > g:
        raise DomainError(f"bracket order k={k} outside 0..{g}")
    factors = f.factors
    l = len(factors)
    if k > l:
        return zero_compound(g, k)
    # the values come with the derivative evaluations, at k = 0 too
    evals = [_factor_theta(factor, tau, policy, True) for factor in factors]
    values = [e.value for e in evals]
    if k == 0:
        return scalar_compound(g, math.prod(values, start=complex(1.0)))
    dmats = [from_matrix(e.tau_derivative) for e in evals]
    total = zero_compound(g, k)
    for subset in subset_tuples(l, k):
        chosen = set(subset)
        coeff = complex(1.0)
        for pos in range(1, l + 1):
            if pos not in chosen:
                coeff *= values[pos - 1]
        term = box_many([dmats[pos - 1] for pos in subset])
        total = total + term.scale(coeff)
    return total.scale(float(math.factorial(k)))


def A_form(
    f: ThetaProduct, h: ThetaProduct, tau, policy: TruncationPolicy | None = None
) -> CompoundMatrix:
    """The Wronskian-type matrix f * (d h) - (d f) * h for two single factors."""
    if len(f) != 1 or len(h) != 1:
        raise DomainError("A_form needs single-factor products")
    if f.g != h.g:
        raise DomainError("genus mismatch")
    fv = _factor_theta(f.factors[0], tau, policy, True)
    hv = _factor_theta(h.factors[0], tau, policy, True)
    # both products scalar-first so swapping (f, h) negates entries bit-exactly
    return from_matrix(fv.value * hv.tau_derivative - hv.value * fv.tau_derivative)


def A_star(pairs, tau, policy: TruncationPolicy | None = None) -> CompoundMatrix:
    """The V_Theta generator: the star product of the A-forms of the
    second-order pairs (eps, delta), at level g - len(pairs)."""
    return star_product(*[
        A_form(second_order_product(len(e), e), second_order_product(len(d), d), tau, policy)
        for e, d in pairs
    ])


def pairing_brace(
    f: ThetaProduct,
    h: ThetaProduct,
    k: int,
    tau,
    policy: TruncationPolicy | None = None,
) -> CompoundMatrix:
    """Alternating box-product pairing of the derivative brackets of f and h."""
    g = f.g
    if k < 1 or k > g:
        raise DomainError(f"pairing order k={k} outside 1..{g}")
    total = zero_compound(g, k)
    for p in range(k + 1):
        left = partial_bracket(f, p, tau, policy)
        right = partial_bracket(h, k - p, tau, policy)
        total = total + box_many([left, right]).scale((-1.0) ** p)
    return total


def pairing_bracket(
    f: ThetaProduct,
    h: ThetaProduct,
    k: int,
    tau,
    policy: TruncationPolicy | None = None,
) -> CompoundMatrix:
    """Complementary-index companion of the brace pairing, at level g - k."""
    return hodge_dual(pairing_brace(f, h, k, tau, policy))


def W_of_N(
    chars: Sequence[Characteristic], tau, policy: TruncationPolicy | None = None
) -> CompoundMatrix:
    """Scaled outer product of the wedge of odd theta gradients."""
    chars = list(chars)
    if not chars:
        raise DomainError("W_of_N needs at least one characteristic")
    if len(set(chars)) != len(chars):
        raise DomainError("W_of_N characteristics must be distinct")
    for n in chars:
        if parity(n) != 1:
            raise DomainError(f"characteristic {n.label()} is even")
    g = chars[0].g
    k = len(chars)
    if k > g:
        raise DomainError(f"too many characteristics: {k} > {g}")
    V = np.array([theta_gradient(n, tau, policy) for n in chars])
    return wedge_outer(V).scale(float(np.pi) ** (-2 * k))


def rho_k_action(M: np.ndarray, X: CompoundMatrix) -> CompoundMatrix:
    """The weight-(k+2,..,k+2,k,..,k) action on a compound-matrix value.

    ``X`` lives at level g-k, the complementary-index coordinates of the
    star products and gradient wedges, where the multiplier matrix is the
    cofactor tensor of order g-k of M (the Hodge twist of its k-th
    compound), scaled by det(M)^k; k is read off the level, and a level-g
    value raises ``DomainError`` from ``cofactor_tensor``.
    """
    M = np.asarray(M, dtype=complex)
    if X.ambient != M.shape[0]:
        raise DomainError("ambient mismatch between M and X")
    lam = cofactor_tensor(M, X.level).entries
    det_k = complex(np.linalg.det(M)) ** (X.ambient - X.level)
    return CompoundMatrix(X.ambient, X.level, det_k * (lam @ X.entries @ lam.T))


def kappa_probes(tau: SiegelPoint) -> tuple[SiegelPoint, SiegelPoint]:
    """The two points ``kappa_squared`` measures at: ``tau`` and ``tau`` + 0.3i."""
    return tau, SiegelPoint(tau.tau + 0.3j * np.eye(tau.g))


def kappa_squared(
    gamma: SymplecticElement, tau: SiegelPoint, policy: TruncationPolicy | None = None
) -> complex:
    """The squared theta multiplier of a level-2 group element.

    Measured from the even-characteristic transformation law in squared
    form, so no square-root branch of det(C tau + D) is ever chosen.  The
    measurement is repeated over three even characteristics and two base
    points and must agree to 1e-8.
    """
    if not membership(gamma, "Gamma(2)"):
        raise DomainError("kappa_squared requires an element of Gamma(2)")
    g = gamma.g
    samples = []
    for point in kappa_probes(tau):
        image = act_on_tau(gamma, point)
        det_cd = complex(np.linalg.det(automorphy_factor(gamma, point.tau)))
        used = 0
        for m in even_characteristics(g):
            base = theta_eval(m, point, None, policy).value
            if abs(base) < 1e-6:
                continue
            moved = theta_eval(m, image, None, policy).value
            phi2 = phi_factor(m, gamma) ** 2
            samples.append(moved**2 / (phi2 * det_cd * base**2))
            used += 1
            if used == 3:
                break
        if used == 0:
            raise DegenerateBasePointError(
                "all even theta constants vanish at the probe base point"
            )
    mean = sum(samples) / len(samples)
    spread = max(abs(s - mean) for s in samples)
    if spread > 1e-8 * max(1.0, abs(mean)):
        raise ConvergenceError(
            f"kappa^2 probes disagree by {spread:g}; transformation law violated"
        )
    return mean


def law_group(phi_chars) -> str:
    """The congruence group a law holds on: the phase factors of
    ``phi_chars`` are characters of Gamma(2), the bare multiplier power
    needs Gamma(2,4)."""
    return "Gamma(2)" if phi_chars else "Gamma(2,4)"


@dataclass(frozen=True)
class AuditReport:
    residual: float
    multiplier: complex


def audit_transformation(
    value_fn: Callable[[SiegelPoint], CompoundMatrix],
    gamma: SymplecticElement,
    phi_chars: Sequence[Characteristic],
    tau: SiegelPoint,
    policy: TruncationPolicy | None = None,
) -> AuditReport:
    """Compare value_fn at the moved point against the transformed value.

    A value at level g - k transforms by rho_k times kappa^2(gamma)^k and
    the squared phase factor of each characteristic in ``phi_chars``.
    Returns the maximum entrywise deviation relative to the overall scale
    of the two sides.
    """
    needed = law_group(phi_chars)
    if not membership(gamma, needed):
        raise DomainError(f"audited element must lie in {needed}")
    moved = act_on_tau(gamma, tau)
    lhs = value_fn(moved)
    base = value_fn(tau)
    scalar = kappa_squared(gamma, tau, policy) ** (tau.g - base.level)
    for n in phi_chars:
        scalar *= phi_factor(n, gamma) ** 2
    rhs = rho_k_action(automorphy_factor(gamma, tau.tau), base).scale(scalar)
    scale = max(lhs.max_abs(), rhs.max_abs(), 1e-30)
    residual = float(np.max(np.abs(lhs.entries - rhs.entries)) / scale)
    return AuditReport(residual=residual, multiplier=complex(scalar))


# ---------------------------------------------------------------------------
# textual expression syntax: T[m'|m''] and S[eps] joined with '*'


def parse_theta_expression(text: str) -> ThetaProduct:
    """Parse the product syntax, e.g. ``T[0,1|1,0]*S[1,1]``.

    Raises ExpressionParseError with the offending column on bad syntax;
    the genus is the first factor's, and ``ThetaProduct`` refuses a factor
    of another genus.
    """
    factors: list[Factor] = []
    pos = 0
    n = len(text)

    def skip_ws(p):
        while p < n and text[p].isspace():
            p += 1
        return p

    def parse_bits(p, stop_chars):
        bits = []
        while True:
            p = skip_ws(p)
            if p >= n or text[p] not in "01":
                raise ExpressionParseError("expected a 0 or 1 bit", p)
            bits.append(int(text[p]))
            p = skip_ws(p + 1)
            if p < n and text[p] == ",":
                p += 1
                continue
            if p < n and text[p] in stop_chars:
                return bits, p
            raise ExpressionParseError(
                f"expected ',' or one of {stop_chars!r}", min(p, n - 1) if n else 0
            )

    while True:
        pos = skip_ws(pos)
        if pos >= n:
            raise ExpressionParseError("expected a factor", max(0, n - 1))
        head = text[pos]
        if head not in "TS":
            raise ExpressionParseError("factor must start with 'T' or 'S'", pos)
        pos = skip_ws(pos + 1)
        if pos >= n or text[pos] != "[":
            raise ExpressionParseError("expected '['", min(pos, n - 1))
        pos += 1
        if head == "T":
            mp, pos = parse_bits(pos, "|")
            pos += 1
            mpp, pos = parse_bits(pos, "]")
            pos += 1
            char = Characteristic(tuple(mp), tuple(mpp))
            factors.append(ThetaConstantFactor(char))
        else:
            eps, pos = parse_bits(pos, "]")
            pos += 1
            factors.append(SecondOrderFactor(tuple(eps)))
        pos = skip_ws(pos)
        if pos >= n:
            break
        if text[pos] != "*":
            raise ExpressionParseError("expected '*' between factors", pos)
        pos += 1

    return ThetaProduct(factors[0].g, tuple(factors))
