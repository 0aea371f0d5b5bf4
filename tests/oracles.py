"""Independent reference implementations used only by the test suite.

These deliberately avoid the production code paths: determinants by
first-row cofactor recursion, signs by explicit inversion counting.
"""

import functools
import itertools
import math
from fractions import Fraction


def laplace_det(rows):
    """Determinant by recursive first-row cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for col in range(n):
        minor = [r[:col] + r[col + 1 :] for r in rows[1:]]
        term = rows[0][col] * laplace_det(minor)
        total = total + (term if col % 2 == 0 else -term)
    return total


def det_of_array(arr):
    return laplace_det([list(row) for row in arr])


def inversion_sign(seq):
    seq = list(seq)
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv % 2 else 1


def frac_matrix_from_ints(ints):
    import numpy as np

    g = len(ints)
    M = np.empty((g, g), dtype=object)
    for i in range(g):
        for j in range(g):
            M[i, j] = Fraction(int(ints[i][j]))
    return M


# ---------------------------------------------------------------------------
# compound-matrix algebra: the original scalar loops


def fraction_det(a):
    """Exact determinant by Gaussian elimination over Fractions."""
    n = a.shape[0]
    if n == 0:
        return Fraction(1)
    rows = [[Fraction(x) for x in row] for row in a.tolist()]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / Fraction(rows[col][col])
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return det


def formula_det(a):
    """Float determinant of order <= 3 by the textbook cofactor formulas,
    one scalar product at a time, as a complex."""
    n = a.shape[0]
    if n == 0:
        return complex(1.0)
    if n == 1:
        return complex(a[0, 0])
    if n == 2:
        return complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    if n == 3:
        return complex(
            a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
        )
    raise ValueError(f"no closed formula at order {n}")


def _split_sign(sub, within):
    """(-1) to the sum of the 1-based positions of ``sub`` inside ``within``."""
    return -1 if sum(within.index(v) + 1 for v in sub) % 2 else 1


def loop_box_product(A, B):
    """Entries of the box product of two compounds, one scalar term at a time.

    For each output entry (H, K) it sums A[I, J] * B[H - I, K - J] with the
    sign of the positions of I in H and J in K, over the p-subsets I, J, in
    that order, then scales by 1 / C(p+q, p): a Fraction for exact entries.
    """
    import numpy as np

    g, p, q = A.ambient, A.level, B.level
    if p == 0:
        return B.scale(A.scalar()).entries
    if q == 0:
        return A.scale(B.scalar()).entries
    exact = A.entries.dtype == object and B.entries.dtype == object
    subsets = {k: list(itertools.combinations(range(1, g + 1), k)) for k in (p, q, p + q)}
    rank = {k: {s: i for i, s in enumerate(subs)} for k, subs in subsets.items()}
    side = len(subsets[p + q])
    out = np.empty((side, side), dtype=object if exact else complex)
    norm = Fraction(1, math.comb(p + q, p)) if exact else 1.0 / math.comb(p + q, p)
    for h, H in enumerate(subsets[p + q]):
        for k, K in enumerate(subsets[p + q]):
            acc = 0
            for I in itertools.combinations(H, p):
                Ic = tuple(i for i in H if i not in I)
                for J in itertools.combinations(K, p):
                    Jc = tuple(j for j in K if j not in J)
                    term = (
                        A.entries[rank[p][I], rank[p][J]] * B.entries[rank[q][Ic], rank[q][Jc]]
                    )
                    sign = _split_sign(I, H) * _split_sign(J, K)
                    acc = acc + (term if sign > 0 else -term)
            out[h, k] = acc * norm
    return out


def loop_box_many(factors):
    """Left fold of ``loop_box_product``, normalizing at every step."""
    from theta_forge.multilinear import CompoundMatrix

    acc = factors[0]
    for f in factors[1:]:
        acc = CompoundMatrix(acc.ambient, acc.level + f.level, loop_box_product(acc, f))
    return acc.entries


# ---------------------------------------------------------------------------
# radius selection: the original scalar loop, one radius at a time


@functools.lru_cache(maxsize=4096)
def loop_one_dim_sums(lam, b, half_offset, radius, weighted, span=64):
    """Full and tail sums of the per-coordinate envelope at one radius
    (memoised: the box and cube searches ask for the same sums often)."""
    import numpy as np

    from theta_forge.errors import ConvergenceError

    u = 0.5 if half_offset else 0.0
    total = 0.0
    tail = 0.0
    for j in range(-span, span + 1):
        x = j + u
        w = (2.0 + 2.0 * np.pi * x * x) if weighted else 1.0
        term = w * np.exp(-np.pi * lam * x * x + 2.0 * np.pi * b * abs(x))
        total += term
        if abs(x) > radius:
            tail += term
    edge = (2.0 + 2.0 * np.pi * span**2) * np.exp(
        -np.pi * lam * span**2 + 2.0 * np.pi * b * span
    )
    if edge > 1e-30:
        raise ConvergenceError("tail bound unreliable: envelope too flat")
    return total, tail


def loop_tail_bound(lam, b, m_prime, radius, weighted):
    per_coord = [loop_one_dim_sums(lam, b, u == 1, radius, weighted) for u in m_prime]
    bound = 0.0
    for i in range(len(per_coord)):
        prod = per_coord[i][1]
        for j in range(len(per_coord)):
            if j != i:
                prod *= per_coord[j][0]
        bound += prod
    return bound


def loop_axis_bound(lam, mus, b, m_prime, axis, radius, weighted,
                    splits=(0.0, 0.25, 0.5, 0.75, 0.875)):
    """Envelope mass of the points with |x_axis| > radius, one split at a
    time: x^T Y x >= (1 - t) lam |x|^2 + t mu_axis x_axis^2, so the mass is
    at most the axis's tail at rate (1 - t) lam + t mu_axis times the other
    coordinates' totals at rate (1 - t) lam.  Splits whose rate (1 - t) lam
    is too flat are skipped, and nan (0 * inf) counts as no bound."""
    from theta_forge.errors import ConvergenceError

    best = math.inf
    usable = False
    for t in splits:
        base = (1.0 - t) * lam
        try:
            per_coord = [loop_one_dim_sums(base, b, u == 1, radius, weighted) for u in m_prime]
        except ConvergenceError:
            continue
        usable = True
        _, tail = loop_one_dim_sums(base + t * mus[axis], b, m_prime[axis] == 1, radius,
                                    weighted)
        # the totals first: a tail that underflows to 0 times totals that
        # overflow is nan, not a bound of 0
        others = 1.0
        for j, (total, _) in enumerate(per_coord):
            if j != axis:
                others *= total
        prod = tail * others
        if not math.isnan(prod):
            best = min(best, prod)
    if not usable:
        raise ConvergenceError("tail bound unreliable: envelope too flat")
    return best


def loop_choose_radius(lam, b, m_prime, policy, weighted, max_radius=24):
    """Raise the radius from 1 until the bound clears target_tol / 20."""
    from theta_forge.errors import ConvergenceError

    goal = policy.target_tol / 20.0
    radius = 1
    while radius <= max_radius:
        bound = loop_tail_bound(lam, b, m_prime, radius, weighted)
        if bound < goal:
            return radius, bound
        radius += 1
    raise ConvergenceError(f"no radius <= {max_radius} reaches the goal")


def loop_choose_box(lam, mus, b, m_prime, policy, weighted, max_radius=24):
    """Raise each axis's width from 1 until its bound clears
    target_tol / 20 / g; return the widths and the sum of the axes' bounds
    at width + 1."""
    from theta_forge.errors import ConvergenceError

    g = len(m_prime)
    goal = policy.target_tol / 20.0 / g
    widths = []
    for axis in range(g):
        width = 1
        while loop_axis_bound(lam, mus, b, m_prime, axis, width, weighted) >= goal:
            width += 1
            if width > max_radius:
                raise ConvergenceError(f"no width <= {max_radius} reaches the goal")
        widths.append(width)
    est_tail = sum(loop_axis_bound(lam, mus, b, m_prime, axis, w + 1, weighted)
                   for axis, w in enumerate(widths))
    return tuple(widths), est_tail


def box_sum(tau, z, m_prime, m_double, radius):
    """Theta value, z-gradient and weighted tau-derivative summed directly
    over the box of shifted lattice points with |coordinate| <= radius.

    Also returns, per slot, the sum of |weight * term| over the box, the
    scale of the rounding error of any sum of these terms.
    """
    import numpy as np

    g = len(m_prime)
    n = np.arange(-radius, radius + 1, dtype=float)
    P = np.stack([a.ravel() for a in np.meshgrid(*([n] * g), indexing="ij")], axis=1)
    P = P + np.asarray(m_prime, dtype=float) / 2.0
    y = np.asarray(z, dtype=complex) + np.asarray(m_double, dtype=float) / 2.0
    w = 0.5 * np.einsum("na,ab,nb->n", P, tau, P) + P @ y
    terms = np.exp(2j * np.pi * w)
    value = terms.sum()
    grad = 2j * np.pi * (P * terms[:, None]).sum(axis=0)
    dtau = 1j * np.pi * np.einsum("n,na,nb->ab", terms, P, P)
    mag = np.abs(terms)
    abs_sums = (
        mag.sum(),
        2 * np.pi * (np.abs(P) * mag[:, None]).sum(axis=0),
        np.pi * np.einsum("n,na,nb->ab", mag, np.abs(P), np.abs(P)),
    )
    return (value, grad, dtau), abs_sums


def mp_theta(tau, m_prime, m_double, z=None, dps=30, tol=1e-25):
    """Theta value, z-gradient and weighted tau-derivative summed in mpmath
    at ``dps`` digits, for genus g <= 3.

    The sum runs over the cube |x_i| <= R of shifted lattice points x, with
    R the first radius whose Gaussian bound on the mass outside the cube is
    below ``tol``: with lam = lambda_min(Im tau) and c_i = |Im z_i|,
    |term| <= prod_i exp(-pi lam x_i^2 + 2 pi c_i |x_i|), and every
    derivative weight (1, 2 pi |x_a|, pi |x_a x_b|) is at most
    pi prod_i (1 + x_i^2).  Returns ``(slots, scales)``: the three slots as
    Python complex numbers, and per slot the sum of |weight * term| times
    (1 + |exponent|), with exponent 2 pi i (x tau x / 2 + x y) of each term,
    the scale of the rounding of a double-precision sum of the same terms.
    """
    import mpmath
    import numpy as np

    tau = np.asarray(tau, dtype=complex)
    g = tau.shape[0]
    z = np.zeros(g, dtype=complex) if z is None else np.asarray(z, dtype=complex)
    lam = float(np.linalg.eigvalsh(tau.imag)[0])
    span = np.arange(-200, 201, dtype=float)

    def envelope(u, c):
        x = np.abs(span + 0.5 * u)
        return x, (1.0 + x * x) * np.exp(-np.pi * lam * x * x + 2.0 * np.pi * c * x)

    env = [envelope(u, abs(c)) for u, c in zip(m_prime, z.imag)]
    radius = 1
    while True:
        bound = sum(
            e[ax > radius].sum() * math.prod(f.sum() for j, (_, f) in enumerate(env) if j != i)
            for i, (ax, e) in enumerate(env)
        )
        if np.pi * bound < tol:
            break
        radius += 1

    pairs = [(a, b) for a in range(g) for b in range(a, g)]
    with mpmath.workdps(dps):
        # x tau x / 2 = sum over a <= b of x_a x_b times tau_ab (halved on the diagonal)
        coef = [mpmath.mpc(complex(tau[a, b])) / (2 if a == b else 1) for a, b in pairs]
        y = [mpmath.mpc(complex(v)) + mpmath.mpf(d) / 2 for v, d in zip(z, m_double)]
        two_pi_i = mpmath.mpc(0, 2) * mpmath.pi
        value = mpmath.mpc(0)
        grad = [mpmath.mpc(0)] * g
        dtau = [mpmath.mpc(0)] * len(pairs)
        scales = [0.0, np.zeros(g), np.zeros((g, g))]
        for n in itertools.product(range(-radius, radius + 1), repeat=g):
            x = [mpmath.mpf(k) + mpmath.mpf(u) / 2 for k, u in zip(n, m_prime)]
            if any(abs(v) > radius for v in x):
                continue
            xx = [x[a] * x[b] for a, b in pairs]
            w = mpmath.fsum(c * v for c, v in zip(coef, xx)) + mpmath.fsum(
                v * t for v, t in zip(x, y))
            exponent = two_pi_i * w
            term = mpmath.exp(exponent)
            value += term
            for a in range(g):
                grad[a] += x[a] * term
            for k, v in enumerate(xx):
                dtau[k] += v * term
            size = float(abs(term)) * (1.0 + float(abs(exponent)))
            xf = np.abs([float(v) for v in x])
            scales[0] += size
            scales[1] += 2 * np.pi * xf * size
            scales[2] += np.pi * np.outer(xf, xf) * size
        dmat = np.zeros((g, g), dtype=complex)
        for (a, b), v in zip(pairs, dtau):
            dmat[a, b] = dmat[b, a] = complex(two_pi_i / 2 * v)
        slots = (complex(value), np.array([complex(two_pi_i * v) for v in grad]), dmat)
    return slots, tuple(scales)


# ---------------------------------------------------------------------------
# the main theorem's V_grad side as the original sum of W-forms


def w_form_sum(pairs, tau):
    """The V_grad side of the main theorem summed W-form by W-form.

    Every choice of one signed odd characteristic per pair from the
    A-form's odd expansion contributes the product of the signs times
    ``W_of_N`` of the chosen characteristics; a choice that repeats a
    characteristic has a vanishing wedge and is skipped.  Returns the sum
    and the entrywise sum of |term|, the scale of its rounding error.
    """
    import numpy as np

    from theta_forge.forms import W_of_N
    from theta_forge.identities import _odd_expansion

    total = scale = 0
    for combo in itertools.product(*[_odd_expansion(e, d) for e, d in pairs]):
        chars = [c for _, c in combo]
        if len(set(chars)) < len(chars):
            continue
        term = math.prod(s for s, _ in combo) * W_of_N(chars, tau).entries
        total = total + term
        scale = scale + np.abs(term)
    return total, scale


# ---------------------------------------------------------------------------
# certified boxes and group words: the array code the evaluator replaced
# with merged passes, kept as its bit-for-bit reference


def array_envelope_sums(lams, b, halves, weighted):
    """Full and tail sums of the per-coordinate envelope, row k at rate
    ``lams[k]`` over Z + ``halves[k]`` / 2, one array operation at a time:
    ``(flat, totals, tails)`` as ``theta._axis_bounds`` reads them."""
    import numpy as np

    from theta_forge.theta import _MAX_RADIUS, _ONE_DIM_SPAN, _SPAN

    # the number of points of the span with |x| > r for r = -1 .. _MAX_RADIUS + 1
    count = (_SPAN[:, None, :] > np.arange(-1, _MAX_RADIUS + 2)[:, None]).sum(axis=-1)
    lams = np.asarray(lams, dtype=float)[:, None]
    edge = (2.0 + 2.0 * np.pi * _ONE_DIM_SPAN**2) * np.exp(
        -np.pi * lams[:, 0] * _ONE_DIM_SPAN**2 + 2.0 * np.pi * b * _ONE_DIM_SPAN
    )
    halves = np.asarray(halves)
    x = _SPAN[halves]
    terms = np.exp(-np.pi * lams * x * x + 2.0 * np.pi * b * x)
    if weighted:
        terms = (2.0 + 2.0 * np.pi * x * x) * terms
    running = np.cumsum(terms, axis=-1)
    sums = np.take_along_axis(running, count[halves] - 1, axis=-1)
    return edge > 1e-30, sums[:, 0], sums[:, 1:]


def array_axis_bounds(lam, mus, b, m_prime, weighted):
    """``theta._axis_bounds`` over rows of every split and offset, laid out
    one after another: the bounds of each m' per axis and radius, and its
    rounding envelope."""
    import numpy as np

    from theta_forge.errors import ConvergenceError
    from theta_forge.theta import _SPLITS

    g, k = len(mus), len(_SPLITS)
    u = np.asarray(m_prime)
    base = (1.0 - _SPLITS) * lam
    own = (base + _SPLITS * np.asarray(mus)[:, None]).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        flat, totals, tails = array_envelope_sums(
            np.concatenate([base, base, own, own]), b,
            np.repeat([0, 1, 0, 1], [k, k, g * k, g * k]), weighted)
        usable = ~flat[:k]
        if not usable.any():
            raise ConvergenceError("tail bound unreliable: envelope too flat")
        per_axis = totals[: 2 * k].reshape(2, k)[u]
        others = np.prod(np.where(np.eye(g, dtype=bool)[:, :, None], 1.0,
                                  per_axis[..., None, :, :]), axis=-2)
        per_split = tails[2 * k :].reshape(2, g, k, -1)[u, np.arange(g)] * others[..., None]
        keep = usable[:, None] & ~np.isnan(per_split)
        bounds = np.where(keep, per_split, np.inf).min(axis=-2)
        return bounds, np.prod(per_axis[..., 0], axis=-1)


def array_choose_boxes(lam, mus, b, policy, weighted, max_radius=24):
    """``theta._choose_boxes`` from ``array_axis_bounds``: per m' in
    lexicographic order its widths, est_tail and rounding envelope."""
    import numpy as np

    m_primes = list(itertools.product((0, 1), repeat=len(mus)))
    bounds, envelopes = array_axis_bounds(lam, mus, b, m_primes, weighted)
    hits = bounds[..., 1 : max_radius + 1] < policy.target_tol / 20.0 / len(mus)
    widths = np.where(hits.any(axis=-1), 1 + hits.argmax(axis=-1), 0)
    tails = np.take_along_axis(bounds, widths[..., None] + 1, axis=-1)[..., 0].sum(axis=-1)
    return np.column_stack([widths, tails, envelopes])


def stepwise_subgroup_element(group, g, seed, word_length):
    """``symplectic.generate_subgroup_element`` with every partial product
    built, and so validated, as a ``SymplecticElement``."""
    import numpy as np

    from theta_forge.symplectic import SymplecticElement, _generator_pool, membership

    pool = _generator_pool(group, g)
    rng = np.random.default_rng([seed, g, word_length, len(pool)])
    word = SymplecticElement.identity(g)
    for _ in range(word_length):
        word = word @ pool[int(rng.integers(len(pool)))]
    assert membership(word, group)
    return word


def blockwise_act_on_tau(gamma, point):
    """``symplectic.act_on_tau`` with each float block converted on its own."""
    import numpy as np

    from theta_forge.errors import DomainError, NumericalDegeneracyError
    from theta_forge.symplectic import SiegelPoint

    if gamma.g != point.g:
        raise DomainError("genus mismatch between gamma and tau")
    A, B, C, D = (block.astype(float) for block in (gamma.A, gamma.B, gamma.C, gamma.D))
    den = C @ point.tau + D
    if np.linalg.cond(den) > 1e12:
        raise NumericalDegeneracyError("C tau + D is numerically singular")
    res = np.linalg.solve(den.T, (A @ point.tau + B).T).T
    return SiegelPoint((res + res.T) / 2)
