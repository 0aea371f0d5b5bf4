"""Independent reference implementations used only by the test suite.

These deliberately avoid the production code paths: determinants by
first-row cofactor recursion, signs by explicit inversion counting, set
predicates by brute-force enumeration.
"""

import itertools
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


def classify_triples(chars):
    """Brute-force azygetic / syzygetic classification of a set."""
    parities = set()
    for trip in itertools.combinations(chars, 3):
        mp = [sum(t.m_prime[i] for t in trip) % 2 for i in range(trip[0].g)]
        mpp = [sum(t.m_double_prime[i] for t in trip) % 2 for i in range(trip[0].g)]
        parities.add(sum(a * b for a, b in zip(mp, mpp)) % 2)
    return parities


def brute_essentially_independent(chars):
    chars = list(chars)
    for size in range(2, len(chars) + 1, 2):
        for combo in itertools.combinations(chars, size):
            mp = [sum(t.m_prime[i] for t in combo) % 2 for i in range(combo[0].g)]
            mpp = [
                sum(t.m_double_prime[i] for t in combo) % 2 for i in range(combo[0].g)
            ]
            if not any(mp) and not any(mpp):
                return False
    return True


def frac_matrix_from_ints(ints):
    import numpy as np

    g = len(ints)
    M = np.empty((g, g), dtype=object)
    for i in range(g):
        for j in range(g):
            M[i, j] = Fraction(int(ints[i][j]))
    return M


# ---------------------------------------------------------------------------
# radius selection: the original scalar loop, one radius at a time


def loop_one_dim_sums(lam, b, half_offset, radius, weighted, span=64):
    """Full and tail sums of the per-coordinate envelope at one radius."""
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


def loop_choose_radius(lam, b, m_prime, policy, weighted, max_radius=24):
    """Raise the radius from the policy floor until the bound clears the goal."""
    from theta_forge.errors import ConvergenceError

    goal = policy.target_tol / 20.0 if policy.adaptive else policy.target_tol
    radius = max(policy.radius, 1)
    while radius <= max_radius:
        bound = loop_tail_bound(lam, b, m_prime, radius, weighted)
        if bound < goal:
            return radius, bound
        radius += 1
    raise ConvergenceError(f"no radius <= {max_radius} reaches the goal")


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
