import fnmatch
import importlib.util
import inspect
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import blockwise_act_on_tau, stepwise_subgroup_element, w_form_sum
from theta_forge import identities, multilinear
from theta_forge import theta as theta_module
from theta_forge.errors import DomainError, NumericalDegeneracyError
from theta_forge.forms import SecondOrderFactor, theta_constant_product
from theta_forge.identities import (
    HESSIAN_BRIDGE,
    IdentityReport,
    check_exact_layer,
    check_gsm_backward,
    check_gsm_forward,
    check_jacobi,
    check_main_theorem,
    conditioned_words,
    reports_to_json,
    run_suite,
)
from theta_forge.symplectic import (
    Characteristic,
    SiegelPoint,
    SymplecticElement,
    even_characteristics,
    membership,
    odd_characteristics,
    sample_siegel_point,
)
from theta_forge.theta import (
    TruncationPolicy,
    clear_caches,
    second_order_theta,
    theta_eval,
    theta_unnormalized,
)


def _tolerances():
    """Row name -> tolerance, from every family's entry in the family table."""
    return {row: tol for _, _, spec in identities._FAMILIES for row, tol in spec.rows.items()}


def _spec(family):
    return next(spec for name, _, spec in identities._FAMILIES if name == family)


def test_gsm_forward_example_g1(rng):
    t = sample_siegel_point(1, rng)
    rep = check_gsm_forward(Characteristic((1,), (1,)), t)
    assert rep.passed and rep.residual < 1e-10
    assert rep.identity_name == "gsm_forward"


def test_gsm_forward_rejects_even(tau_g2):
    with pytest.raises(DomainError):
        check_gsm_forward(Characteristic((0, 0), (0, 0)), tau_g2)


def test_gsm_exhaustive_g2(rng):
    t = sample_siegel_point(2, rng)
    for n in odd_characteristics(2):
        assert check_gsm_forward(n, t).residual < 1e-10
    for eps in itertools.product((0, 1), repeat=2):
        for delta in itertools.product((0, 1), repeat=2):
            assert check_gsm_backward(eps, delta, t).residual < 1e-10


def test_gsm_round_trip_consistency(rng):
    # composing the two directions closes on the A-form values at genus 1
    t = sample_siegel_point(1, rng)
    f = check_gsm_forward(Characteristic((1,), (1,)), t)
    b1 = check_gsm_backward((1,), (0,), t)
    b2 = check_gsm_backward((0,), (1,), t)
    assert f.passed and b1.passed and b2.passed


def test_jacobi_g1_constant(rng):
    taus = [sample_siegel_point(1, rng) for _ in range(5)]
    rep = check_jacobi(taus)
    assert rep.passed
    fitted = complex(*rep.params["fitted_constant"])
    assert fitted == pytest.approx(-np.pi, rel=1e-9)
    assert rep.params["constant_error"] < 1e-9


def test_jacobi_g2_ratio_constancy(rng):
    taus = [sample_siegel_point(2, rng) for _ in range(4)]
    rep = check_jacobi(taus)
    assert rep.passed
    assert rep.params["pairs"] == 15
    # quartic ratio magnitude is the square of the one-dimensional constant
    assert rep.params["mean_ratio_magnitude"] == pytest.approx(np.pi**2, rel=1e-7)


def test_jacobi_fit_stable_under_policy_refinement(rng):
    taus = [sample_siegel_point(1, rng) for _ in range(3)]
    c_default = complex(*check_jacobi(taus).params["fitted_constant"])
    tight = TruncationPolicy(target_tol=1e-14)
    c_tight = complex(*check_jacobi(taus, policy=tight).params["fitted_constant"])
    assert abs(c_default - c_tight) < 1e-9


def test_jacobi_rejects_higher_genus(rng):
    with pytest.raises(DomainError):
        check_jacobi([sample_siegel_point(3, rng)])


def test_main_theorem_g2_k1(rng):
    taus = [sample_siegel_point(2, rng) for _ in range(3)]
    pairs = [((0, 0), (1, 0))]
    rep = check_main_theorem(2, 1, pairs, taus)
    assert rep.passed
    fitted = complex(*rep.params["fitted_constant"])
    assert fitted == pytest.approx(-1j * np.pi / 8, rel=1e-9)
    assert rep.params["constant_error"] < 1e-9


def test_main_theorem_g3_k2(rng):
    taus = [sample_siegel_point(3, rng) for _ in range(3)]
    pairs = [((0, 0, 0), (1, 1, 0)), ((1, 0, 0), (0, 1, 0))]
    rep = check_main_theorem(3, 2, pairs, taus)
    assert rep.passed
    expected = (-1j * np.pi / 16) ** 2 / 2
    assert complex(*rep.params["fitted_constant"]) == pytest.approx(expected, rel=1e-8)


def test_main_theorem_constant_universal(rng):
    taus = [sample_siegel_point(2, rng) for _ in range(3)]
    cs = []
    for pairs in ([((0, 0), (1, 0))], [((0, 1), (1, 1))], [((1, 0), (0, 1))]):
        rep = check_main_theorem(2, 1, pairs, taus)
        assert rep.passed
        cs.append(complex(*rep.params["fitted_constant"]))
    spread = max(abs(c - cs[0]) for c in cs)
    assert spread < 1e-9


def test_main_theorem_fit_stable_under_policy_refinement(rng):
    taus = [sample_siegel_point(2, rng) for _ in range(2)]
    pairs = [((0, 0), (1, 0))]
    c_default = complex(
        *check_main_theorem(2, 1, pairs, taus).params["fitted_constant"]
    )
    tight = TruncationPolicy(target_tol=1e-14)
    c_tight = complex(
        *check_main_theorem(2, 1, pairs, taus, policy=tight).params["fitted_constant"]
    )
    assert abs(c_default - c_tight) < 1e-9


def test_main_theorem_validation(rng):
    taus = [sample_siegel_point(2, rng)]
    with pytest.raises(DomainError):
        check_main_theorem(2, 2, [((0, 0), (1, 0)), ((0, 0), (0, 1))], taus)
    with pytest.raises(DomainError):
        check_main_theorem(2, 1, [((0, 0), (1, 0)), ((0, 0), (0, 1))], taus)
    with pytest.raises(DomainError):
        check_main_theorem(2, 1, [((0, 0), (0, 0))], taus)  # degenerate


def _star_form_against_w_form_sum(pairs, tau):
    # the star of signed gradient sums against the original W-form
    # enumeration, to 16 eps of the largest entrywise sum of |W term|
    _, star = identities._main_theorem_sides(pairs, tau, None)
    w_sum, scale = w_form_sum(pairs, tau)
    assert np.max(np.abs(star - w_sum)) <= 16 * np.finfo(float).eps * np.max(scale)


@pytest.mark.parametrize("g, k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_main_theorem_star_form_matches_w_form_sum(g, k):
    tau = sample_siegel_point(g, np.random.default_rng(g))
    pairs = identities._sample_theorem_pairs(np.random.default_rng(10 * g + k), g, k)
    _star_form_against_w_form_sum(pairs, tau)


def test_main_theorem_star_form_matches_w_form_sum_at_a_shared_characteristic():
    # both pairs expand over the odd [110; alpha], so the W-form sum skips
    # every choice that takes one characteristic twice
    pairs = [((0, 0, 0), (1, 1, 0)), ((1, 1, 0), (0, 0, 0))]
    _star_form_against_w_form_sum(pairs, sample_siegel_point(3, np.random.default_rng(3)))


def _first_sign_flipped(expand):
    def flipped(eps, delta):
        (sgn, n), *rest = expand(eps, delta)
        return [(-sgn, n), *rest]
    return flipped


@pytest.mark.parametrize("g", [2, 3])
def test_main_theorem_fails_under_a_flipped_expansion_sign(monkeypatch, g):
    monkeypatch.setattr(identities, "_odd_expansion",
                        _first_sign_flipped(identities._odd_expansion))
    reports = run_suite([g], seed=0, name_filter="main_theorem*")
    assert reports and not any(rep.passed for rep in reports), [rep.residual for rep in reports]


@pytest.mark.parametrize("g", [1, 2])
def test_jacobi_fails_under_a_scaled_kernel(monkeypatch, g):
    # every lattice sum times 1.5: the two sides of a jacobi constant differ
    # in degree in theta, so the fitted constant leaves its closed form
    kernel = theta_module.class_sums
    monkeypatch.setattr(theta_module, "class_sums",
                        lambda *args, **kw: tuple(1.5 * part for part in kernel(*args, **kw)))
    clear_caches()
    try:
        reports = run_suite([g], seed=0, name_filter="jacobi")
    finally:
        clear_caches()  # no scaled sum outlives the test in the memo
    assert reports and not any(rep.passed for rep in reports), [rep.residual for rep in reports]


@pytest.mark.parametrize("g, pairs", [
    (2, [((0, 0), (1, 0))]),
    (3, [((0, 0, 0), (1, 1, 0)), ((1, 0, 0), (0, 1, 0))]),
])
def test_main_theorem_fails_with_one_base_point_off(monkeypatch, rng, g, pairs):
    # the V_grad side of the second of three base points off by 1e-6
    taus = [sample_siegel_point(g, rng) for _ in range(3)]
    assert check_main_theorem(g, len(pairs), pairs, taus).passed
    sides = identities._main_theorem_sides

    def off(pairs, tau, policy):
        lhs, rhs = sides(pairs, tau, policy)
        return lhs, rhs * (1 + 1e-6) if tau is taus[1] else rhs

    monkeypatch.setattr(identities, "_main_theorem_sides", off)
    assert not check_main_theorem(g, len(pairs), pairs, taus).passed


@pytest.mark.parametrize("seed", [61, 84, 101, 120, 898, 1088])
def test_main_theorem_passes_where_the_w_form_sum_cancelled(seed):
    # each seed failed while the V_grad side was a sum of W-forms: k-fold
    # products of gradients of size 1 cancelled far below the A-forms
    reports = run_suite([3], seed=seed, name_filter="main_theorem*")
    assert len(reports) == 12
    assert all(rep.passed for rep in reports), [rep.residual for rep in reports]


def test_omega_consistency_checks(rng):
    from theta_forge.forms import pairing_bracket, partial_bracket

    for g in (2, 3):
        t = sample_siegel_point(g, rng)
        evens = even_characteristics(g)
        F = theta_constant_product(g, evens[0])
        H = theta_constant_product(g, evens[1])
        # the omega_consistency row: the pairing of (g-1)-th powers against
        # the scaled cofactor matrix
        assert identities._pairing_power_residual(F, H, g - 1, t, None) < 1e-9
        # identical inputs: both sides vanish, up to cancellation noise
        # measured against the scale of one uncancelled term
        from theta_forge.multilinear import star_product

        same_lhs = pairing_bracket(F.power(g - 1), F.power(g - 1), g - 1, t)
        first = partial_bracket(F.power(g - 1), 1, t)
        rest = partial_bracket(F.power(g - 1), g - 2, t)
        term_scale = star_product(first, rest).max_abs()
        assert same_lhs.max_abs() <= 1e-13 * max(1.0, term_scale)


def test_exact_layer_clean(rng):
    reports = check_exact_layer(instances=40, seed=3)
    assert len(reports) == 6
    for rep in reports:
        assert rep.passed and rep.residual == 0.0
        assert rep.params["failures"] == 0
        assert rep.tolerance == _tolerances()[rep.identity_name]
    assert [rep.identity_name for rep in reports] == list(_spec("exact_layer").rows)


def _no_box_signs(table):
    def faulty(*args):
        *gathers, negative = table(*args)
        return (*gathers, np.zeros_like(negative))
    return faulty


def _one_minor_off(minors):
    def faulty(A, p):
        out = minors(A, p)
        out[..., 0, 0] += 1
        return out
    return faulty


def _hodge_signs_flipped(table):
    def faulty(g, k):
        complement, negative = table(g, k)
        return complement, ~negative
    return faulty


@pytest.mark.parametrize("name, fault, rows", [
    ("box_table", _no_box_signs,
     ["compound_power", "sigma_determinant", "rank_one_wedge"]),
    ("_minor_table", _one_minor_off,
     ["laplace_expansion", "compound_power", "adjoint_identity", "rank_one_wedge"]),
    ("dual_table", _hodge_signs_flipped,
     ["laplace_expansion", "adjoint_identity", "rank_one_wedge"]),
], ids=["box-sign-mask-dropped", "one-minor-off-by-one", "hodge-sign-flipped"])
def test_exact_layer_fails_under_a_planted_fault(monkeypatch, name, fault, rows):
    # every instance is checked, not only one per batch
    monkeypatch.setattr(multilinear, name, fault(getattr(multilinear, name)))
    failures = {rep.identity_name: rep.params["failures"]
                for rep in check_exact_layer(instances=30, seed=4)}
    for row in rows:
        assert failures["exact_" + row] > 10, (row, failures)


def test_conditioned_words_deterministic(rng):
    t = sample_siegel_point(2, rng)
    a = conditioned_words("Gamma(2)", t, 3, 5)
    b = conditioned_words("Gamma(2)", t, 3, 5)
    assert a == b


@settings(max_examples=30, deadline=None)
@given(
    group=st.sampled_from(["Gamma(2)", "Gamma(2,4)"]),
    g=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    count=st.integers(1, 3),
    point_seed=st.integers(0, 2**32 - 1),
)
def test_conditioned_words_match_stepwise_oracle(group, g, seed, count, point_seed):
    # the same words as with every partial product and every float block
    # built on its own
    t = sample_siegel_point(g, np.random.default_rng(point_seed))
    got = conditioned_words(group, t, count, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "generate_subgroup_element", stepwise_subgroup_element)
        patch.setattr(identities, "act_on_tau", blockwise_act_on_tau)
        assert conditioned_words(group, t, count, seed) == got


@pytest.mark.parametrize(
    "raised, expected, message",
    [
        (NumericalDegeneracyError, DomainError, "could not sample 1 usable words"),
        (DomainError, DomainError, "could not sample 1 usable words"),
        (TypeError, TypeError, "from act_on_tau"),
    ],
    ids=["degenerate", "domain", "bug"],
)
def test_conditioned_words_rejects_only_documented_errors(monkeypatch, rng, raised, expected,
                                                         message):
    # the documented refusals of act_on_tau mark a word unusable; a bug propagates
    def act(gamma, point):
        raise raised("from act_on_tau")

    monkeypatch.setattr(identities, "act_on_tau", act)
    t = sample_siegel_point(2, rng)
    with pytest.raises(expected, match=message):
        conditioned_words("Gamma(2)", t, 1, 5)


TAU_G2 = SiegelPoint(np.array([[0.1 + 1.0j, 0.2j], [0.2j, -0.3 + 0.8j]]))


@pytest.mark.parametrize("call", [
    lambda: theta_eval(Characteristic((0, 0), (0, 0)), TAU_G2, [0.1, 0.2, 0.3]),
    lambda: second_order_theta((0, 1), TAU_G2, [0.1]),
    lambda: theta_eval(Characteristic((0, 1), (1, 0)), TAU_G2, [np.nan, 0.0]),
    lambda: second_order_theta((1, 0), TAU_G2, [0.0, 1j * np.inf]),
    lambda: theta_unnormalized((1, 0), (1,), TAU_G2),
    lambda: SiegelPoint(np.zeros((0, 0), dtype=complex)),
    lambda: membership(SymplecticElement(np.eye(4, dtype=int)), "Gamma(0)"),
    lambda: membership(SymplecticElement(np.eye(4, dtype=int)), "Gamma(2,4)*"),
    lambda: check_jacobi([]),
    lambda: check_main_theorem(3, 2, [((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 1, 0))], []),
    lambda: check_exact_layer(4, genus_range=(1,)),
    lambda: check_exact_layer(4, genus_range=()),
    lambda: check_exact_layer(0),
    lambda: check_exact_layer(-3),
    # int() would truncate these to a valid label without a word
    lambda: Characteristic((0.5, 1), (0, 1)),
    lambda: second_order_theta((0.5, 1), TAU_G2),
    lambda: SecondOrderFactor((0.5, 1)),
    lambda: theta_unnormalized((1.7, 0), (1, 1), TAU_G2),
], ids=["z-length", "second-order-z-length", "z-nan", "z-inf", "unnormalized-length",
        "empty-tau", "level-0",
        "starred-without-tau", "jacobi-no-points", "main-theorem-no-points",
        "exact-genus-1", "exact-no-genus", "exact-no-instances", "exact-negative-instances",
        "fractional-characteristic",
        "fractional-second-order", "fractional-second-order-factor",
        "fractional-unnormalized"])
def test_malformed_input_raises_domain_error(call):
    with pytest.raises(DomainError) as info:
        call()
    # an empty list of base points is not blamed on the label pairs
    assert "degenerate" not in str(info.value)


def test_integer_entries_of_any_integer_type_are_accepted():
    # bools and numpy integers are integers: only a fraction is refused
    m = Characteristic((True, np.int64(0)), (np.uint8(1), 1))
    assert m == Characteristic((1, 0), (1, 1))
    assert all(type(x) is int for x in m.m_prime + m.m_double_prime)
    assert SecondOrderFactor((np.int32(1), False)).eps == (1, 0)


@pytest.mark.parametrize("check, row", [
    (check_gsm_forward, "gsm_forward"),
    (check_gsm_backward, "gsm_backward"),
    (check_jacobi, "jacobi"),
    (check_main_theorem, "main_theorem"),
])
def test_check_tolerance_defaults_are_the_suite_tolerances(check, row):
    # a check called without a tolerance reports its row's tolerance in the family table
    args = {
        "gsm_forward": (Characteristic((1, 0), (1, 0)), TAU_G2),
        "gsm_backward": ((0, 1), (1, 0), TAU_G2),
        "jacobi": ([TAU_G2],),
        "main_theorem": (2, 1, [((0, 0), (1, 0))], [TAU_G2]),
    }[row]
    assert inspect.signature(check).parameters["tolerance"].default is None
    rep = check(*args)
    assert rep.identity_name == row
    assert rep.tolerance == _tolerances()[row]
    assert rep.passed
    assert check(*args, tolerance=1e-300).tolerance == 1e-300


# ---------------------------------------------------------------------------
# suite driver


def test_run_suite_genus_validation():
    with pytest.raises(DomainError):
        run_suite([5], seed=0)


def test_run_suite_filter(rng):
    reports = run_suite([1], seed=3, name_filter="gsm_*")
    assert reports
    assert all(r.identity_name.startswith("gsm_") for r in reports)


def test_run_suite_filtered_rows_equal_matching_rows():
    full = run_suite([1, 2], seed=3)
    names = sorted({r.identity_name for r in full})
    # every family runs at genus 2, so the suite emits exactly the table's rows
    assert names == sorted(_tolerances())
    assert not any(name.endswith("_error") for name in names)
    for pattern in names + ["gsm_*", "exact_*", "*_inverse", "main_theorem*", "none"]:
        want = [r for r in full if fnmatch.fnmatch(r.identity_name, pattern)]
        got = run_suite([1, 2], seed=3, name_filter=pattern)
        assert reports_to_json(got) == reports_to_json(want), pattern


def test_run_suite_filter_skips_families_that_cannot_match(monkeypatch):
    calls = []

    def spy(genus, rng, policy, seed=0, **kw):
        calls.append(genus)
        return []

    families = tuple(
        (name, spy if name == "heat" else fn, gs) for name, fn, gs in identities._FAMILIES
    )
    monkeypatch.setattr(identities, "_FAMILIES", families)
    run_suite([1], seed=0, name_filter="gsm_*")
    assert calls == []
    run_suite([1], seed=0, name_filter="heat_*")
    assert calls == [1]


def test_run_suite_tolerance_override():
    default = run_suite([2], seed=0)
    for rep in default:
        assert rep.tolerance == _tolerances()[rep.identity_name], rep.identity_name
    overridden = run_suite([2], seed=0, tolerance=1e-3)
    assert [(r.identity_name, r.params, r.residual) for r in overridden] == [
        (r.identity_name, r.params, r.residual) for r in default
    ]
    for rep in overridden:
        if rep.identity_name.startswith("exact_"):
            want = 1e-15
        elif rep.identity_name == "kappa_fourth_power":
            want = 1e-9
        else:
            want = 1e-3
        assert rep.tolerance == want, rep.identity_name
        assert rep.passed == (rep.residual < want)
    assert sum(r.identity_name.startswith("exact_") for r in overridden) == 6


@pytest.mark.parametrize("family, genera", [("heat", [1, 2]), ("exact_layer", [2])])
def test_run_suite_reports_a_raising_family_as_error_rows(monkeypatch, family, genera):
    clean = run_suite([1, 2], seed=0)

    def boom(genus, rng, policy, seed=0):
        raise ValueError("boom")

    families = tuple(
        (name, boom if name == family else fn, gs) for name, fn, gs in identities._FAMILIES
    )
    monkeypatch.setattr(identities, "_FAMILIES", families)
    for tolerance in (None, 1e100):
        reports = run_suite([1, 2], seed=0, tolerance=tolerance)
        errors = [r for r in reports if r.identity_name == f"{family}_error"]
        assert [r.genus for r in errors] == genera
        for rep in errors:
            assert rep.residual == 9e99 and rep.tolerance == 0.0 and not rep.passed
            assert rep.params["error"].startswith("ValueError")
        if tolerance is None:
            own = set(_spec(family).rows)
            others = [r for r in reports if r.identity_name != f"{family}_error"]
            want = [r for r in clean if r.identity_name not in own]
            assert reports_to_json(others) == reports_to_json(want)


def test_no_row_is_declared_by_two_families():
    rows = [row for _, _, spec in identities._FAMILIES for row in spec.rows]
    assert len(rows) == len(set(rows))
    for _, _, spec in identities._FAMILIES:
        assert set(spec.fixed) <= set(spec.rows)


def test_each_family_emits_exactly_its_declared_rows():
    family_of = {row: name for name, _, spec in identities._FAMILIES for row in spec.rows}
    emitted = {}
    for rep in run_suite([1, 2, 3, 4], seed=3):
        assert rep.identity_name in family_of, rep.identity_name
        emitted.setdefault(family_of[rep.identity_name], set()).add(rep.identity_name)
    for name, _, spec in identities._FAMILIES:
        assert emitted[name] == set(spec.rows), name


def test_run_suite_gives_an_undeclared_row_tolerance_zero(monkeypatch):
    # a family returning another family's row gets no tolerance from that row
    def heat(genus, rng, policy, seed=0):
        return [identities._row("gsm_forward", {}, 0.0)]

    families = tuple(
        (name, heat if name == "heat" else fn, spec) for name, fn, spec in identities._FAMILIES
    )
    monkeypatch.setattr(identities, "_FAMILIES", families)
    for tolerance in (None, 1e100):
        reports = [r for r in run_suite([1], seed=0, tolerance=tolerance)
                   if r.identity_name == "gsm_forward"]
        [rep] = [r for r in reports if r.params == {}]
        assert rep.genus == 1 and rep.residual == 0.0
        assert rep.tolerance == 0.0 and not rep.passed
        # the gsm family's own gsm_forward rows keep theirs
        assert all(r.tolerance == (tolerance or 1e-8) for r in reports if r is not rep)


@pytest.mark.parametrize("name, target, row", [
    ("_heat_residual", lambda m, tau, z, policy: float("nan"), "heat_equation"),
    ("theta_unnormalized", lambda *args: complex("nan"), "theta_parity_periodicity"),
], ids=["heat", "theta-basics"])
def test_a_nan_residual_fails_its_row(monkeypatch, name, target, row):
    # one NaN among finite residuals must not be dropped by the maximum
    monkeypatch.setattr(identities, name, target)
    for tolerance in (None, 1e100):
        [rep] = run_suite([2], seed=0, name_filter=row, tolerance=tolerance)
        assert np.isnan(rep.residual) and not rep.passed
        assert '"residual": NaN' in reports_to_json([rep])


@pytest.mark.parametrize("genera", [[2.5], ["2"], [2, None]])
def test_run_suite_rejects_a_non_integer_genus(genera):
    with pytest.raises(DomainError, match="genus"):
        run_suite(genera, seed=0)


def test_run_suite_runtime_adds_up_to_wall_time():
    clear_caches()
    started = time.perf_counter()
    reports = run_suite([2], seed=0)
    wall_ms = (time.perf_counter() - started) * 1e3
    total_ms = sum(r.runtime_ms for r in reports)
    assert all(r.runtime_ms >= 0.0 for r in reports)
    assert 0.8 * wall_ms <= total_ms <= wall_ms


def test_benchmark_tracer_hooks_the_suite():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    families = identities._FAMILIES
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the point-list kernel, its lattice cache and the cube's radius
        # selection are gone; every hook on the identity layer must still
        # find its target
        assert set(tracer.missing) <= {
            "theta_forge.theta._lattice",
            "theta_forge._kernels.theta_sum",
            "theta_forge.theta._choose_radius",
            "theta_forge.theta._tail_bound",
        }
        run_suite([2], name_filter="heat_*")
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["identities.family.heat_s"] > 0.0
    assert identities._FAMILIES is families


def test_run_suite_deterministic_json():
    a = run_suite([1], seed=11)
    b = run_suite([1], seed=11)
    assert reports_to_json(a) == reports_to_json(b)


def test_report_serialization_contract():
    rep = IdentityReport(
        identity_name="x",
        genus=2,
        params={"a": 1},
        residual=1e-9,
        tolerance=1e-8,
        passed=True,
        runtime_ms=12.5,
        seed=7,
    )
    payload = json.loads(reports_to_json([rep], config={"genus": 2}))
    assert payload["schema"] == "theta-forge/report/3"
    entry = payload["reports"][0]
    assert set(entry) == {
        "identity_name",
        "genus",
        "params",
        "residual",
        "tolerance",
        "passed",
        "runtime_ms",
        "seed",
    }
    assert entry["runtime_ms"] == 0.0  # zeroed for byte-stable output
    timed = json.loads(reports_to_json([rep], embed_timings=True))
    assert timed["reports"][0]["runtime_ms"] == 12.5


def test_report_pass_iff_residual_below_tolerance():
    reports = run_suite([1], seed=2)
    for rep in reports:
        assert rep.passed == (rep.residual < rep.tolerance)


def test_bridge_constant_value():
    assert HESSIAN_BRIDGE == pytest.approx(8j * np.pi)
