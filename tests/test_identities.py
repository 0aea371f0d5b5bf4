import fnmatch
import importlib.util
import inspect
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from theta_forge import identities
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
    check_omega_consistency,
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
    rep = check_jacobi(1, taus)
    assert rep.passed
    fitted = complex(*rep.params["fitted_constant"])
    assert fitted == pytest.approx(-np.pi, rel=1e-9)
    assert rep.params["constant_error"] < 1e-9


def test_jacobi_g2_ratio_constancy(rng):
    taus = [sample_siegel_point(2, rng) for _ in range(4)]
    rep = check_jacobi(2, taus)
    assert rep.passed
    assert rep.params["pairs"] == 15
    # quartic ratio magnitude is the square of the one-dimensional constant
    assert rep.params["mean_ratio_magnitude"] == pytest.approx(np.pi**2, rel=1e-7)


def test_jacobi_fit_stable_under_policy_refinement(rng):
    taus = [sample_siegel_point(1, rng) for _ in range(3)]
    c_default = complex(*check_jacobi(1, taus).params["fitted_constant"])
    tight = TruncationPolicy(target_tol=1e-14)
    c_tight = complex(*check_jacobi(1, taus, policy=tight).params["fitted_constant"])
    assert abs(c_default - c_tight) < 1e-9


def test_jacobi_rejects_higher_genus(rng):
    with pytest.raises(DomainError):
        check_jacobi(3, [sample_siegel_point(3, rng)])


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


def test_omega_consistency_checks(rng):
    from theta_forge.forms import pairing_bracket, partial_bracket

    for g in (2, 3):
        t = sample_siegel_point(g, rng)
        evens = even_characteristics(g)
        F = theta_constant_product(g, evens[0])
        H = theta_constant_product(g, evens[1])
        rep = check_omega_consistency(g, F, H, t)
        assert rep.passed and rep.residual < 1e-9
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
        assert rep.tolerance == identities._ROWS[rep.identity_name][1]


def test_conditioned_words_deterministic(rng):
    t = sample_siegel_point(2, rng)
    a = conditioned_words("Gamma(2)", 2, [t], 3, 5)
    b = conditioned_words("Gamma(2)", 2, [t], 3, 5)
    assert a == b


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
        conditioned_words("Gamma(2)", 2, [t], 1, 5)


TAU_G2 = SiegelPoint(np.array([[0.1 + 1.0j, 0.2j], [0.2j, -0.3 + 0.8j]]))


@pytest.mark.parametrize("call", [
    lambda: theta_eval(Characteristic((0, 0), (0, 0)), TAU_G2, [0.1, 0.2, 0.3]),
    lambda: second_order_theta((0, 1), TAU_G2, [0.1]),
    lambda: theta_eval(Characteristic((0, 1), (1, 0)), TAU_G2, [np.nan, 0.0]),
    lambda: second_order_theta((1, 0), TAU_G2, [0.0, 1j * np.inf]),
    lambda: theta_unnormalized((1, 0), (1,), TAU_G2),
    lambda: SiegelPoint(np.zeros((0, 0), dtype=complex)),
    lambda: membership(SymplecticElement.identity(2), "Gamma(0)"),
    lambda: membership(SymplecticElement.identity(2), "Gamma(2,4)*"),
    lambda: check_jacobi(1, []),
    lambda: check_main_theorem(3, 2, [((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 1, 0))], []),
    lambda: check_exact_layer(4, genus_range=(1,)),
    lambda: check_exact_layer(4, genus_range=()),
    # int() would truncate these to a valid label without a word
    lambda: Characteristic((0.5, 1), (0, 1)),
    lambda: second_order_theta((0.5, 1), TAU_G2),
    lambda: SecondOrderFactor((0.5, 1)),
    lambda: theta_unnormalized((1.7, 0), (1, 1), TAU_G2),
], ids=["z-length", "second-order-z-length", "z-nan", "z-inf", "unnormalized-length",
        "empty-tau", "level-0",
        "starred-without-tau", "jacobi-no-points", "main-theorem-no-points",
        "exact-genus-1", "exact-no-genus", "fractional-characteristic",
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
    (check_omega_consistency, "omega_consistency"),
])
def test_check_tolerance_defaults_are_the_suite_tolerances(check, row):
    default = inspect.signature(check).parameters["tolerance"].default
    assert default == identities._ROWS[row][1]


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
    # the row table names only known families, and every family runs at
    # genus 2, so the suite emits exactly the table's rows
    family_names = {name for name, _, _ in identities._FAMILIES}
    assert {fam for fam, _, _ in identities._ROWS.values()} <= family_names
    assert names == sorted(identities._ROWS)
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
        assert rep.tolerance == identities._ROWS[rep.identity_name][1], rep.identity_name
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
            own = {n for n, (fam, _, _) in identities._ROWS.items() if fam == family}
            others = [r for r in reports if r.identity_name != f"{family}_error"]
            want = [r for r in clean if r.identity_name not in own]
            assert reports_to_json(others) == reports_to_json(want)


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
