"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np

from theta_forge.identities import (
    _family_audit_astar,
    _family_audit_w,
    _family_pairing_power,
    _family_heat,
    _family_pairing_permutation,
    _family_rank_vanishing,
    _family_riemann,
    check_exact_layer,
    check_gsm_backward,
    check_gsm_forward,
    check_jacobi,
    check_main_theorem,
)
from theta_forge.symplectic import (
    odd_characteristics,
    sample_siegel_point,
)

SEED = 20240101


def _announce(number, description, residual, tolerance, elapsed, ok):
    status = "PASS" if ok else "FAIL"
    print(
        f"[{status}] criterion {number}: {description} "
        f"(worst residual {residual:.3e}, tolerance {tolerance:.1e}, {elapsed:.1f}s)"
    )
    assert ok, f"criterion {number} failed: residual {residual:.3e} >= {tolerance:.1e}"


def test_criterion_01_exact_layer():
    start = time.perf_counter()
    reports = check_exact_layer(instances=500, seed=SEED)
    elapsed = time.perf_counter() - start
    named = {r.identity_name: r for r in reports}
    # the five required identities plus the binomial expansion, all exact
    for key in (
        "exact_laplace_expansion",
        "exact_compound_power",
        "exact_sigma_determinant",
        "exact_adjoint_identity",
        "exact_rank_one_wedge",
    ):
        assert named[key].params["failures"] == 0, key
        assert named[key].params["instances"] == 500
    worst = max(r.residual for r in reports)
    assert elapsed < 30.0, f"exact layer took {elapsed:.1f}s"
    _announce(1, "exact rational layer, 500 instances each", worst, 1e-15, elapsed, worst == 0.0)


def test_criterion_02_heat_equation():
    start = time.perf_counter()
    worst = 0.0
    for g in (1, 2, 3):
        rng = np.random.default_rng([SEED, 2, g])
        rep = _family_heat(g, rng, None, seed=SEED)[0]
        worst = max(worst, rep.residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"heat checks took {elapsed:.1f}s"
    _announce(2, "heat equation, 20 samples per genus 1..3", worst, 1e-7, elapsed, worst < 1e-7)


def test_criterion_03_riemann_addition():
    start = time.perf_counter()
    worst = 0.0
    for g in (1, 2):
        rng = np.random.default_rng([SEED, 3, g])
        for rep in _family_riemann(g, rng, None, seed=SEED):
            worst = max(worst, rep.residual)
    elapsed = time.perf_counter() - start
    _announce(3, "addition formulas, exhaustive labels, genus 1..2", worst, 1e-9, elapsed, worst < 1e-9)


def test_criterion_04_rank_vanishing():
    start = time.perf_counter()
    worst = 0.0
    for g in (2, 3):
        rng = np.random.default_rng([SEED, 4, g])
        rep = _family_rank_vanishing(g, rng, None, seed=SEED)[0]
        worst = max(worst, rep.residual)
    elapsed = time.perf_counter() - start
    _announce(4, "order-2 derivative minors vanish on all even constants", worst, 1e-8, elapsed, worst < 1e-8)


def test_criterion_05_pairing_identities():
    start = time.perf_counter()
    worst = 0.0
    for g in (2, 3, 4):
        rng = np.random.default_rng([SEED, 5, g])
        for rep in _family_pairing_permutation(g, rng, None, seed=SEED):
            worst = max(worst, rep.residual)
        rng2 = np.random.default_rng([SEED, 55, g])
        for rep in _family_pairing_power(g, rng2, None, seed=SEED):
            worst = max(worst, rep.residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"pairing identities took {elapsed:.1f}s"
    _announce(5, "pairing expansions and cofactor powers at (2,1),(3,1),(3,2),(4,2)",
              worst, 1e-8, elapsed, worst < 1e-8)


def test_criterion_06_gradient_second_order_bridge():
    start = time.perf_counter()
    worst = 0.0
    for g in (1, 2):
        rng = np.random.default_rng([SEED, 6, g])
        t = sample_siegel_point(g, rng)
        for n in odd_characteristics(g):
            worst = max(worst, check_gsm_forward(n, t, tolerance=1e-8).residual)
        for eps in itertools.product((0, 1), repeat=g):
            for delta in itertools.product((0, 1), repeat=g):
                worst = max(
                    worst, check_gsm_backward(eps, delta, t, tolerance=1e-8).residual
                )
    rng = np.random.default_rng([SEED, 6, 3])
    t = sample_siegel_point(3, rng)
    odds = odd_characteristics(3)
    for i in rng.choice(len(odds), 3, replace=False):
        worst = max(worst, check_gsm_forward(odds[i], t, tolerance=1e-8).residual)
    bits = list(itertools.product((0, 1), repeat=3))
    for _ in range(3):
        eps = bits[int(rng.integers(len(bits)))]
        delta = bits[int(rng.integers(len(bits)))]
        worst = max(worst, check_gsm_backward(eps, delta, t, tolerance=1e-8).residual)
    elapsed = time.perf_counter() - start
    _announce(6, "gradient products vs second-order forms, both directions",
              worst, 1e-8, elapsed, worst < 1e-8)


def test_criterion_07_derivative_formula():
    start = time.perf_counter()
    rng = np.random.default_rng([SEED, 7, 1])
    taus1 = [sample_siegel_point(1, rng) for _ in range(5)]
    rep1 = check_jacobi(1, taus1, tolerance=1e-8)
    rng = np.random.default_rng([SEED, 7, 2])
    taus2 = [sample_siegel_point(2, rng) for _ in range(5)]
    rep2 = check_jacobi(2, taus2, tolerance=1e-8)
    worst = max(rep1.residual, rep2.residual)
    elapsed = time.perf_counter() - start
    ok = rep1.passed and rep2.passed and rep2.params["pairs"] == 15
    _announce(7, "derivative formula constants stable over 5 base points",
              worst, 1e-8, elapsed, ok)


def test_criterion_08_transformation_audits():
    start = time.perf_counter()
    worst = 0.0
    kappa_worst = 0.0
    for g in (2, 3):
        rng = np.random.default_rng([SEED, 8, g])
        for rep in _family_audit_astar(g, rng, None, seed=SEED):
            if rep.identity_name == "kappa_fourth_power":
                kappa_worst = max(kappa_worst, rep.residual)
            else:
                worst = max(worst, rep.residual)
        rng2 = np.random.default_rng([SEED, 88, g])
        for rep in _family_audit_w(g, rng2, None, seed=SEED):
            worst = max(worst, rep.residual)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and kappa_worst < 1e-9
    print(f"    multiplier fourth-power deviation: {kappa_worst:.3e} (tolerance 1e-09)")
    _announce(8, "transformation audits, 10 words per group and genus",
              worst, 1e-7, elapsed, ok)


def test_criterion_09_expansion_constant():
    start = time.perf_counter()
    worst = 0.0
    for (g, k) in ((2, 1), (3, 1), (3, 2)):
        rng = np.random.default_rng([SEED, 9, g, k])
        taus = [sample_siegel_point(g, rng) for _ in range(3)]
        constants = []
        choices = 0
        from theta_forge.identities import _sample_theorem_pairs

        while choices < 5:
            pairs = _sample_theorem_pairs(rng, g, k)
            rep = check_main_theorem(g, k, pairs, taus, tolerance=1e-7)
            worst = max(worst, rep.residual)
            constants.append(complex(*rep.params["fitted_constant"]))
            choices += 1
        mean = sum(constants) / len(constants)
        spread = max(abs(c - mean) for c in constants) / max(1.0, abs(mean))
        worst = max(worst, spread)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"expansion checks took {elapsed:.1f}s"
    _announce(9, "expansion constant universal over >=5 label choices at (2,1),(3,1),(3,2)",
              worst, 1e-7, elapsed, worst < 1e-7)


def test_criterion_10_byte_identical_reports(tmp_path, package_root):
    start = time.perf_counter()
    blobs = []
    for run in (1, 2):
        out = tmp_path / f"determinism{run}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "theta_forge.cli", "verify", "--g", "3",
             "--seed", "7", "--out", str(out)],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        blobs.append(out.read_bytes())
    elapsed = time.perf_counter() - start
    ok = blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    ok = ok and payload["all_passed"]
    _announce(10, "two identical verify runs produce byte-identical reports",
              0.0 if ok else 1.0, 1.0, elapsed, ok)
