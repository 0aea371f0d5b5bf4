"""One pass of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload verify-g3 --seed 5 --pass 0 --trace 0

Imports theta_forge from the checkout's ``src/`` (timed: ``setup_s``), runs
one pass of the workload (timed: ``wall_s`` and the process CPU time
``cpu_s``, over all threads; the peak resident memory is read right after),
then checks the program's outputs and prints one JSON line.  With
``--trace 1`` the layer entry points are wrapped before the pass and the
spans are written to ``perfbench/out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# reports, traces and results
OUT = os.path.join(HERE, "out")

# Series tolerance of the default policy (`verify --series-tol`): every
# certified tail must stay below it.
TARGET_TOL = 1e-12

# identity -> (family of the suite, acceptance tolerance).  A report's own
# tolerance is capped at this value before its residual is judged.
IDENTITIES = {
    "exact_laplace_expansion": ("exact_layer", 1e-15),
    "exact_compound_power": ("exact_layer", 1e-15),
    "exact_sigma_determinant": ("exact_layer", 1e-15),
    "exact_adjoint_identity": ("exact_layer", 1e-15),
    "exact_rank_one_wedge": ("exact_layer", 1e-15),
    "exact_binomial_power": ("exact_layer", 1e-15),
    "theta_parity_periodicity": ("theta_basics", 1e-10),
    "heat_equation": ("heat", 1e-7),
    "riemann_addition": ("riemann", 1e-9),
    "riemann_addition_inverse": ("riemann", 1e-9),
    "rank_vanishing": ("rank_vanishing", 1e-8),
    "pairing_permutation_expansion": ("pairing_permutation", 1e-8),
    "pairing_power_cofactor": ("pairing_power", 1e-8),
    "omega_consistency": ("pairing_power", 1e-8),
    "det_pairing_scalar": ("det_remark", 1e-8),
    "gsm_forward": ("gsm", 1e-8),
    "gsm_backward": ("gsm", 1e-8),
    "main_theorem": ("main_theorem", 1e-7),
    "main_theorem_constant": ("main_theorem", 1e-7),
    "audit_astar": ("audit_astar", 1e-7),
    "kappa_fourth_power": ("audit_astar", 1e-9),
    "audit_gradient_wedge": ("audit_w", 1e-7),
}

_EXACT = {name: 1 for name, (fam, _) in IDENTITIES.items() if fam == "exact_layer"}
# rows the suite must report at each genus: every family that runs there
EXPECTED_ROWS = {
    3: {
        **_EXACT,
        "theta_parity_periodicity": 1,
        "heat_equation": 1,
        "riemann_addition": 1,
        "riemann_addition_inverse": 1,
        "rank_vanishing": 1,
        "pairing_permutation_expansion": 2,
        "pairing_power_cofactor": 2,
        "omega_consistency": 1,
        "det_pairing_scalar": 1,
        "gsm_forward": 3,
        "gsm_backward": 3,
        "main_theorem": 10,
        "main_theorem_constant": 2,
        "audit_astar": 10,
        "kappa_fourth_power": 1,
        "audit_gradient_wedge": 10,
    },
    4: {
        **_EXACT,
        "pairing_permutation_expansion": 1,
        "pairing_power_cofactor": 1,
        "omega_consistency": 1,
    },
}

VERIFY_GENUS = {"verify-g3": 3, "verify-g4": 4}

# Suite seeds the verify workloads draw from.  Every suite seed below
# SUITE_SEEDS_TRIED was run at genus 3 and 4; the ones in
# FAILING_SUITE_SEEDS fail a check at genus 3, always (none fails at genus
# 4), and are left out, so the inputs of the verify workloads are limited to
# the rest: main_theorem fails at 61, 84, 101 and 120 (residuals 8.5e-7 to
# 5.9e-2 against 1e-7), pairing_power_cofactor at 158 (1.006e-8 against
# 1e-8).  Pass i of a run with seed s runs
# `verify --seed VERIFY_SEEDS[(s * 16 + i) % len(VERIFY_SEEDS)]`: the passes
# of one run (at most 16 in practice) use distinct suite seeds.
SUITE_SEEDS_TRIED = 160
FAILING_SUITE_SEEDS = (61, 84, 101, 120, 158)
VERIFY_SEEDS = tuple(s for s in range(SUITE_SEEDS_TRIED) if s not in FAILING_SUITE_SEEDS)

# The main_theorem fault, kept as one failed operation of every verify-g3
# pass on an input that does not depend on the run's seed:
# check_main_theorem at genus 3, k = 2, with these label pairs at this base
# point (drawn by `verify --g 3 --seed 898`) reports a residual of 1.7e-4
# against its tolerance 1e-7.  A program that mends it turns the operation
# from failed into passed.
FAULT_PAIRS = (((1, 1, 0), (1, 1, 1)), ((1, 1, 0), (0, 1, 0)))
FAULT_TAU_REAL = (
    ("-0x1.0637b4cd60ee0p-4", "-0x1.88c456d2e5b86p-3", "0x1.c833d7cc376d0p-3"),
    ("-0x1.88c456d2e5b86p-3", "0x1.533205998adb0p-3", "0x1.452f64f334780p-6"),
    ("0x1.c833d7cc376d0p-3", "0x1.452f64f334780p-6", "-0x1.427938b1fe824p-2"),
)
FAULT_TAU_IMAG = (
    ("0x1.64703d7794078p-1", "0x1.b815f49fc65bcp-4", "-0x1.618d7e9119922p-4"),
    ("0x1.b815f49fc65bcp-4", "0x1.43a8605960cd2p+2", "-0x1.32d6a16748776p-3"),
    ("-0x1.618d7e9119922p-4", "-0x1.32d6a16748776p-3", "0x1.4decd3f4796b7p-1"),
)

# theta-batch: lambda_min(Im tau) of each point, per genus.  The box the
# evaluator sums depends on lambda_min alone (at z = 0), so fixing these
# values keeps the work of a pass the same for every seed, while the rest of
# tau (eigenvectors, the other eigenvalues, Re tau) comes from the seed.
BATCH_LAMBDAS = {2: (0.1, 0.4, 1.2), 3: (0.12, 0.3, 0.8), 4: (0.8,)}

WORKLOADS = ("verify-g3", "verify-g4", "theta-batch")


# -- verify workloads -------------------------------------------------------


def run_verify(genus: int, seed: int, report_path: str) -> dict:
    """One verify call; each identity row it must report is an operation."""
    from theta_forge import cli

    rows = sum(EXPECTED_ROWS[genus].values())
    try:
        code = cli.main(["verify", "--g", str(genus), "--seed", str(seed), "--out", report_path])
    except Exception as exc:  # a failed operation is counted, not fatal
        return {"attempted": rows, "failed": rows, "error": repr(exc)}
    return {"attempted": rows, "failed": 0, "exit_code": code}


def run_fault() -> str | None:
    """The known main-theorem fault (FAULT_PAIRS); its failure, or None."""
    import numpy as np
    from theta_forge import SiegelPoint, check_main_theorem

    def matrix(rows):
        return np.array([[float.fromhex(x) for x in row] for row in rows])

    tau = SiegelPoint(matrix(FAULT_TAU_REAL) + 1j * matrix(FAULT_TAU_IMAG))
    tolerance = IDENTITIES["main_theorem"][1]
    try:
        residual = check_main_theorem(3, 2, FAULT_PAIRS, [tau], None, tolerance).residual
    except Exception as exc:
        return repr(exc)
    return None if residual < tolerance else f"main_theorem residual {residual:g} >= {tolerance:g}"


def check_verify(genus: int, seed: int, report_path: str, outcome: dict) -> list[str]:
    if outcome["failed"]:
        return []
    problems = []
    if outcome["exit_code"] != 0:
        problems.append(f"verify exited with {outcome['exit_code']}")
    with open(report_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    config = payload.get("config", {})
    if config.get("genus") != genus or config.get("seed") != seed:
        problems.append(f"report config {config.get('genus')}/{config.get('seed')} != {genus}/{seed}")
    counts = {}
    for row in payload.get("reports", []):
        name = row["identity_name"]
        counts[name] = counts.get(name, 0) + 1
        if name.endswith("_error"):
            problems.append(f"{name}: {row['params'].get('error')}")
            continue
        if name not in IDENTITIES:
            problems.append(f"unexpected identity {name}")
            continue
        residual, tolerance = float(row["residual"]), float(row["tolerance"])
        if bool(row["passed"]) != (residual < tolerance):
            problems.append(f"{name}: passed flag disagrees with {residual:g} < {tolerance:g}")
        cap = IDENTITIES[name][1]
        if tolerance > cap:
            problems.append(f"{name}: tolerance {tolerance:g} looser than acceptance {cap:g}")
        cap = min(tolerance, cap)
        if not residual < cap:
            problems.append(f"{name} {row['params']}: residual {residual:g} >= {cap:g}")
    if counts != EXPECTED_ROWS[genus]:
        problems.append(f"report rows {sorted(counts.items())} != expected")
    if payload.get("all_passed") is not True:
        problems.append("all_passed is not true")
    return problems


# -- theta-batch ------------------------------------------------------------


def batch_points(seed: int, pass_index: int):
    import numpy as np
    from theta_forge import SiegelPoint

    rng = np.random.default_rng([seed, pass_index])
    points = []
    for g, lambdas in BATCH_LAMBDAS.items():
        for lam in lambdas:
            q, _ = np.linalg.qr(rng.standard_normal((g, g)))
            eig = np.concatenate([[lam], lam + rng.uniform(0.05, 1.5, g - 1)])
            Y = q @ np.diag(eig) @ q.T
            X = rng.uniform(-0.5, 0.5, (g, g))
            points.append(SiegelPoint((X + X.T) / 2 + 1j * (Y + Y.T) / 2))
    return points


def run_batch(points) -> dict:
    """Evaluate, at every point: each even theta constant, each odd gradient
    at z = 0 and each second-order constant with its tau-derivative."""
    import itertools

    from theta_forge import second_order_theta, theta_eval, theta_gradient
    from theta_forge.symplectic import even_characteristics, odd_characteristics

    results = []
    attempted = failed = 0
    for k, point in enumerate(points):
        g = point.g
        requests = (
            [("even", m) for m in even_characteristics(g)]
            + [("odd", n) for n in odd_characteristics(g)]
            + [("second", eps) for eps in itertools.product((0, 1), repeat=g)]
        )
        for kind, label in requests:
            attempted += 1
            try:
                if kind == "even":
                    out = theta_eval(label, point)
                elif kind == "odd":
                    out = theta_gradient(label, point)
                else:
                    out = second_order_theta(label, point, want_tau_derivative=True)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                results.append((k, kind, label, exc))
                continue
            results.append((k, kind, label, out))
    return {"attempted": attempted, "failed": failed, "results": results}


def check_batch(points, outcome) -> list[str]:
    import numpy as np
    from reference import theta_reference
    from theta_forge import theta_eval

    problems = []

    def close(name, got, want, slack):
        err = np.abs(np.asarray(got) - np.asarray(want))
        if not np.all(err <= slack):
            problems.append(f"{name}: |error| {np.max(err):.3g} > allowed {np.min(slack):.3g}")

    for k, kind, label, out in outcome["results"]:
        if isinstance(out, Exception):
            continue
        point = points[k]
        tag = f"point {k} g={point.g} {kind} {label}"
        if kind == "second":
            ref = theta_reference(label, (0,) * point.g, 2 * point.tau)
            tail = out.est_tail
            close(tag + " value", out.value, ref.value, tail + ref.tail + ref.value_allowance)
            # outer tau-derivative = 2 * inner one, so every error doubles
            close(
                tag + " tau-derivative",
                out.tau_derivative,
                2 * ref.tau_derivative,
                2 * (tail + ref.tail + ref.tau_allowance),
            )
        else:
            ref = theta_reference(label.m_prime, label.m_double_prime, point.tau)
            if kind == "even":
                tail = out.est_tail
                close(tag + " value", out.value, ref.value, tail + ref.tail + ref.value_allowance)
            else:
                # the value and certified tail of the gradient evaluation,
                # a hit in the evaluation cache
                full = theta_eval(label, point, want_gradient=True)
                tail = full.est_tail
                close(tag + " gradient", out, ref.gradient, tail + ref.tail + ref.gradient_allowance)
                close(tag + " odd constant", full.value, 0.0, tail + ref.value_allowance)
        if not tail <= TARGET_TOL:
            problems.append(f"{tag}: est_tail {tail:g} > target {TARGET_TOL:g}")
    return problems


# -- environment -------------------------------------------------------------


def blas_info() -> dict:
    """Name of the loaded BLAS library and its thread count (OpenBLAS)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and ".so" in ln})
    except OSError:
        libs = []
    info = {"library": os.path.basename(libs[0]) if libs else "unknown", "threads": None}
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    return info


def environment() -> dict:
    import platform

    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
    }


# -- one pass ------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="the run's seed")
    parser.add_argument("--pass", dest="pass_index", type=int, default=0, help="pass index")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="only time the import, run no pass"
    )
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    started = time.perf_counter()
    import theta_forge.cli  # noqa: F401  (what every CLI call imports)

    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(OUT, exist_ok=True)
    report_path = os.path.join(OUT, f"report-{args.workload}.json")
    points = None
    if args.workload == "theta-batch":
        points = batch_points(args.seed, args.pass_index)
    else:
        genus = VERIFY_GENUS[args.workload]
        suite_seed = VERIFY_SEEDS[(args.seed * 16 + args.pass_index) % len(VERIFY_SEEDS)]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    wall0, cpu0 = time.perf_counter(), time.process_time()
    if points is not None:
        outcome = run_batch(points)
    else:
        outcome = run_verify(genus, suite_seed, report_path)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        with open(os.path.join(OUT, f"trace-{args.workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "pass": args.pass_index,
                    "metrics": layers,
                    "missing": tracer.missing,
                    "span_fields": ["name", "start_s", "end_s", "parent", "points"],
                    "spans": tracer.dump_spans(),
                },
                fh,
            )

    fault = None
    if points is not None:
        problems = check_batch(points, outcome)
    else:
        problems = [
            f"verify --g {genus} --seed {suite_seed}: {msg}"
            for msg in check_verify(genus, suite_seed, report_path, outcome)
        ]
        if genus == 3:
            fault = run_fault()
            outcome["attempted"] += 1
            outcome["failed"] += fault is not None

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "peak_rss_mb": peak_rss_mb,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "suite_seed": None if points is not None else suite_seed,
                "fault": fault,
                "problems": problems[:20],
                "layers": layers,
                "missing": tracer.missing if tracer is not None else [],
                "environment": environment(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
