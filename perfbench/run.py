"""theta-forge system benchmark: one run of one workload.

    python3 perfbench/run.py --workload verify-g3 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads:

- ``verify-g3``: ``theta-forge verify --g 3`` through ``cli.main``;
- ``verify-g4``: the same at genus 4;
- ``theta-batch``: library-style theta evaluation at fresh tau of genus 2-4.

A run is one caller in a closed loop.  Each pass is one fresh process
(``worker.py``), so every pass starts from cold caches, as each CLI call
does.  Passes run one after another until ``--seconds`` have elapsed; each
makes its inputs from the run's seed and its own index.  Before the passes,
a few import-only processes add samples of the import time.

With ``--trace 0`` the last line reports the end-to-end metrics, each the
median over the run's passes:

- ``wall_s``: wall time of one pass, after import;
- ``cpu_s``: process CPU time of that pass, over all threads;
- ``setup_s``: time to import ``theta_forge`` in a fresh process;
- ``peak_rss_mb``: peak resident memory of the pass process (MiB).

With ``--trace 1`` the run makes pass 0 four times, untraced and traced
in turn, and reports the per-layer metrics of the last traced pass (see
``tracing.py``) plus ``trace.overhead_s``: the median wall time of the
traced passes minus that of the untraced ones.

The line before the last records the seed, every pass and the machine
(nproc, Python, numpy, BLAS and its threads, git sha); ``perfbench/out/``
keeps the same as ``result-<workload>.json``, the last verify report and,
after a traced run, ``trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import OUT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 8
TRACE_PAIRS = 2
# every run must end well inside 180 s
HARD_LIMIT_S = 165.0


class PassError(RuntimeError):
    pass


def run_child(argv: list[str], timeout: float) -> dict:
    """Start one worker process, wait for it and return its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *argv],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"worker {' '.join(argv)} exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise PassError(f"worker {' '.join(argv)} exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def git_sha() -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description="theta-forge system benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "theta_forge", "__init__.py")):
        print(f"error: no theta_forge package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # metric names and units, in order, as BENCHMARK.json declares them
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    end_to_end = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    started = time.monotonic()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.monotonic() - started)

    def one_pass(index: int, trace: int) -> dict:
        argv = ["--workload", args.workload, "--seed", str(args.seed), "--pass", str(index)]
        t0 = time.monotonic()
        result = run_child(argv + ["--trace", str(trace)], remaining())
        result["index"] = index
        result["trace"] = trace
        result["process_s"] = time.monotonic() - t0
        return result

    setups = []
    passes = []
    try:
        if args.trace:
            passes = [one_pass(0, trace) for _ in range(TRACE_PAIRS) for trace in (0, 1)]
        else:
            for _ in range(SETUP_PROBES):
                probe = run_child(["--workload", args.workload, "--seed", "0", "--setup-only"], remaining())
                setups.append(probe["setup_s"])
            measure_start = time.monotonic()
            while not passes or time.monotonic() - measure_start < args.seconds:
                longest = max((p["process_s"] for p in passes), default=0.0)
                if passes and longest > remaining():
                    break
                passes.append(one_pass(len(passes), 0))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [f"pass {p['index']}: {msg}" for p in passes for msg in p["problems"]]
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    if args.trace:
        plain = [p["wall_s"] for p in passes if not p["trace"]]
        traced = [p for p in passes if p["trace"]]
        overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(plain)
        layers = dict(traced[-1]["layers"], **{"trace.overhead_s": overhead})
        metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in per_layer}
        trace_path = os.path.join(OUT, f"trace-{args.workload}.json")
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        trace["metrics"]["trace.overhead_s"] = layers["trace.overhead_s"]
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        if traced[-1]["missing"]:
            print(f"missing entry points: {', '.join(traced[-1]['missing'])}", file=sys.stderr)
    else:
        setups += [p["setup_s"] for p in passes]
        samples = {name: [p[name] for p in passes] for name, _ in end_to_end if name != "setup_s"}
        samples["setup_s"] = setups
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in end_to_end
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "git_sha": git_sha(),
        "environment": passes[0]["environment"],
        "passes": [
            {k: p[k] for k in ("index", "trace", "setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                               "process_s", "attempted", "failed", "suite_seed", "fault")}
            for p in passes
        ],
        "setup_probes_s": setups[:SETUP_PROBES],
        "problems": problems[:20],
    }
    with open(os.path.join(OUT, f"result-{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
